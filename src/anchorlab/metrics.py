"""Evaluation metrics: pass rates, distributional health, diversity, coverage.

Diversity Score is 1 - Self-BLEU. Self-BLEU scores each sample against the
other K-1 as references using modified (clipped) n-gram precision, a
geometric mean over orders n = 1..n_max with no smoothing (any zero
precision zeroes the score), and the standard brevity penalty against the
closest reference length. Sequences shorter than n contribute only the
available orders. Entropy is reported in nats.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields
from math import exp, log

import numpy as np

from .anchor import top_k
from .env import ReasoningTree, rollout
from .objectives import kl_penalty
from .policy import LogitTable, entropy

CSV_HEADER = "step,pass1,passK,entropy,maxprob,diversity,support_mass,kl,eval_K"


@dataclass
class MetricRecord:
    step: int
    pass_at_1: float
    pass_at_k: float
    mean_entropy: float
    mean_max_prob: float
    diversity_score: float
    support_mass: float
    kl_to_ref: float
    eval_k: int


def pass_metrics(rewards_per_prompt) -> tuple[float, float]:
    """(grand mean reward, fraction of prompts with at least one success)."""
    if not rewards_per_prompt:
        raise ValueError("need at least one prompt")
    all_rewards: list[float] = []
    any_hit = 0
    for rewards in rewards_per_prompt:
        rewards = list(rewards)
        if not rewards:
            raise ValueError("each prompt needs at least one sampled reward")
        all_rewards.extend(rewards)
        any_hit += 1 if max(rewards) > 0 else 0
    return float(np.mean(all_rewards)), any_hit / len(rewards_per_prompt)


def entropy_and_maxprob(policy: LogitTable, contexts) -> tuple[float, float]:
    """Mean entropy (nats) and mean max-probability over all visited steps,
    given as an array of context ids (one per step, in rollout order).

    A context visited by several rollouts counts once per visit.
    """
    ctxs = np.asarray(contexts).ravel()
    if ctxs.size == 0:
        raise ValueError("no visited contexts")
    dists = policy.dist(ctxs)
    ents = [entropy(dist) for dist in dists]
    return float(np.mean(ents)), float(np.mean(dists.max(axis=1)))


def _ngram_counts(seq: tuple[int, ...], n: int) -> Counter:
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def _bleu(hypothesis: tuple[int, ...], references: list[tuple[int, ...]], n_max: int) -> float:
    if not hypothesis:
        return 0.0
    orders = range(1, min(n_max, len(hypothesis)) + 1)
    log_precisions = []
    for n in orders:
        hyp_counts = _ngram_counts(hypothesis, n)
        max_ref: Counter = Counter()
        for ref in references:
            for gram, count in _ngram_counts(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
        total = sum(hyp_counts.values())
        if clipped == 0:
            return 0.0
        log_precisions.append(log(clipped / total))
    precision = exp(sum(log_precisions) / len(log_precisions))
    # Brevity penalty against the closest reference length (ties -> shorter).
    ref_len = min((abs(len(r) - len(hypothesis)), len(r)) for r in references)[1]
    if len(hypothesis) >= ref_len:
        bp = 1.0
    else:
        bp = exp(1.0 - ref_len / len(hypothesis))
    return bp * precision


def self_bleu(samples, n_max: int = 4) -> float:
    """Mean BLEU of each sample against the other K-1 samples."""
    seqs = [tuple(s) for s in samples]
    if len(seqs) < 2:
        raise ValueError("self-BLEU needs at least 2 samples")
    scores = []
    for i, hyp in enumerate(seqs):
        refs = seqs[:i] + seqs[i + 1 :]
        scores.append(_bleu(hyp, refs, n_max))
    return float(np.mean(scores))


def diversity_score(samples, n_max: int = 4) -> float:
    """1 - Self-BLEU; 0 for identical samples, 1 for disjoint alphabets."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return 1.0 - self_bleu(samples, n_max)


def support_mass(policy: LogitTable, ref: LogitTable, k: int, contexts) -> float:
    """Mean policy mass inside the reference Top-K over the given contexts."""
    masses = []
    for ctx in contexts:
        members = top_k(ref.dist(ctx), k)
        dist = policy.dist(ctx)
        masses.append(float(dist[list(members)].sum()))
    if not masses:
        raise ValueError("no contexts given")
    return float(np.mean(masses))


def kl_to_reference(policy: LogitTable, ref: LogitTable, contexts) -> float:
    values = [kl_penalty(policy.dist(ctx), ref.dist(ctx))[0] for ctx in contexts]
    if not values:
        raise ValueError("no contexts given")
    return float(np.mean(values))


def evaluate(
    policy: LogitTable,
    tree: ReasoningTree,
    step: int,
    eval_k: int,
    rng: np.random.Generator,
    support_k: int | None = None,
    n_max: int = 4,
) -> MetricRecord:
    """Roll out ``eval_k`` samples from the root and summarize them.

    ``support_k`` defaults to half the vocabulary (at least 1); entropy and
    max-prob average over visited steps, support mass and KL over the set of
    distinct visited contexts. ``policy`` is read in place, not copied, so
    nothing may write to it during the call.
    """
    if eval_k < 2:
        raise ValueError(f"eval_k must be >= 2 (diversity needs it), got {eval_k}")
    if support_k is None:
        support_k = max(1, tree.branching // 2)
    tokens, contexts, rewards = rollout(tree, policy, eval_k, rng)
    p1, pk = pass_metrics([rewards.tolist()])
    mean_ent, mean_maxp = entropy_and_maxprob(policy, contexts)
    visited = sorted(set(contexts.ravel().tolist()))  # np.unique would import numpy.ma
    return MetricRecord(
        step=step,
        pass_at_1=p1,
        pass_at_k=pk,
        mean_entropy=mean_ent,
        mean_max_prob=mean_maxp,
        diversity_score=diversity_score(tokens.tolist(), n_max),
        support_mass=support_mass(policy, tree.ref_policy, support_k, visited),
        kl_to_ref=kl_to_reference(policy, tree.ref_policy, visited),
        eval_k=eval_k,
    )


def record_to_row(record: MetricRecord) -> list[str]:
    return [
        str(record.step),
        repr(record.pass_at_1),
        repr(record.pass_at_k),
        repr(record.mean_entropy),
        repr(record.mean_max_prob),
        repr(record.diversity_score),
        repr(record.support_mass),
        repr(record.kl_to_ref),
        str(record.eval_k),
    ]


def write_metrics_csv(records, path, timestamp: str | None = None) -> None:
    """Write the fixed-header CSV; pass a timestamp string to prepend it
    as a comment line (suppressed for byte-identical reruns)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        if timestamp is not None:
            fh.write(f"# generated {timestamp}\n")
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(",".join(record_to_row(rec)) + "\n")


def read_metrics_csv(path) -> list[MetricRecord]:
    records = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if ",".join(header) != CSV_HEADER:
        raise ValueError(f"unexpected metrics header: {header}")
    for row in reader:
        records.append(
            MetricRecord(
                step=int(row[0]),
                pass_at_1=float(row[1]),
                pass_at_k=float(row[2]),
                mean_entropy=float(row[3]),
                mean_max_prob=float(row[4]),
                diversity_score=float(row[5]),
                support_mass=float(row[6]),
                kl_to_ref=float(row[7]),
                eval_k=int(row[8]),
            )
        )
    return records


METRIC_FIELD_NAMES = [f.name for f in fields(MetricRecord)]
