"""Evaluation metrics: pass rates, distributional health, diversity, coverage.

Diversity Score is 1 - Self-BLEU of orders 1-4. Self-BLEU scores each
sample against the other K-1 as references using modified (clipped) n-gram
precision, a geometric mean over orders n = 1..n_max with no smoothing
(any zero precision zeroes the score), and the standard brevity penalty
against the closest reference length. Sequences shorter than n contribute only the
available orders. Entropy is reported in nats.

Evaluation reads the live policy in place (no copy of the table) and costs
O(K) per call: Self-BLEU clips each sample's n-gram counts against the top-2
counts of every n-gram over all samples, and entropy, support mass and KL
are computed over the stacked ``(n, V)`` rows of the visited contexts.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields
from math import exp, log

import numpy as np

from .env import ReasoningTree, rollout
from .policy import LogitTable, segment_sums

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


def entropy_and_maxprob(policy: LogitTable, contexts) -> tuple[float, float]:
    """Mean entropy (nats) and mean max-probability over all visited steps,
    given as an array of context ids (one per step, in rollout order).

    A context visited by several rollouts counts once per visit.
    """
    ctxs = np.asarray(contexts).ravel()
    if ctxs.size == 0:
        raise ValueError("no visited contexts")
    dists = policy.dist(ctxs)
    # Entropy sums p*log(p) over each row's positive entries, 0*log(0) := 0.
    pos = dists > 0.0
    nz = dists[pos]
    ents = -segment_sums(nz * np.log(nz), pos.sum(axis=1))
    return float(np.mean(ents)), float(np.mean(dists.max(axis=1)))


def _ngram_counts(seq: tuple[int, ...], n_max: int) -> Counter:
    """Counts of every n-gram of ``seq`` for n = 1..n_max, keyed by the gram
    itself (its length is its order)."""
    return Counter(
        seq[i : i + n] for n in range(1, n_max + 1) for i in range(len(seq) - n + 1)
    )


def self_bleu(samples, n_max: int = 4) -> float:
    """Mean BLEU of each sample against the other K-1 samples.

    Clipping needs only the best count of each n-gram among the other
    samples: the second-largest count over all samples if the hypothesis
    holds the largest, the largest otherwise. A first pass keeps those two
    counts per n-gram, a second recounts and scores each sample, so the cost
    is linear in K.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seqs = [tuple(s) for s in samples]
    if len(seqs) < 2:
        raise ValueError("self-BLEU needs at least 2 samples")
    first: dict[tuple[int, ...], int] = {}
    second: dict[tuple[int, ...], int] = {}
    for seq in seqs:
        for gram, count in _ngram_counts(seq, n_max).items():
            top = first.get(gram, 0)
            if count > top:
                first[gram], second[gram] = count, top
            elif count > second.get(gram, 0):
                second[gram] = count
    lengths = Counter(len(s) for s in seqs)
    scores = []
    for seq in seqs:
        h = len(seq)
        clipped = [0] * min(n_max, h)
        for gram, count in _ngram_counts(seq, n_max).items():
            best = second[gram] if count == first[gram] else first[gram]
            clipped[len(gram) - 1] += min(count, best)
        if not clipped or 0 in clipped:
            scores.append(0.0)
            continue
        # Order n has h - n + 1 grams; clipped[n - 1] is its clipped count.
        log_precisions = [log(c / (h - n + 1)) for n, c in enumerate(clipped, 1)]
        precision = exp(sum(log_precisions) / len(log_precisions))
        # Brevity penalty against the closest other length (ties -> shorter).
        lengths[h] -= 1
        ref_len = min((abs(r - h), r) for r, m in lengths.items() if m)[1]
        lengths[h] += 1
        bp = 1.0 if h >= ref_len else exp(1.0 - ref_len / h)
        scores.append(bp * precision)
    return float(np.mean(scores))


def diversity_score(samples) -> float:
    """1 - Self-BLEU of orders 1-4; 0 for identical samples, 1 for disjoint
    alphabets."""
    return 1.0 - self_bleu(samples)


def support_mass(policy: LogitTable, ref: LogitTable, k: int, contexts) -> float:
    """Mean policy mass inside the reference Top-K over the given contexts,
    each summed in Top-K order (ties toward the lower token index)."""
    ctxs = np.asarray(contexts, dtype=np.intp)
    if ctxs.size == 0:
        raise ValueError("no contexts given")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = np.argsort(-ref.dist(ctxs), axis=1, kind="stable")[:, :k]
    return float(np.mean(np.take_along_axis(policy.dist(ctxs), members, axis=1).sum(axis=1)))


def kl_to_reference(policy: LogitTable, ref: LogitTable, contexts) -> float:
    """Mean exact KL(policy || ref) over the given contexts, each as
    :func:`~anchorlab.objectives.kl_penalty` sums it."""
    ctxs = np.asarray(contexts, dtype=np.intp)
    if ctxs.size == 0:
        raise ValueError("no contexts given")
    P, Q = policy.dist(ctxs), ref.dist(ctxs)
    pos = P > 0.0
    if np.any((Q <= 0.0) & pos):
        raise ValueError("reference assigns zero mass where the policy is positive")
    p = P[pos]
    return float(np.mean(segment_sums(p * np.log(p / Q[pos]), pos.sum(axis=1))))


def evaluate(
    policy: LogitTable,
    tree: ReasoningTree,
    step: int,
    eval_k: int,
    rng: np.random.Generator,
    support_k: int | None = None,
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
    mean_ent, mean_maxp = entropy_and_maxprob(policy, contexts)
    visited = sorted(set(contexts.ravel().tolist()))  # np.unique would import numpy.ma
    return MetricRecord(
        step=step,
        # float(): repr of a numpy scalar would change the CSV under numpy 2.
        pass_at_1=float(np.mean(rewards)),
        pass_at_k=float(rewards.max() > 0),
        mean_entropy=mean_ent,
        mean_max_prob=mean_maxp,
        diversity_score=diversity_score(tokens.tolist()),
        support_mass=support_mass(policy, tree.ref_policy, support_k, visited),
        kl_to_ref=kl_to_reference(policy, tree.ref_policy, visited),
        eval_k=eval_k,
    )


def write_metrics_csv(records, path, timestamp: str | None = None) -> None:
    """Write the fixed-header CSV; pass a timestamp string to prepend it
    as a comment line (suppressed for byte-identical reruns)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        if timestamp is not None:
            fh.write(f"# generated {timestamp}\n")
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(",".join(map(repr, vars(rec).values())) + "\n")


def read_metrics_csv(path) -> list[MetricRecord]:
    records = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader, None)
    if header is None or ",".join(header) != CSV_HEADER:
        raise ValueError(f"unexpected metrics header: {header}")
    for row in reader:
        if len(row) != len(METRIC_FIELD_NAMES):
            raise ValueError(f"metrics row has {len(row)} fields, expected "
                             f"{len(METRIC_FIELD_NAMES)}: {row}")
        records.append(MetricRecord(int(row[0]), *map(float, row[1:-1]), int(row[-1])))
    return records


METRIC_FIELD_NAMES = [f.name for f in fields(MetricRecord)]
