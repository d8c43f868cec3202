"""Evaluation metrics: pass rates, distributional health, diversity, coverage.

Diversity Score is 1 - Self-BLEU of orders 1-4. Self-BLEU scores each
sample against the other K-1 as references using modified (clipped) n-gram
precision, a geometric mean over orders n = 1..n_max with no smoothing
(any zero precision zeroes the score), and the standard brevity penalty
against the closest reference length. Sequences shorter than n contribute only the
available orders. Entropy is reported in nats.

Self-BLEU is counted with integer array operations over all K samples at
once. Each n-gram gets a dense id, one order at a time: order 1 ranks the
tokens, order n ranks the pair (order n-1 id, next token), so ids stay below
the token count whatever the token values. One sort of ``id * K + sample``
gives every (n-gram, sample) count; each sample's count is clipped by the
best count held by another sample, and the clipped counts are summed per
sample and order. Only the per-sample logs, geometric mean and brevity
penalty are floating point, evaluated in Python as the pairwise definition
does, so scores are bitwise those of the pairwise loops.

Evaluation reads the live policy in place (no copy of the table); a
stacked cell is read through its view of the stack
(:meth:`~anchorlab.policy.StackedTable.cell`). Entropy
and max-prob come from the ``(K, D, V)`` rows its rollout sampled from,
one per visited step, with no second softmax; support mass and KL come
from one policy softmax and one reference softmax over the distinct
visited contexts.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from math import exp, log
from pathlib import Path

import numpy as np

from .env import ReasoningTree, rollout
from .policy import LogitTable, distinct, segment_sums

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


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))`` of a nonempty 1-D array, bit for bit: numpy's
    pairwise sum in float64 over the count."""
    return float(np.add.reduce(x, dtype=np.float64) / x.size)


def entropy_and_maxprob(dists: np.ndarray) -> tuple[float, float]:
    """Mean entropy (nats) and mean max-probability over all visited steps,
    given as the ``(..., V)`` policy rows at the visited contexts, one per
    step (a rollout's rows).

    A context visited by several rollouts counts once per visit.
    """
    dists = dists.reshape(-1, dists.shape[-1])
    if not len(dists):
        raise ValueError("no visited contexts")
    # Entropy sums p*log(p) over each row's positive entries, 0*log(0) := 0.
    pos = dists > 0.0
    nz = dists[pos]
    ents = -segment_sums(nz * np.log(nz), np.add.reduce(pos, axis=1))
    return _mean(ents), _mean(np.maximum.reduce(dists, axis=1))


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each key among the distinct keys, from 0, and their number.
    ``keys`` must be nonempty."""
    order = keys.argsort()
    ordered = keys[order]
    step = np.zeros(keys.size, dtype=np.int64)
    (ordered[1:] != ordered[:-1]).cumsum(out=step[1:])
    ranks = np.empty_like(step)
    ranks[order] = step
    return ranks, int(step[-1]) + 1


def _run_edges(keys: np.ndarray) -> np.ndarray:
    """Edges of the runs of equal values in a nonempty sorted array: run j
    is ``keys[edges[j]:edges[j + 1]]``."""
    new = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    return new.nonzero()[0]


def _clipped_counts(tokens: np.ndarray, lengths: np.ndarray, n_max: int) -> np.ndarray:
    """``(K, n_max)`` integer array: entry ``[k, n - 1]`` sums, over the
    distinct n-grams of sample k, min(its count, the largest count of that
    n-gram in any other sample). ``tokens`` holds the K samples back to
    back, ``lengths`` their lengths; at least one token is given."""
    k = lengths.size
    sample = np.arange(k).repeat(lengths)
    # Tokens from each position to the end of its sample, itself included.
    left = lengths.cumsum().repeat(lengths) - np.arange(tokens.size)
    tok, n_tok = _dense_ranks(tokens)
    pos, gram, n_gram = np.arange(tokens.size), tok, n_tok
    # Order n's id at position i is the dense rank of (order n-1 id at i,
    # token at i+n-1): ids stay below the token count, so no key overflows.
    # Ids of order n are shifted past those of lower orders.
    grams, positions, bounds = [], [], []
    for n in range(1, n_max + 1):
        if n > 1:
            keep = left >= n
            pos, left, gram = pos[keep], left[keep], gram[keep]
            if pos.size == 0:
                break
            gram, n_gram = _dense_ranks(gram * n_tok + tok[pos + n - 1])
        offset = bounds[-1] if bounds else 0
        grams.append(gram + offset)
        positions.append(pos)
        bounds.append(offset + n_gram)
    # One run per (gram, sample) pair; its length is the sample's count.
    keys = np.concatenate(grams) * k + sample[np.concatenate(positions)]
    keys.sort()
    edges = _run_edges(keys)
    counts = edges[1:] - edges[:-1]
    run_gram, run_sample = np.divmod(keys[edges[:-1]], k)
    # Per gram: the largest count, how many samples hold it, and the largest
    # count below it. The best count in another sample is the largest one
    # unless this sample alone holds it.
    gram_edges = _run_edges(run_gram)
    gram_starts, runs = gram_edges[:-1], gram_edges[1:] - gram_edges[:-1]
    largest = np.maximum.reduceat(counts, gram_starts).repeat(runs)
    top = counts == largest
    holders = np.add.reduceat(top, gram_starts, dtype=np.intp).repeat(runs)
    below = np.maximum.reduceat(np.where(top, 0, counts), gram_starts).repeat(runs)
    best = np.where(top & (holders == 1), below, largest)
    cell = run_sample * n_max + np.array(bounds).searchsorted(run_gram, side="right")
    clipped = np.bincount(cell, np.minimum(counts, best), minlength=k * n_max)
    # Exact: the sums are integers far below 2**53.
    return clipped.astype(np.int64).reshape(k, n_max)


def _bleu(h: int, clipped: tuple[int, ...], ref_len: int) -> float:
    """BLEU of one sample of length ``h`` from its clipped counts of orders
    1..len(clipped): no smoothing, so a zero count scores 0."""
    if not clipped or 0 in clipped:
        return 0.0
    # Order n has h - n + 1 grams; clipped[n - 1] is its clipped count.
    log_precisions = [log(c / (h - n + 1)) for n, c in enumerate(clipped, 1)]
    precision = exp(sum(log_precisions) / len(log_precisions))
    bp = 1.0 if h >= ref_len else exp(1.0 - ref_len / h)
    return bp * precision


def self_bleu(samples, n_max: int = 4) -> float:
    """Mean BLEU of each sample against the other K-1 samples.

    ``samples`` is a ``(K, D)`` integer array or K sequences of integers of
    any lengths. Clipping needs only the best count of each n-gram among the
    other samples, which :func:`_clipped_counts` finds with sorts over all
    samples at once, so the cost is about linear in K. The scores are then
    computed in Python floats, once per distinct (length, clipped counts)
    row, since samples that share the row share the score.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        tokens = samples.ravel()
        lengths = np.full(len(samples), samples.shape[1])
    else:
        seqs = [list(s) for s in samples]
        tokens = np.array([t for s in seqs for t in s], dtype=np.int64)
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if lengths.size < 2:
        raise ValueError("self-BLEU needs at least 2 samples")
    if tokens.size == 0:
        return 0.0  # every sample is empty and scores 0
    rows = _clipped_counts(tokens, lengths, n_max).tolist()
    hyp_lengths = lengths.tolist()
    # Brevity penalty against the closest other length (ties -> shorter).
    others = Counter(hyp_lengths)
    ref_lens = {}
    for h in others:
        others[h] -= 1
        ref_lens[h] = min((abs(r - h), r) for r, m in others.items() if m)[1]
        others[h] += 1
    # Samples share few distinct (length, clipped counts) rows, and _bleu is
    # a pure function of them: each is scored once.
    keys = [(h, tuple(row[: min(n_max, h)])) for h, row in zip(hyp_lengths, rows)]
    scored = {(h, c): _bleu(h, c, ref_lens[h]) for h, c in dict.fromkeys(keys)}
    return _mean(np.array([scored[key] for key in keys], dtype=np.float64))


def diversity_score(samples) -> float:
    """1 - Self-BLEU of orders 1-4; 0 for identical samples, 1 for disjoint
    alphabets."""
    return 1.0 - self_bleu(samples)


def support_mass(P: np.ndarray, Q: np.ndarray, k: int) -> float:
    """Mean policy mass inside the reference Top-K over the ``(n, V)``
    policy and reference rows ``P`` and ``Q`` of n contexts, each summed in
    Top-K order (ties toward the lower token index)."""
    if not len(P):
        raise ValueError("no contexts given")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = (-Q).argsort(axis=1, kind="stable")[:, :k]
    members += np.arange(0, P.size, P.shape[1])[:, None]  # flat ids into P's rows
    return _mean(np.add.reduce(P.take(members), axis=1))


def kl_to_reference(P: np.ndarray, Q: np.ndarray) -> float:
    """Mean exact KL(policy || ref) over the ``(n, V)`` policy and
    reference rows of n contexts, each as
    :func:`~anchorlab.objectives.kl_penalty` sums it."""
    if not len(P):
        raise ValueError("no contexts given")
    pos = P > 0.0
    if np.logical_or.reduce((Q <= 0.0) & pos, axis=None):
        raise ValueError("reference assigns zero mass where the policy is positive")
    p = P[pos]
    return _mean(segment_sums(p * np.log(p / Q[pos]), np.add.reduce(pos, axis=1)))


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
    tokens, contexts, rewards, rows = rollout(tree, policy, rng.random((eval_k, tree.depth)))
    mean_ent, mean_maxp = entropy_and_maxprob(rows)
    visited = distinct(contexts.ravel())
    P, Q = policy.dist(visited), tree.ref_policy.dist(visited)
    return MetricRecord(
        step=step,
        # float(): repr of a numpy scalar would change the CSV under numpy 2.
        pass_at_1=_mean(rewards),
        pass_at_k=float(np.logical_or.reduce(rewards > 0)),
        mean_entropy=mean_ent,
        mean_max_prob=mean_maxp,
        diversity_score=diversity_score(tokens),
        support_mass=support_mass(P, Q, support_k),
        kl_to_ref=kl_to_reference(P, Q),
        eval_k=eval_k,
    )


@contextmanager
def atomic_open(path):
    """Open ``path`` for ASCII text output through a sibling temp file that
    replaces ``path`` only when the block completes: a write that raises
    leaves neither a partial file nor the temp file, and an earlier file at
    ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_metrics_csv(records, path, timestamp: str | None = None) -> None:
    """Write the fixed-header CSV, replacing ``path`` whole
    (:func:`atomic_open`); pass a timestamp string to prepend it as a
    comment line (suppressed for byte-identical reruns)."""
    with atomic_open(path) as fh:
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
