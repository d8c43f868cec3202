"""Evaluation metrics: pass rates, distributional health, diversity, coverage.

Diversity Score is 1 - Self-BLEU of orders 1-4. Self-BLEU scores each
sample of a ``(K, D)`` rollout block against the other K-1 as references
using modified (clipped) n-gram precision, a geometric mean over orders
n = 1..min(4, D) with no smoothing (any zero precision zeroes the score).
Every sample has length D, so BLEU's length penalty is 1 and is left out.
Entropy is reported in nats.

Self-BLEU is counted with integer array operations over all K samples at
once. Each n-gram gets a dense id, one order at a time: order 1 ranks the
tokens, order n ranks the pair (order n-1 id, next token), so ids stay below
the token count whatever the token values. One sort of ``id * K + sample``
gives every (n-gram, sample) count; each sample's count is clipped by the
best count held by another sample, and the clipped counts are summed per
sample and order. Only the per-sample logs and geometric mean are floating
point, evaluated in Python as the pairwise definition does, so scores are
bitwise those of the pairwise loops.

Evaluation reads every cell of a stack in one call, by key, in place (no
copy of the table): one rollout draws every cell's K samples, each cell
from its own evaluation stream. Entropy and max-prob come from the
``(S*K, D, V)`` rows the rollout sampled from, one per visited step, with
no second softmax; support mass and KL come from one policy softmax and
one reference softmax over the sorted distinct visited keys. Each cell's
record is then computed from its own contiguous slices of these arrays.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from math import exp, isfinite, log
from pathlib import Path

import numpy as np

from .env import ReasoningTree, rollout
from .policy import StackedTable, distinct, segment_sums

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


def _clipped_counts(tokens: np.ndarray) -> np.ndarray:
    """``(K, min(4, D))`` integer array of a ``(K, D)`` integer array, D >= 1:
    entry ``[k, n - 1]`` sums, over the distinct n-grams of sample k,
    min(its count, the largest count of that n-gram in any other sample)."""
    k, d = tokens.shape
    orders = min(4, d)
    tok, n_tok = _dense_ranks(tokens.ravel())
    tok = tok.reshape(k, d)
    gram, n_gram = tok, n_tok
    # Order n's id at (sample, i) is the dense rank of (order n-1 id at i,
    # token at i+n-1): ids stay below the token count, so no key overflows.
    # Ids of order n are shifted past those of lower orders.
    keys, bounds = [], [0]
    for n in range(1, orders + 1):
        if n > 1:
            gram, n_gram = _dense_ranks((gram[:, :-1] * n_tok + tok[:, n - 1:]).ravel())
            gram = gram.reshape(k, d - n + 1)
        keys.append(((gram + bounds[-1]) * k + np.arange(k)[:, None]).ravel())
        bounds.append(bounds[-1] + n_gram)
    # One run per (gram, sample) pair; its length is the sample's count.
    keys = np.concatenate(keys)
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
    cell = run_sample * orders + np.array(bounds[1:]).searchsorted(run_gram, side="right")
    clipped = np.bincount(cell, np.minimum(counts, best), minlength=k * orders)
    # Exact: the sums are integers far below 2**53.
    return clipped.astype(np.int64).reshape(k, orders)


def _bleu(d: int, clipped: tuple[int, ...]) -> float:
    """BLEU of one sample of length ``d`` from its clipped counts of orders
    1..len(clipped): no smoothing, so a zero count scores 0."""
    if 0 in clipped:
        return 0.0
    # Order n has d - n + 1 grams; clipped[n - 1] is its clipped count.
    log_precisions = [log(c / (d - n + 1)) for n, c in enumerate(clipped, 1)]
    return exp(sum(log_precisions) / len(log_precisions))


def self_bleu(tokens: np.ndarray) -> float:
    """Mean BLEU of each row of a ``(K, D)`` integer array against the other
    K-1 rows, K >= 2 and D >= 1.

    Clipping needs only the best count of each n-gram among the other
    samples, which :func:`_clipped_counts` finds with sorts over all samples
    at once, so the cost is about linear in K. The scores are then computed
    in Python floats, once per distinct row of clipped counts, since samples
    that share the row share the score.
    """
    k, d = tokens.shape
    if k < 2 or d < 1:
        raise ValueError(f"self-BLEU needs at least 2 samples of at least 1 token, "
                         f"got shape {tokens.shape}")
    rows = list(map(tuple, _clipped_counts(tokens).tolist()))
    scored = {row: _bleu(d, row) for row in set(rows)}
    return _mean(np.array([scored[row] for row in rows], dtype=np.float64))


def diversity_score(tokens: np.ndarray) -> float:
    """1 - Self-BLEU of orders 1-4 of a ``(K, D)`` integer array; 0 for
    identical samples, 1 for disjoint alphabets."""
    return 1.0 - self_bleu(tokens)


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
    table: StackedTable,
    tree: ReasoningTree,
    step: int,
    eval_k: int,
    rngs: list[np.random.Generator],
    support_k: int | None = None,
) -> list[MetricRecord]:
    """Roll out ``eval_k`` samples of every cell of ``table`` from the root
    and summarize each cell's: returns one record per cell, in order.

    Cell s draws its ``(eval_k, D)`` uniform block from ``rngs[s]``.
    ``support_k`` defaults to half the vocabulary (at least 1); entropy and
    max-prob average over visited steps, support mass and KL over the set of
    distinct visited contexts. ``table`` is read in place, not copied, so
    nothing may write to it during the call.
    """
    if eval_k < 2:
        raise ValueError(f"eval_k must be >= 2 (diversity needs it), got {eval_k}")
    if support_k is None:
        support_k = max(1, tree.branching // 2)
    cells, c = len(rngs), table.contexts
    u = np.empty((cells * eval_k, tree.depth))
    for s, rng in enumerate(rngs):
        rng.random(out=u[s * eval_k:(s + 1) * eval_k])
    base = np.arange(0, cells * c, c).repeat(eval_k)
    tokens, contexts, rewards, rows = rollout(tree, table, u, base)
    # Sorted keys: cell s's distinct visited contexts are one run, in order.
    keys = distinct((contexts + base[:, None]).ravel())
    P, Q = table.dist(keys), tree.ref_policy.dist(keys % c)
    edges = keys.searchsorted(np.arange(0, (cells + 1) * c, c)).tolist()
    out = []
    for s in range(cells):
        lo, hi = s * eval_k, (s + 1) * eval_k
        mean_ent, mean_maxp = entropy_and_maxprob(rows[lo:hi])
        cell_p, cell_q = P[edges[s]:edges[s + 1]], Q[edges[s]:edges[s + 1]]
        out.append(MetricRecord(
            step=step,
            # float(): repr of a numpy scalar would change the CSV under numpy 2.
            pass_at_1=_mean(rewards[lo:hi]),
            pass_at_k=float(np.logical_or.reduce(rewards[lo:hi] > 0)),
            mean_entropy=mean_ent,
            mean_max_prob=mean_maxp,
            diversity_score=diversity_score(tokens[lo:hi]),
            support_mass=support_mass(cell_p, cell_q, support_k),
            kl_to_ref=kl_to_reference(cell_p, cell_q),
            eval_k=eval_k,
        ))
    return out


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
    for i, row in enumerate(reader, 1):
        if len(row) != len(METRIC_FIELD_NAMES):
            raise ValueError(f"metrics row has {len(row)} fields, expected "
                             f"{len(METRIC_FIELD_NAMES)}: {row}")
        values = [float(x) for x in row[1:-1]]
        if not all(map(isfinite, values)):
            raise ValueError(f"metrics row {i} holds a non-finite value: {row}")
        records.append(MetricRecord(int(row[0]), *values, int(row[-1])))
    return records


METRIC_FIELD_NAMES = [f.name for f in fields(MetricRecord)]
