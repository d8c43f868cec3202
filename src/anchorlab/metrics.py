"""Evaluation metrics: pass rates, distributional health, diversity, coverage.

Diversity Score is 1 - Self-BLEU of orders 1-4. Self-BLEU scores each
sample of a ``(K, D)`` rollout block against the other K-1 as references
using modified (clipped) n-gram precision, a geometric mean over orders
n = 1..min(4, D) with no smoothing (any zero precision zeroes the score).
Every sample has length D, so BLEU's length penalty is 1 and is left out.
Entropy is reported in nats.

Self-BLEU is counted with integer array operations over every sample of
every cell of a stack at once. Each n-gram gets a dense id, one order at a
time: order 1 ranks the tokens, and cell s's ranks are shifted by s times
their number, so no n-gram of one cell shares an id with another cell's;
order n ranks the pair (order n-1 id, next token), so ids stay below S
times the token count whatever the token values. One sort of
``id * S*K + sample`` gives every (n-gram, sample) count; each sample's
count is clipped by the best count held by another sample of its cell, and
the clipped counts are summed per sample and order. Only the per-sample
logs and geometric mean are floating point, evaluated in Python as the
pairwise definition does, so scores are bitwise those of the pairwise
loops.

Evaluation reads every cell of a stack in one call, by key, in place (no
copy of the table): one rollout draws every cell's K samples, each cell
from its own evaluation stream. Each metric is computed once for the whole
stack: entropy and max-prob per visited step, from the ``(S*K, D, V)``
rows the rollout sampled from; reward and BLEU per sample; support mass
and KL per distinct visited key. A cell's record holds the means over its
own contiguous slices: one row-wise sum over the ``(S, n)`` block for the
equal slices of steps and samples, one mean per cell for the keys.
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
from .objectives import kl_rows
from .policy import StackedTable, distinct, segment_sums, uniform_block

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


def _means(x: np.ndarray, cells: int) -> list[float]:
    """:func:`_mean` of each of ``cells`` equal consecutive slices of the
    1-D float64 or 0/1 integer array ``x``, bit for bit: numpy sums each row
    of the ``(cells, n)`` block pairwise, as it sums a 1-D slice, and sums
    of 0s and 1s are exact in either type."""
    x = x.reshape(cells, -1)
    return (np.add.reduce(x, axis=1) / x.shape[1]).tolist()


def entropy_and_maxprob(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy (nats) and max-probability of each ``(V,)`` row of the
    ``(..., V)`` array ``rows``, flattened in order: of a rollout's rows,
    one of each per visited step. The maxima and the positive-entry counts
    are one pass across the rows of a transposed copy; the entropy sums
    stay along each row (:func:`~anchorlab.policy.segment_sums`)."""
    rows = rows.reshape(-1, rows.shape[-1])
    # Entropy sums p*log(p) over each row's positive entries, 0*log(0) := 0.
    pos = rows > 0.0
    nz = rows[pos]
    # 0.0 - s, not -s: a one-hot row's entropy is +0.0, not -0.0.
    ents = 0.0 - segment_sums(nz * np.log(nz), np.add.reduce(pos.T.copy(), axis=0))
    return ents, np.maximum.reduce(rows.T.copy(), axis=0)


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
    new = np.empty(keys.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    return new.nonzero()[0]


def _clipped_counts(tokens: np.ndarray, cells: int) -> np.ndarray:
    """``(K, min(4, D))`` integer array of a ``(K, D)`` integer array,
    D >= 1, whose rows are ``cells`` equal blocks of samples: entry
    ``[k, n - 1]`` sums, over the distinct n-grams of sample k, min(its
    count, the largest count of that n-gram in any other sample of its
    block)."""
    k, d = tokens.shape
    orders = min(4, d)
    tok, n_tok = _dense_ranks(tokens.ravel())
    tok = tok.reshape(k, d)
    # Block s's token ids are shifted by s * n_tok, so no n-gram id of one
    # block is another's and no block's counts clip another's.
    gram, n_gram = tok + np.arange(cells).repeat(k // cells)[:, None] * n_tok, cells * n_tok
    # Order n's id at (sample, i) is the dense rank of (order n-1 id at i,
    # token at i+n-1): ids stay below cells times the token count, so no
    # key overflows. Ids of order n are shifted past those of lower orders.
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


def self_bleu(tokens: np.ndarray, cells: int) -> list[float]:
    """Self-BLEU of each of ``cells`` equal blocks of the ``(cells*K, D)``
    integer array ``tokens``, K >= 2 and D >= 1: the mean BLEU of each row
    of a block against the other K-1 rows of that block.

    Clipping needs only the best count of each n-gram among the other
    samples, which :func:`_clipped_counts` finds with one sort over every
    block's samples, so the cost is about linear in the number of rows. The
    scores are then computed in Python floats, once per distinct row of
    clipped counts, since samples that share the row share the score.
    """
    n, d = tokens.shape
    k, rest = divmod(n, cells)
    if k < 2 or rest or d < 1:
        raise ValueError(f"self-BLEU needs {cells} blocks of at least 2 samples of at least "
                         f"1 token, got shape {tokens.shape}")
    rows = list(map(tuple, _clipped_counts(tokens, cells).tolist()))
    scored = {row: _bleu(d, row) for row in set(rows)}
    return _means(np.array([scored[row] for row in rows], dtype=np.float64), cells)


def support_mass(P: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    """Policy mass inside the reference Top-K of each of n contexts, from
    their ``(n, V)`` policy and reference rows ``P`` and ``Q``, each summed
    in Top-K order (ties toward the lower token index)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = (-Q).argsort(axis=1, kind="stable")[:, :k]
    members += np.arange(0, P.size, P.shape[1])[:, None]  # flat ids into P's rows
    return np.add.reduce(P.take(members), axis=1)


def kl_to_reference(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Exact KL(policy || ref) of each of n contexts, from their ``(n, V)``
    policy and reference rows, each as
    :func:`~anchorlab.objectives.kl_penalty` sums it."""
    if np.logical_or.reduce((Q <= 0.0) & (P > 0.0), axis=None):
        raise ValueError("reference assigns zero mass where the policy is positive")
    return kl_rows(P, Q)[1]


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
    ``support_k`` defaults to half the vocabulary (at least 1), and must be
    in [1, B]: a wider Top-K would hold every token and score support mass
    1.0 whatever the policy. Entropy and max-prob average over visited
    steps, support mass and KL over the set of distinct visited contexts.
    ``table`` is read in place, not copied, so nothing may write to it
    during the call.
    """
    if eval_k < 2:
        raise ValueError(f"eval_k must be >= 2 (diversity needs it), got {eval_k}")
    if support_k is None:
        support_k = max(1, tree.branching // 2)
    elif not 1 <= support_k <= tree.branching:
        raise ValueError(f"support_k must be in [1, {tree.branching}], got {support_k}")
    cells, c = len(rngs), table.contexts
    u = uniform_block(cells * eval_k, tree.depth)
    for s, rng in enumerate(rngs):
        rng.random(out=u[s * eval_k:(s + 1) * eval_k])
    base = np.arange(0, cells * c, c).repeat(eval_k)
    tokens, contexts, rewards, rows = rollout(tree, table, u, base)
    # Sorted keys: cell s's distinct visited contexts are one run, in order.
    keys = distinct((contexts + base[:, None]).ravel())
    P, Q = table.dist(keys), tree.ref_policy.dist(keys % c)
    edges = keys.searchsorted(np.arange(0, (cells + 1) * c, c)).tolist()
    mass, kl = ([_mean(x[lo:hi]) for lo, hi in zip(edges, edges[1:])]
                for x in (support_mass(P, Q, support_k), kl_to_reference(P, Q)))
    ents, maxps = entropy_and_maxprob(rows)
    hits = np.logical_or.reduce(rewards.reshape(cells, eval_k) > 0, axis=1).tolist()
    columns = zip(_means(rewards, cells), hits, _means(ents, cells), _means(maxps, cells),
                  self_bleu(tokens, cells), mass, kl)
    # Python floats: repr of a numpy scalar or a bool would change the CSV.
    return [MetricRecord(step, p1, float(hit), ent, maxp, 1.0 - bleu, sm, kl_s, eval_k)
            for p1, hit, ent, maxp, bleu, sm, kl_s in columns]


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
