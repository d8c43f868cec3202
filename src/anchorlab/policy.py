"""Tabular softmax policies over enumerated contexts.

A policy is a dense ``(C, V)`` logit array over the C heap-indexed contexts
of a tree and a fixed vocabulary of size V; row ``ctx`` is context ``ctx``.
Distributions are plain numpy arrays of length V (``(n, V)`` for a vector
of contexts). Two instances of :class:`LogitTable` play the roles of the
live policy and the fixed reference policy; the trainer keeps the sampling
policy's rows of each batch, not a copy of the table.
Logits are checked finite when set, so every softmax row is a valid
distribution and hot loops do not re-check it.

Randomness contract: every sampling function takes a ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``). Sampling is inverse-CDF over the
cumulative distribution, so a fixed seed yields a bit-identical token stream
on any platform; batched rollouts (``env.rollout``) draw the same stream.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

# Tokens and contexts are plain non-negative ints; distributions are
# float64 arrays of length V.
VocabId = int
ContextId = int

DIST_ATOL = 1e-9


def softmax(logits: Iterable[float] | np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax (max-subtraction before exp) along the
    last axis of a 1-D logit vector or a 2-D stack of rows; each row of a
    2-D result is bitwise the 1-D result for that row.

    Raises ValueError on non-finite input.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise ValueError(f"logits must be a nonempty 1-D or 2-D array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite values")
    return _softmax_rows(z)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """The arithmetic of :func:`softmax`, without its checks, for float64
    logits already known finite (a :class:`LogitTable`'s rows)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def segment_sums(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive segments of the last axis of ``flat``, with
    lengths ``counts``; each is bitwise the 1-D ``.sum()`` of its segment.

    This is the lab's one rule for a sum over part of a probability row:
    the row's subset compressed in the order the scalar kernel takes it,
    then summed. numpy sums 8 or more terms pairwise, so a masked or
    zero-padded full-row sum would differ in the last bits; segments of
    one length m are summed as rows of an ``(r, m)`` block instead. Leading
    axes of ``flat`` are kept, so sums that share ``counts`` take one call.
    """
    lead = flat.shape[:-1]
    if counts.size and (counts == counts[0]).all():
        return flat.reshape(*lead, counts.size, counts[0]).sum(axis=-1)
    starts = np.cumsum(counts) - counts
    out = np.empty((*lead, counts.size))
    for m in set(counts.tolist()):
        rows = np.flatnonzero(counts == m)
        # take() lays the block out C-contiguous; flat[..., idx] with a
        # leading axis would not, and numpy would sum it in another order.
        out[..., rows] = np.take(flat, starts[rows, None] + np.arange(m), axis=-1).sum(axis=-1)
    return out


def check_dist(probs: np.ndarray, atol: float = DIST_ATOL) -> np.ndarray:
    """Validate a probability vector: nonnegative, sums to 1 within atol."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"distribution must be a nonempty 1-D array, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution contains non-finite values")
    if np.any(p < 0.0):
        raise ValueError("distribution contains negative probabilities")
    total = p.sum()
    if abs(total - 1.0) > atol:
        raise ValueError(f"distribution sums to {total!r}, expected 1 within {atol}")
    return p


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise TypeError unless ``value`` is an integer (a bool, or a float
    such as 4.0, is not) and ValueError if it is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_float(name: str, value, positive: bool = False) -> None:
    """Raise TypeError unless ``value`` is a real number (an integer counts,
    a bool does not) and ValueError unless it is finite and ``>= 0``, or
    ``> 0`` when ``positive``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be {'>' if positive else '>='} 0, got {value}")


def sample_token(dist: np.ndarray, rng: np.random.Generator) -> VocabId:
    """Draw one token index from ``dist`` via inverse-CDF sampling.

    Zero-probability tokens are never returned; identical generator state
    yields identical draws.
    """
    p = check_dist(dist)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    # Guard against u landing beyond the last cumulative value by round-off.
    return min(idx, p.size - 1)


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy in nats, with 0*log(0) := 0."""
    p = np.asarray(dist, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


class LogitTable:
    """Dense logit table: row ``ctx`` of one finite float64 ``(C, V)`` array
    holds the logits of heap context ``ctx`` (root 0, contexts 0..C-1).
    Context ids are not range-checked on access: as in numpy, a negative id
    counts from the last row. A table must not be mutated during shared
    reads.
    """

    def __init__(self, z: np.ndarray):
        z = np.array(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] < 1:
            raise ValueError(f"logits must be a (C, V) array with V >= 1, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("logits contain non-finite values")
        self._z = z

    @property
    def vocab_size(self) -> int:
        return self._z.shape[1]

    def __len__(self) -> int:
        return self._z.shape[0]

    def add_to_logits(self, ctx: ContextId | np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` to the logits at ``ctx``, or an ``(n, V)`` block to
        the rows of a vector of distinct ids; nothing changes unless every
        updated logit is finite."""
        rows = self._z[ctx]
        d = np.asarray(delta, dtype=np.float64)
        if d.shape != rows.shape:
            raise ValueError(f"logit delta must have shape {rows.shape}, got {d.shape}")
        updated = rows + d
        finite = np.isfinite(updated)
        if not np.all(finite):
            bad = ctx if finite.ndim == 1 else np.asarray(ctx)[~finite.all(axis=1)][0]
            raise ValueError(f"logit update at context {bad} produced non-finite values")
        self._z[ctx] = updated

    def logits(self, ctx: ContextId) -> np.ndarray:
        view = self._z[ctx]
        view.flags.writeable = False
        return view

    def dist(self, ctx: ContextId | np.ndarray) -> np.ndarray:
        """Distribution at ``ctx``, or an ``(n, V)`` stack for a vector of ids;
        the rows are finite by construction, so they are not re-checked."""
        return _softmax_rows(self._z[ctx])

    def copy(self) -> "LogitTable":
        out = object.__new__(LogitTable)  # the source array is already checked
        out._z = self._z.copy()
        return out


def dump_logit_table(table: LogitTable) -> str:
    """Serialize to the line format ``V=<int>`` then one ``ctx=<id> z=<v0>,<v1>,...``
    line per row, ``ctx=0..C-1`` in order.

    Values use Python's shortest round-trip float repr, which preserves every
    bit on reload (equivalent to 17 significant decimal digits).
    """
    lines = [f"V={table.vocab_size}"]
    for ctx in range(len(table)):
        z = table.logits(ctx)
        lines.append(f"ctx={ctx} z=" + ",".join(repr(float(v)) for v in z))
    return "\n".join(lines) + "\n"


def load_logit_table(text: str) -> LogitTable:
    """Parse the :func:`dump_logit_table` format back into a table.

    Rows must be ``ctx=0..C-1`` in order, each with exactly V values.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("V="):
        raise ValueError("logit table text must start with a 'V=<int>' header")
    v = int(lines[0][2:])
    rows = []
    for ln in lines[1:]:
        if not ln.startswith("ctx="):
            raise ValueError(f"malformed logit table line: {ln!r}")
        head, _, tail = ln.partition(" z=")
        if int(head[4:]) != len(rows):
            raise ValueError(f"expected row ctx={len(rows)}, got {head!r}")
        values = [float(x) for x in tail.split(",")]
        if len(values) != v:
            raise ValueError(f"row {head!r} has {len(values)} values, expected V={v}")
        rows.append(values)
    return LogitTable(np.array(rows, dtype=np.float64).reshape(len(rows), v))
