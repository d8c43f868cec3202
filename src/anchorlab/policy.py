"""Tabular softmax policies over enumerated contexts.

A policy is a dense ``(C, V)`` logit array over the C heap-indexed contexts
of a tree and a fixed vocabulary of size V; row ``ctx`` is context ``ctx``.
Distributions are plain numpy arrays of length V (``(n, V)`` for a vector
of contexts). A :class:`LogitTable` is the fixed reference policy and has
no writer. The live policies of the cells that train together on one
tree are one :class:`StackedTable`: one copy of the table they start
from, a row map, and a private copy of each row a cell has updated, so S
cells cost one table plus the rows they write, not S tables. The stack is
read and written only by key, cell s's context ``ctx`` being key
``s * C + ctx``; :meth:`StackedTable.cell` copies one cell out as a dense
table, for tests and dumps. A stack with room for every key also keeps
each row's softmax beside its logits, so reading it, or its start table,
is a gather. The trainer keeps the sampling policy's rows of each batch,
not a copy of the table.
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
    logits already known finite (a :class:`LogitTable`'s rows). The
    subtraction makes the one new array and the rest runs in place on it,
    never on ``z``, which belongs to the caller. The maxima are one pass
    across the rows of a transposed copy, far faster than numpy's reduction
    along each short row; they can differ only in the sign of a zero, which
    ``exp`` maps to 1.0. The normaliser stays a pairwise sum along the row."""
    e = z - np.maximum.reduce(z.T.copy(), axis=0).T[..., None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def segment_layout(counts: np.ndarray, index: np.ndarray | None = None) -> tuple:
    """The lab's one rule for sums over parts of probability rows, laid out
    once: consecutive segments of lengths ``counts`` of the terms ``index``
    (default 0, 1, 2, ...) in the scalar kernel's order, as one ``(rows,
    table)`` pair per distinct length m, the ids of its segments and the
    ``(r, m)`` flat positions of their terms, which :func:`layout_sums` sums
    as the rows of a block: numpy sums 8 or more terms pairwise, so a
    masked or zero-padded full-row sum would differ in the last bits."""
    starts = counts.cumsum() - counts
    layout = []
    for m in set(counts.tolist()):
        rows = (counts == m).nonzero()[0]
        at = starts[rows, None] + np.arange(m)
        layout.append((rows, at if index is None else index.take(at)))
    return tuple(layout)


def layout_sums(values: np.ndarray, layout: tuple) -> np.ndarray:
    """Each segment's sum of ``values`` (flattened) at the positions of a
    :func:`segment_layout`, bitwise their ``.sum()``; an empty one is 0.0."""
    out = np.empty(sum(rows.size for rows, _ in layout))
    for rows, table in layout:
        out[rows] = np.add.reduce(values.take(table), axis=1)
    return out


def segment_sums(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive segments of the 1-D array ``flat`` with lengths
    ``counts``: one :func:`segment_layout`, built and summed once, or one
    reshape when every segment has one length."""
    if counts.size and np.logical_and.reduce(counts == counts[0]):
        return np.add.reduce(flat.reshape(counts.size, counts[0]), axis=1)
    return layout_sums(flat, segment_layout(counts))


def distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array in ascending order, as
    ``np.unique`` returns them without importing numpy.ma as it does: a
    sort of a copy and a compress, a few numpy calls whatever the size."""
    out = ids.copy()
    out.sort()
    first = np.empty(out.size, dtype=bool)
    first[:1] = True
    np.not_equal(out[1:], out[:-1], out=first[1:])
    return out.compress(first)


def uniform_block(rngs: list[np.random.Generator], n: int, depth: int) -> np.ndarray:
    """The float64 ``(S*n, depth)`` uniform block of S cells: cell s's n
    rows, the s-th, drawn from its stream ``rngs[s]``. A shape numpy cannot
    even represent raises MemoryError, as one too large to allocate does,
    before any stream is drawn."""
    try:
        u = np.empty((len(rngs) * n, depth))
    except ValueError as exc:
        raise MemoryError(str(exc)) from exc
    for s, rng in enumerate(rngs):
        rng.random(out=u[s * n:(s + 1) * n])
    return u


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
    return float(0.0 - (nz * np.log(nz)).sum())  # +0.0, not -0.0, for a one-hot row


class LogitTable:
    """Dense logit table: row ``ctx`` of one finite float64 ``(C, V)`` array
    holds the logits of heap context ``ctx`` (root 0, contexts 0..C-1).
    Context ids are not range-checked on access: as in numpy, a negative id
    counts from the last row. A table has no writer. While it is the start
    table of a :class:`StackedTable` that mirrors, ``dist`` gathers the
    stack's softmax rows instead of taking the softmax again.
    """

    _p: np.ndarray | None = None  # the (C, V) softmax rows, when a stack mirrors them

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

    def logits(self, ctx: ContextId) -> np.ndarray:
        view = self._z[ctx]
        view.flags.writeable = False
        return view

    def dist(self, ctx: ContextId | np.ndarray) -> np.ndarray:
        """Distribution at ``ctx``, or an ``(n, V)`` stack for a vector of ids;
        the rows are finite by construction, so they are not re-checked."""
        if self._p is not None:
            return self._p.take(ctx, axis=0)
        return _softmax_rows(self._z.take(ctx, axis=0))

    def copy(self) -> "LogitTable":
        return LogitTable.adopt(self._z.copy())

    @staticmethod
    def adopt(z: np.ndarray) -> "LogitTable":
        """A table over ``z`` itself, neither copied nor checked: for a
        float64 ``(C, V)`` array its maker has already shown finite and
        hands over."""
        out = object.__new__(LogitTable)
        out._z = z
        return out


class StackedTable:
    """The policies of S cells that start from one table, copy-on-write.

    Cell s's context ``ctx`` is key ``s * C + ctx``. One float64 array holds
    the start table in rows 0..C-1 and after them room for ``capacity``
    private rows (every key's, by default); the ``(S*C,)`` row map sends
    each key to its row, at first its context's start row. A cell's first
    update of a context appends a private copy of that row and points the
    key at it. So the start rows are never written, a context a cell never
    updated reads the start row, and no cell sees another's update. The
    memory is one start table, the row map and the rows the cells write:
    the reserved rows are left uninitialized until a cell writes them. The
    start table itself then reads the stack's copy of its rows, read-only,
    so the stack adds no second copy of it and nothing can write it.

    A stack whose capacity covers every key (``S*C`` private rows) mirrors
    its rows: a second array of the same shape holds each row's softmax,
    filled for the start rows at construction and for the rows
    :meth:`add_to_logits` writes when it writes them, so :meth:`dist` is a
    gather and a row's softmax is taken once per write, not once per read.
    The start table then gathers its distributions from the mirror too.
    A stack with less room keeps the softmax on read: mirroring its start
    table would take the softmax of every context, of which a short run
    reads a few.
    """

    def __init__(self, start: LogitTable, cells: int, capacity: int | None = None):
        check_int("cells", cells, 1)
        c = len(start)
        capacity = cells * c if capacity is None else min(capacity, cells * c)
        self._z = np.empty((c + capacity, start.vocab_size))
        self._z[:c] = start._z
        # From here ``start`` reads the stack's copy, read-only, so one copy
        # of the start table stays alive, not two, and it cannot be written.
        start._z = self._z[:c]
        start._z.flags.writeable = False
        # It reads this stack's mirror too, or none: a view of an earlier
        # stack's mirror would keep that whole array alive.
        self._p = start._p = None
        if capacity == cells * c:
            self._p = np.empty_like(self._z)
            self._p[:c] = _softmax_rows(start._z)
            start._p = self._p[:c]
            start._p.flags.writeable = False
        rows = np.arange(c, dtype=np.int32 if c + capacity <= 2**31 - 1 else np.intp)
        self._map = np.tile(rows, cells)
        self._c = c
        self._used = c  # rows in use: the start table and the private rows

    @property
    def vocab_size(self) -> int:
        return self._z.shape[1]

    @property
    def contexts(self) -> int:
        """C, the contexts of each cell."""
        return self._c

    def __len__(self) -> int:
        return self._map.size

    def dist(self, keys: np.ndarray) -> np.ndarray:
        """The ``(n, V)`` distributions at a vector of keys, or the one at
        a single key."""
        rows = self._map.take(keys)
        if self._p is not None:
            return self._p.take(rows, axis=0)
        return _softmax_rows(self._z.take(rows, axis=0))

    def add_to_logits(self, keys: np.ndarray, delta: np.ndarray) -> None:
        """Add the ``(n, V)`` block ``delta`` to the rows of n distinct keys,
        copying a key's start row to a private row first; nothing changes
        unless every updated logit is finite and the new rows fit."""
        rows = self._map.take(keys)
        updated = self._z.take(rows, axis=0)
        d = np.asarray(delta, dtype=np.float64)
        if d.shape != updated.shape:
            raise ValueError(f"logit delta must have shape {updated.shape}, got {d.shape}")
        updated += d
        finite = np.isfinite(updated)
        if not np.logical_and.reduce(finite, axis=None):
            bad = keys[~finite.all(axis=1)][0]
            raise ValueError(f"logit update at key {bad} produced non-finite values")
        fresh = rows < self._c
        if np.logical_or.reduce(fresh):
            owners = keys.compress(fresh)
            end = self._used + owners.size
            if end > len(self._z):
                raise ValueError(f"no room for {owners.size} more private rows: "
                                 f"{len(self._z) - self._used} of the capacity are left")
            new = np.arange(self._used, end, dtype=rows.dtype)
            rows[fresh] = new
            self._map[owners] = new
            self._used = end
        self._z[rows] = updated
        if self._p is not None:
            self._p[rows] = _softmax_rows(updated)

    def cell(self, s: int) -> LogitTable:
        """Cell s's policy as a dense :class:`LogitTable` of its own: a
        copy, so later updates of the stack do not reach it."""
        return LogitTable.adopt(self._z.take(self._map[s * self._c:(s + 1) * self._c], axis=0))


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
