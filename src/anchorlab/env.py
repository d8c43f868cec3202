"""Synthetic reasoning trees with verifiable terminal rewards.

A tree of depth D and branching B has vocabulary V = B; every internal node
(prefix of length < D) is a context. A fixed subset of leaves is "valid":
a rollout earns reward 1 iff its D tokens form a valid leaf. The generated
reference policy gives a logit bonus to children that lead to at least one
valid leaf, plus Gaussian jitter, so it is informative but imperfect.

Context ids use heap indexing: root = 0, child(ctx, token) = ctx*B + token + 1,
so the C = (B^D - 1) / (B - 1) internal nodes are 0..C-1 in breadth-first
order and the reference policy is one dense (C, B) logit table. A rollout's
final heap context minus C is its leaf's lexicographic index, so rewards are
looked up in the tree's sorted valid leaf ids. A tree holds its valid set in
that one form, with each valid leaf's tokens and contexts, computed once when
it is built: the reference's bonus, coverage and :func:`verify` read those.
A batch of n rollouts is four arrays: ``(n, D)`` tokens, the ``(n, D)``
keys they were drawn at (for one table, their contexts), ``(n,)`` verified
rewards, and the ``(n, D, V)`` policy rows the tokens were sampled from.
The trainer's old rows and first pass, and an evaluation's entropy and
max-prob, read those rows instead of taking the softmax again. One
:func:`rollout` call also rolls out every cell of a
:class:`~anchorlab.policy.StackedTable` at once, each cell from its own
equal share of the uniform block's rows at its own keys, so a stack of
cells pays a rollout's numpy calls once per step, not once per cell.
The generated reference is the table :func:`generate_tree` built, handed
over without a copy. A tree's one name is its :class:`EnvConfig`, a spec's
``env``: the same config rebuilds the same bytes, so a tree is never saved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import LogitTable, check_float, check_int, distinct


@dataclass
class EnvConfig:
    depth: int
    branching: int
    num_valid_leaves: int
    ref_concentration: float = 1.5
    ref_noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("depth", 1), ("branching", 2), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        check_int("num_valid_leaves", self.num_valid_leaves)
        for name in ("ref_concentration", "ref_noise"):
            check_float(name, getattr(self, name))
        # Heap context ids and leaf ids are int64. With B >= 2 no tree of
        # depth 63 fits, and a smaller depth keeps the power below cheap.
        b, d = self.branching, self.depth
        if d >= 63 or (b ** (d + 1) - 1) // (b - 1) > np.iinfo(np.int64).max:
            raise ValueError(
                f"a tree of depth {d} and branching {b} has more than 2**63 - 1 "
                "nodes, the most that int64 node ids can number"
            )
        if not 1 <= self.num_valid_leaves <= self.branching**self.depth:
            raise ValueError(
                f"num_valid_leaves must be in [1, {self.branching**self.depth}], "
                f"got {self.num_valid_leaves}"
            )


class ReasoningTree:
    """A depth-D, B-ary tree and its valid leaves, given as ids in any order:
    ``valid_ids``, their sorted distinct lexicographic indices, and the
    ``(L, D)`` int64 ``valid_tokens`` (each id's base-B digits) and
    ``valid_contexts`` (the heap contexts they are drawn from)."""

    def __init__(self, depth: int, branching: int, valid_ids, ref_policy: LogitTable):
        self.depth = depth
        self.branching = branching
        self.ref_policy = ref_policy
        self.valid_ids = distinct(np.asarray(valid_ids, dtype=np.int64))
        # Column s of prefix is each leaf's length-(s + 1) prefix index; a length-s
        # prefix's context is its index plus the (B^s - 1) / (B - 1) nodes above.
        level, b = np.arange(depth, dtype=np.int64), branching
        prefix = self.valid_ids[:, None] // b ** (depth - 1 - level)
        self.valid_tokens = prefix % b
        self.valid_contexts = (b**level - 1) // (b - 1) + prefix // b

    ROOT = 0

    def child_context(self, ctx: int, token: int) -> int:
        return ctx * self.branching + token + 1

    def num_contexts(self) -> int:
        b, d = self.branching, self.depth
        return (b**d - 1) // (b - 1)


def generate_tree(cfg: EnvConfig) -> ReasoningTree:
    """Build a seeded tree: uniform choice of valid leaves, then reference
    logits = concentration * [child reaches a valid leaf] + noise * N(0, 1).

    Raises ValueError, naming both coefficients, when a logit or the
    spread between two logits is beyond the float64 range."""
    rng = np.random.default_rng(cfg.seed)
    b, d = cfg.branching, cfg.depth
    ids = rng.choice(b**d, size=cfg.num_valid_leaves, replace=False)

    # Row ctx of the reference is context ctx; rows 0..C-1 are the internal
    # nodes in breadth-first order, so one (C, B) draw fixes the rng stream.
    # The draw is made into the tree's table itself, then built in place.
    z = np.empty(((b**d - 1) // (b - 1), b))
    rng.standard_normal(out=z)
    tree = ReasoningTree(d, b, ids, LogitTable.adopt(z))
    with np.errstate(over="ignore", invalid="ignore"):
        z *= cfg.ref_noise
        z += 0.0  # a -0.0 becomes +0.0, as it does in the sum 0.0 + x
        # The flat (context, token) cells along the valid leaves' paths.
        z.ravel()[distinct((tree.valid_contexts * b + tree.valid_tokens).ravel())] += (
            cfg.ref_concentration)
        # Finite logits whose spread overflows would overflow the max
        # subtraction of a softmax.
        spread = np.maximum.reduce(z, axis=None) - np.minimum.reduce(z, axis=None)
    if not np.isfinite(spread):
        raise ValueError(
            f"ref_concentration {cfg.ref_concentration!r} and ref_noise {cfg.ref_noise!r} "
            "give reference logits beyond the float64 range"
        )
    # The spread is finite, so every logit of the tree's table, z itself, is.
    return tree


def verify(tree: ReasoningTree, tokens) -> int:
    """Binary verifiable reward: 1 iff ``tokens`` is a row of
    ``tree.valid_tokens``, the oracle for :func:`rollout`'s id lookup."""
    seq = tuple(int(t) for t in tokens)
    if len(seq) != tree.depth:
        raise ValueError(f"expected {tree.depth} tokens, got {len(seq)}")
    return int((tree.valid_tokens == seq).all(axis=1).any())


def rollout(
    tree: ReasoningTree, policy, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample one root-to-leaf rollout per row of the ``(n, D)`` uniform
    block ``u``: ``(tokens, keys, rewards, rows)``.

    Rollout i consumes row i of ``u``. With ``u = rng.random((n, D))`` that
    is the stream of n*D scalar :func:`~anchorlab.policy.sample_token`
    draws, so one call for G*n rollouts draws what G calls for n would.
    ``policy`` holds S = ``len(policy) // C`` cells, one for a
    :class:`~anchorlab.policy.LogitTable`; cell s of a
    :class:`~anchorlab.policy.StackedTable` rolls out the s-th n/S rows of
    ``u`` at keys ``s*C + ctx``, and ``keys`` holds each token's (for one
    table, its context). A block whose rows do not split evenly among the
    cells raises ValueError. A reward is 1 iff the final context minus C is
    one of ``tree.valid_ids``, which is :func:`verify` of the row. ``rows``
    is the ``(n, D, V)`` stack of the distributions each token was drawn
    from, bitwise the policy's ``dist`` at them, so callers that need the
    policy at the visited keys read it here instead of taking the softmax
    again. Each step's CDF and token counts run across the rows of a
    transposed copy; the CDF still adds left to right, bitwise a row cumsum.
    """
    n, d, b, v = len(u), tree.depth, tree.branching, policy.vocab_size
    c = tree.num_contexts()
    per_cell, rest = divmod(n, len(policy) // c)
    if rest:
        raise ValueError(f"{n} rollouts do not split evenly among {len(policy) // c} cells")
    base = np.arange(0, len(policy), c).repeat(per_cell)  # each row's cell times C
    tokens = np.empty((n, d), dtype=np.int64)
    keys = np.empty((n, d), dtype=np.int64)
    rows = np.empty((n, d, v))
    ctx = np.zeros(n, dtype=np.int64)  # the root
    for step in range(d):
        key = base + ctx
        dist = policy.dist(key)
        rows[:, step] = dist
        # searchsorted(side="right") per row, clamped to V - 1 as in
        # sample_token. A cumsum of non-negative terms never decreases, so
        # counting over its first V - 1 entries is that clamp: the count
        # over all V is at most one more, and only when every entry counts.
        cdf = np.add.accumulate(dist.T[:-1].copy(), axis=0)
        tok = np.add.reduce(cdf <= u[:, step], axis=0)
        keys[:, step] = key
        tokens[:, step] = tok
        ctx = ctx * b + tok + 1  # tree.child_context, inline
    leaf = ctx - c
    ids = tree.valid_ids
    # Ids are distinct: the count of leaf in ids is 0 or 1.
    rewards = ids.searchsorted(leaf, side="right") - ids.searchsorted(leaf)
    return tokens, keys, rewards, rows


def oracle_coverage(
    tree: ReasoningTree, model: LogitTable, k_values
) -> dict[int, float]:
    """Teacher-forced Top-K recall of the true next token over valid leaves.

    For every valid leaf and every step, feed the ground-truth prefix and
    check whether the true next token lands in the model's Top-K; recall is
    the hit fraction over all (leaf, step) pairs, the cells of the tree's
    ``valid_contexts`` and ``valid_tokens``. The pairs are scored in one
    pass: the true token's rank is the count of tokens ahead of it under
    :func:`~anchorlab.anchor.top_k`'s order, a higher probability or an
    equal one at a lower index, and it is a hit at every K above that.
    """
    ks = sorted(set(int(k) for k in k_values))
    b = tree.branching
    if not ks or ks[0] < 1 or ks[-1] > b:
        raise ValueError(f"k_values must lie in [1, {b}], got {ks}")
    t = tree.valid_tokens.reshape(-1, 1)
    p = model.dist(tree.valid_contexts.ravel())
    p_t = np.take_along_axis(p, t, axis=1)
    rank = np.add.reduce((p > p_t) | ((p == p_t) & (np.arange(b) < t)), axis=1)
    return {k: int(np.count_nonzero(rank < k)) / t.size for k in ks}
