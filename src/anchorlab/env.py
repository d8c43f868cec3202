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
looked up in the tree's sorted valid leaf ids.
A batch of n rollouts is four arrays: ``(n, D)`` tokens, the ``(n, D)``
contexts they were drawn from, ``(n,)`` verified rewards, and the
``(n, D, V)`` policy rows the tokens were sampled from. The trainer's old
rows and first pass, and an evaluation's entropy and max-prob, read those
rows instead of taking the softmax again. One :func:`rollout` call also
rolls out every cell of a :class:`~anchorlab.policy.StackedTable` at once,
each cell from its own rows of the uniform block, so a stack of cells pays
a rollout's numpy calls once per step, not once per cell.
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
    def __init__(
        self,
        depth: int,
        branching: int,
        valid_leaves: frozenset[tuple[int, ...]],
        ref_policy: LogitTable,
    ):
        self.depth = depth
        self.branching = branching
        self.valid_leaves = valid_leaves
        self.ref_policy = ref_policy
        # Lexicographic indices of the valid leaves; sorted tuples are ascending.
        leaves = np.array(sorted(valid_leaves), dtype=np.int64).reshape(len(valid_leaves), depth)
        self.valid_ids = leaves @ branching ** np.arange(depth - 1, -1, -1, dtype=np.int64)

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
    leaf_ids = np.sort(rng.choice(b**d, size=cfg.num_valid_leaves, replace=False))
    # The base-B digits of each leaf id, most significant first: its tokens.
    leaves = leaf_ids[:, None] // b ** np.arange(d - 1, -1, -1, dtype=np.int64) % b
    valid = frozenset(map(tuple, leaves.tolist()))

    # Row ctx of the reference is context ctx; rows 0..C-1 are the internal
    # nodes in breadth-first order, so one (C, B) draw fixes the rng stream.
    # The draw is made into the table itself, which is then built in place.
    c = (b**d - 1) // (b - 1)
    z = np.empty((c, b))
    rng.standard_normal(out=z)
    # The flat (context, token) cells of the valid leaves' prefixes.
    bonus, ctx = [], np.zeros(len(leaves), dtype=np.int64)
    for step in range(d):
        bonus.append(ctx * b + leaves[:, step])
        ctx = bonus[-1] + 1
    with np.errstate(over="ignore", invalid="ignore"):
        z *= cfg.ref_noise
        z += 0.0  # a -0.0 becomes +0.0, as it does in the sum 0.0 + x
        z.ravel()[distinct(np.concatenate(bonus))] += cfg.ref_concentration
        # Finite logits whose spread overflows would overflow the max
        # subtraction of a softmax.
        spread = np.maximum.reduce(z, axis=None) - np.minimum.reduce(z, axis=None)
    if not np.isfinite(spread):
        raise ValueError(
            f"ref_concentration {cfg.ref_concentration!r} and ref_noise {cfg.ref_noise!r} "
            "give reference logits beyond the float64 range"
        )
    # The spread is finite, so every logit is: the table takes z as it is.
    return ReasoningTree(d, b, valid, LogitTable.adopt(z))


def verify(tree: ReasoningTree, tokens) -> int:
    """Binary verifiable reward: 1 iff ``tokens`` is a valid leaf."""
    seq = tuple(int(t) for t in tokens)
    if len(seq) != tree.depth:
        raise ValueError(f"expected {tree.depth} tokens, got {len(seq)}")
    return 1 if seq in tree.valid_leaves else 0


def rollout(
    tree: ReasoningTree, policy, u: np.ndarray, base: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample one root-to-leaf rollout per row of the ``(n, D)`` uniform
    block ``u``: ``(tokens, contexts, rewards, rows)``.

    Rollout i consumes row i of ``u``. With ``u = rng.random((n, D))`` that
    is the stream of n*D scalar :func:`~anchorlab.policy.sample_token`
    draws, so one call for G*n rollouts draws what G calls for n would.
    ``policy`` is a :class:`~anchorlab.policy.LogitTable` read at the
    contexts themselves, or, with ``base``, a
    :class:`~anchorlab.policy.StackedTable` read at key
    ``base[i] + ctx`` for row i: ``base`` holds each row's cell times C, so
    one call rolls out every cell of a stack, each from its own rows of
    ``u``. A reward is 1 iff the final context minus C is one of
    ``tree.valid_ids``, which is :func:`verify` of the row. ``rows`` is the
    ``(n, D, V)`` stack of the distributions each token was drawn from,
    bitwise the policy's ``dist`` at them, so callers that need the policy
    at the visited contexts read it here instead of taking the softmax
    again. Each step's CDF and token counts run across the rows of a
    transposed copy; the CDF still adds left to right, bitwise a row cumsum.
    """
    n, d, b, v = len(u), tree.depth, tree.branching, policy.vocab_size
    tokens = np.empty((n, d), dtype=np.int64)
    contexts = np.empty((n, d), dtype=np.int64)
    rows = np.empty((n, d, v))
    ctx = np.zeros(n, dtype=np.int64)  # the root
    for step in range(d):
        dist = policy.dist(ctx if base is None else base + ctx)
        rows[:, step] = dist
        # searchsorted(side="right") per row, clamped to V - 1 as in
        # sample_token. A cumsum of non-negative terms never decreases, so
        # counting over its first V - 1 entries is that clamp: the count
        # over all V is at most one more, and only when every entry counts.
        cdf = np.add.accumulate(dist.T[:-1].copy(), axis=0)
        tok = np.add.reduce(cdf <= u[:, step], axis=0)
        contexts[:, step] = ctx
        tokens[:, step] = tok
        ctx = ctx * b + tok + 1  # tree.child_context, inline
    leaf = ctx - tree.num_contexts()
    ids = tree.valid_ids
    # Ids are distinct: the count of leaf in ids is 0 or 1.
    rewards = ids.searchsorted(leaf, side="right") - ids.searchsorted(leaf)
    return tokens, contexts, rewards, rows


def oracle_coverage(
    tree: ReasoningTree, model: LogitTable, k_values
) -> dict[int, float]:
    """Teacher-forced Top-K recall of the true next token over valid leaves.

    For every valid leaf and every step, feed the ground-truth prefix and
    check whether the true next token lands in the model's Top-K; recall is
    the hit fraction over all (leaf, step) pairs. The pairs are scored in
    one pass: the true token's rank is the count of tokens ahead of it
    under :func:`~anchorlab.anchor.top_k`'s order, a higher probability or
    an equal one at a lower index, and it is a hit at every K above that.
    """
    ks = sorted(set(int(k) for k in k_values))
    b, d = tree.branching, tree.depth
    if not ks or ks[0] < 1 or ks[-1] > b:
        raise ValueError(f"k_values must lie in [1, {b}], got {ks}")
    # Each valid leaf's tokens (its base-B digits) and the contexts along its path.
    tokens = tree.valid_ids[:, None] // b ** np.arange(d - 1, -1, -1, dtype=np.int64) % b
    contexts = np.zeros_like(tokens)
    for step in range(1, d):
        contexts[:, step] = contexts[:, step - 1] * b + tokens[:, step - 1] + 1
    t = tokens.reshape(-1, 1)
    p = model.dist(contexts.ravel())
    p_t = np.take_along_axis(p, t, axis=1)
    rank = np.add.reduce((p > p_t) | ((p == p_t) & (np.arange(b) < t)), axis=1)
    return {k: int(np.count_nonzero(rank < k)) / t.size for k in ks}
