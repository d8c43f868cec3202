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
over without a copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .anchor import top_k
from .policy import LogitTable, check_float, check_int, dump_logit_table, load_logit_table


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
    c = (b**d - 1) // (b - 1)
    bonus = np.zeros((c, b), dtype=bool)
    ctx = np.zeros(len(leaves), dtype=np.int64)
    for step in range(d):
        bonus[ctx, leaves[:, step]] = True
        ctx = ctx * b + leaves[:, step] + 1
    z = np.zeros((c, b))
    z[bonus] += cfg.ref_concentration
    # Scaled in place and freed before z is made the table, so at most two
    # (C, B) float arrays are live here, not three; the values are the same.
    noise = rng.standard_normal((c, b))
    with np.errstate(over="ignore", invalid="ignore"):
        noise *= cfg.ref_noise
        z += noise
        del noise
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
    ``policy`` is a table read at the contexts themselves (a
    :class:`~anchorlab.policy.LogitTable` or one cell of a stack), or, with
    ``base``, a :class:`~anchorlab.policy.StackedTable` read at key
    ``base[i] + ctx`` for row i: ``base`` holds each row's cell times C, so
    one call rolls out every cell of a stack, each from its own rows of
    ``u``. A reward is 1 iff the final context minus C is one of
    ``tree.valid_ids``, which is :func:`verify` of the row. ``rows`` is the
    ``(n, D, V)`` stack of the distributions each token was drawn from,
    bitwise the policy's ``dist`` at them, so callers that need the policy
    at the visited contexts read it here instead of taking the softmax
    again.
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
        tok = np.add.reduce(dist[:, :-1].cumsum(axis=1) <= u[:, step, None], axis=1)
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
    the hit fraction over all (leaf, step) pairs.
    """
    ks = sorted(set(int(k) for k in k_values))
    if not ks or ks[0] < 1 or ks[-1] > tree.branching:
        raise ValueError(f"k_values must lie in [1, {tree.branching}], got {ks}")
    hits = {k: 0 for k in ks}
    total = 0
    for leaf in sorted(tree.valid_leaves):
        ctx = tree.ROOT
        for t in leaf:
            dist = model.dist(ctx)
            ranked = top_k(dist, tree.branching)
            for k in ks:
                if t in ranked[:k]:
                    hits[k] += 1
            total += 1
            ctx = tree.child_context(ctx, t)
    return {k: hits[k] / total for k in ks}


def dump_tree(tree: ReasoningTree) -> str:
    lines = [f"D={tree.depth} B={tree.branching}"]
    for leaf in sorted(tree.valid_leaves):
        lines.append(",".join(str(t) for t in leaf))
    return "\n".join(lines) + "\n" + dump_logit_table(tree.ref_policy)


def load_tree(text: str) -> ReasoningTree:
    """Parse :func:`dump_tree` text; raises ValueError unless every leaf is
    D tokens in ``[0, B)`` and the reference is a (C, B) table."""
    lines = text.splitlines()
    head = re.fullmatch(r"D=(\d+) B=(\d+)", lines[0]) if lines else None
    if head is None or int(head[1]) < 1 or int(head[2]) < 2:
        raise ValueError("tree text must start with a 'D=<int> B=<int>' header, D >= 1, B >= 2")
    depth, branching = int(head[1]), int(head[2])
    leaves = set()
    i = 1
    while i < len(lines) and not lines[i].startswith("V="):
        if lines[i].strip():
            leaf = tuple(int(t) for t in lines[i].split(","))
            if len(leaf) != depth or not all(0 <= t < branching for t in leaf):
                raise ValueError(f"leaf {lines[i]!r} is not {depth} tokens in [0, {branching})")
            leaves.add(leaf)
        i += 1
    ref = load_logit_table("\n".join(lines[i:]))
    tree = ReasoningTree(depth, branching, frozenset(leaves), ref)
    if (len(ref), ref.vocab_size) != (tree.num_contexts(), branching):
        raise ValueError(
            f"reference is {len(ref)}x{ref.vocab_size}, expected {tree.num_contexts()}x{branching}"
        )
    return tree
