"""Synthetic reasoning trees with verifiable terminal rewards.

A tree of depth D and branching B has vocabulary V = B; every internal node
(prefix of length < D) is a context. A fixed subset of leaves is "valid":
a rollout earns reward 1 iff its D tokens form a valid leaf. The generated
reference policy gives a logit bonus to children that lead to at least one
valid leaf, plus Gaussian jitter, so it is informative but imperfect.

Context ids use heap indexing: root = 0, child(ctx, token) = ctx*B + token + 1,
so the C = (B^D - 1) / (B - 1) internal nodes are 0..C-1 in breadth-first
order and the reference policy is one dense (C, B) logit table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchor import top_k
from .policy import LogitTable, dump_logit_table, load_logit_table, sample_token


@dataclass
class EnvConfig:
    depth: int
    branching: int
    num_valid_leaves: int
    ref_concentration: float = 1.5
    ref_noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if not 1 <= self.num_valid_leaves <= self.branching**self.depth:
            raise ValueError(
                f"num_valid_leaves must be in [1, {self.branching**self.depth}], "
                f"got {self.num_valid_leaves}"
            )
        if self.ref_concentration < 0:
            raise ValueError(f"ref_concentration must be >= 0, got {self.ref_concentration}")
        if self.ref_noise < 0:
            raise ValueError(f"ref_noise must be >= 0, got {self.ref_noise}")


@dataclass
class Trajectory:
    """One root-to-leaf sample: tokens, the contexts they were drawn from,
    log-probs under the sampling policy, and the verified binary reward."""

    tokens: tuple[int, ...]
    contexts: tuple[int, ...]
    old_log_probs: tuple[float, ...]
    reward: int


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

    ROOT = 0

    def child_context(self, ctx: int, token: int) -> int:
        return ctx * self.branching + token + 1

    def path_contexts(self, tokens) -> tuple[int, ...]:
        """Context visited before each of the D steps along ``tokens``."""
        ctx = self.ROOT
        out = []
        for t in tokens:
            out.append(ctx)
            ctx = self.child_context(ctx, t)
        return tuple(out)

    def num_contexts(self) -> int:
        b, d = self.branching, self.depth
        return (b**d - 1) // (b - 1)

    def all_leaves(self):
        """Iterate every length-D token sequence (lexicographic)."""
        b, d = self.branching, self.depth
        for i in range(b**d):
            yield _leaf_from_index(i, b, d)


def _leaf_from_index(index: int, branching: int, depth: int) -> tuple[int, ...]:
    digits = []
    for _ in range(depth):
        index, token = divmod(index, branching)
        digits.append(token)
    return tuple(reversed(digits))


def generate_tree(cfg: EnvConfig) -> ReasoningTree:
    """Build a seeded tree: uniform choice of valid leaves, then reference
    logits = concentration * [child reaches a valid leaf] + noise * N(0, 1)."""
    rng = np.random.default_rng(cfg.seed)
    b, d = cfg.branching, cfg.depth
    leaf_ids = rng.choice(b**d, size=cfg.num_valid_leaves, replace=False)
    valid = frozenset(_leaf_from_index(int(i), b, d) for i in sorted(leaf_ids))

    # Row ctx of the reference is context ctx; rows 0..C-1 are the internal
    # nodes in breadth-first order, so one (C, B) draw fixes the rng stream.
    c = (b**d - 1) // (b - 1)
    bonus = np.zeros((c, b), dtype=bool)
    leaves = np.array(sorted(valid))
    ctx = np.zeros(len(leaves), dtype=np.int64)
    for step in range(d):
        bonus[ctx, leaves[:, step]] = True
        ctx = ctx * b + leaves[:, step] + 1
    z = np.zeros((c, b))
    z[bonus] += cfg.ref_concentration
    z += cfg.ref_noise * rng.standard_normal((c, b))
    return ReasoningTree(d, b, valid, LogitTable(z))


def verify(tree: ReasoningTree, tokens) -> int:
    """Binary verifiable reward: 1 iff ``tokens`` is a valid leaf."""
    seq = tuple(int(t) for t in tokens)
    if len(seq) != tree.depth:
        raise ValueError(f"expected {tree.depth} tokens, got {len(seq)}")
    return 1 if seq in tree.valid_leaves else 0


def rollout(tree: ReasoningTree, policy: LogitTable, rng: np.random.Generator) -> Trajectory:
    """Sample one root-to-leaf trajectory under ``policy``."""
    ctx = tree.ROOT
    tokens: list[int] = []
    contexts: list[int] = []
    log_probs: list[float] = []
    for _ in range(tree.depth):
        dist = policy.dist(ctx)
        token = sample_token(dist, rng)
        tokens.append(token)
        contexts.append(ctx)
        log_probs.append(float(np.log(dist[token])))
        ctx = tree.child_context(ctx, token)
    seq = tuple(tokens)
    return Trajectory(seq, tuple(contexts), tuple(log_probs), verify(tree, seq))


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
    lines = text.splitlines()
    if not lines or not lines[0].startswith("D="):
        raise ValueError("tree text must start with a 'D=<int> B=<int>' header")
    head, b_part = lines[0].split()
    depth = int(head[2:])
    branching = int(b_part[2:])
    leaves = set()
    i = 1
    while i < len(lines) and not lines[i].startswith("V="):
        if lines[i].strip():
            leaves.add(tuple(int(t) for t in lines[i].split(",")))
        i += 1
    ref = load_logit_table("\n".join(lines[i:]))
    return ReasoningTree(depth, branching, frozenset(leaves), ref)

