"""On-policy training loop: grouped rollouts, token-mean updates, evaluation.

Each outer step draws its ``groups_per_step`` groups of ``group_size``
rollouts from the tree root with one ``rollout`` call, which returns
``(G*n, D)`` token and context arrays sampled with the live policy; the
policy does not change while they are drawn. Group g is rows
g*n..(g+1)*n-1, the rows G separate calls would draw. Group-relative
advantages come from one call on the ``(G, n)`` rewards. Groups whose
advantages are all zero are dropped, and the kept tokens form a
:class:`TokenBatch`, which captures the batch's old and reference rows
once: the sampling and reference policies' ``(N, V)`` rows at each token's
context, not a copy of either table. Then it performs ``inner_epochs``
passes in which every sampled token contributes one surrogate gradient.
Gradients are averaged over all tokens in the batch (token-mean) and
applied as a plain SGD ascent step on the logits. Each pass is dense: one
:func:`~anchorlab.objectives.token_gradients` call over the ``(N, V)`` rows
of the batch, summed per context with ``np.add.at``; the scalar
``method_token_update`` is the oracle it is tested against, not called here.

Seeding: the experiment seed feeds ``numpy.random.SeedSequence(seed)``; its
two spawned children drive the training stream and the evaluation stream,
so evaluation never perturbs training randomness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .env import EnvConfig, ReasoningTree, generate_tree, rollout
from .metrics import MetricRecord, evaluate
from .objectives import MethodConfig, group_advantages, token_gradients
from .policy import LogitTable, check_int


@dataclass
class TrainConfig:
    method_config: MethodConfig = field(default_factory=MethodConfig)
    env: EnvConfig = field(default_factory=lambda: EnvConfig(4, 8, 8))
    total_steps: int = 300
    groups_per_step: int = 4
    inner_epochs: int = 2
    eval_every: int = 25
    eval_samples_k: int = 64
    support_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("total_steps", "groups_per_step", "inner_epochs", "eval_every",
                     "eval_samples_k", "seed"):
            check_int(name, getattr(self, name))
        if self.support_k is not None:
            check_int("support_k", self.support_k)
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.groups_per_step < 1:
            raise ValueError(f"groups_per_step must be >= 1, got {self.groups_per_step}")
        if self.inner_epochs < 1:
            raise ValueError(f"inner_epochs must be >= 1, got {self.inner_epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.eval_samples_k < 2:
            raise ValueError(f"eval_samples_k must be >= 2, got {self.eval_samples_k}")
        if self.support_k is not None and not 1 <= self.support_k <= self.env.branching:
            raise ValueError(
                f"support_k must be in [1, {self.env.branching}], got {self.support_k}"
            )


@dataclass
class StepStats:
    step: int
    mean_reward: float
    frac_clipped: float
    degenerate_anchors: int
    wallclock_ms: float


class TokenBatch:
    """Every token of the kept groups, flattened in group, rollout and step
    order: its context, token and advantage. On construction it records the
    sorted distinct contexts ``ctxs``, each token's position ``at`` in them,
    and the ``(N, V)`` rows at each token's context of the sampling policy,
    ``old``, and of the reference, ``ref``, so later passes read neither."""

    __slots__ = ("ctx", "tok", "adv", "ctxs", "at", "old", "ref")

    def __init__(self, ctx: np.ndarray, tok: np.ndarray, adv: np.ndarray,
                 policy: LogitTable, ref_policy: LogitTable):
        self.ctx, self.tok, self.adv = ctx, tok, adv
        # sorted(set()) rather than np.unique, which imports numpy.ma.
        self.ctxs = np.array(sorted(set(ctx.tolist())), dtype=np.intp)
        self.at = np.searchsorted(self.ctxs, ctx)
        self.old = policy.dist(self.ctxs)[self.at]
        self.ref = ref_policy.dist(self.ctxs)[self.at]

    def __len__(self) -> int:
        return self.ctx.size


def apply_token_batch(
    policy: LogitTable,
    tree: ReasoningTree,
    mcfg: MethodConfig,
    batch: TokenBatch,
) -> tuple[int, int]:
    """One pass over the batch: token-mean gradient, single ascent step.

    Every token's gradient comes from one :func:`token_gradients` call over
    the batch, with ``batch.old`` and ``batch.ref`` as the old and
    reference rows; they are summed per context in batch order and the U
    touched rows get ``lr / N`` times their sum. Returns (clipped count,
    degenerate-anchor count). Replicating the batch m times leaves the
    applied update unchanged (sums scale by m, the mean does not). ``tree``
    is not read, since the batch holds its reference rows; the argument
    keeps the batch fourth, where perfbench's traced run counts its tokens.
    """
    if not len(batch):
        return 0, 0
    ctxs, at = batch.ctxs, batch.at
    grads, clipped, degenerate = token_gradients(
        policy.dist(ctxs)[at], batch.old, batch.ref, batch.tok, batch.adv, mcfg
    )
    # -0.0 is the additive identity, so each row's first add is an exact copy.
    block = np.full((ctxs.size, policy.vocab_size), -0.0)
    np.add.at(block, at, grads)
    policy.add_to_logits(ctxs, (mcfg.learning_rate / len(batch)) * block)
    return int(clipped.sum()), int(degenerate.sum())


def train_step(
    policy: LogitTable,
    tree: ReasoningTree,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: int = 0,
) -> StepStats:
    """One outer optimization step (mutates ``policy`` in place)."""
    t0 = time.perf_counter()
    mcfg = cfg.method_config
    g, n = cfg.groups_per_step, mcfg.group_size
    tokens, contexts, rewards = rollout(tree, policy, g * n, rng)
    adv = group_advantages(rewards.reshape(g, n), mcfg.adv_eps)
    # A zero-variance group has all-zero advantages and no learning signal.
    kept = np.any(adv != 0.0, axis=1)
    batch = TokenBatch(
        contexts.reshape(g, -1)[kept].ravel(),
        tokens.reshape(g, -1)[kept].ravel(),
        np.repeat(adv[kept].ravel(), tree.depth),
        policy,
        tree.ref_policy,
    )

    clipped = 0
    degenerate = 0
    for _ in range(cfg.inner_epochs):
        c, d = apply_token_batch(policy, tree, mcfg, batch)
        clipped += c
        degenerate += d

    total_updates = max(1, len(batch) * cfg.inner_epochs)
    return StepStats(
        step=step,
        mean_reward=float(np.mean(rewards)),
        frac_clipped=clipped / total_updates,
        degenerate_anchors=degenerate,
        wallclock_ms=(time.perf_counter() - t0) * 1000.0,
    )


def initial_policy(tree: ReasoningTree) -> LogitTable:
    """Training starts from a copy of the reference (the pre-RL model)."""
    return tree.ref_policy.copy()


def run_experiment(
    cfg: TrainConfig,
    tree: ReasoningTree | None = None,
) -> tuple[list[MetricRecord], list[StepStats]]:
    """Full deterministic run: returns metric records (step 0, every
    ``eval_every`` steps, and the final step) plus per-step statistics."""
    if tree is None:
        tree = generate_tree(cfg.env)
    train_ss, eval_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    train_rng = np.random.default_rng(train_ss)
    eval_rng = np.random.default_rng(eval_ss)

    policy = initial_policy(tree)
    records = [
        evaluate(policy, tree, 0, cfg.eval_samples_k, eval_rng, cfg.support_k)
    ]
    stats: list[StepStats] = []
    for step in range(1, cfg.total_steps + 1):
        stats.append(train_step(policy, tree, cfg, train_rng, step))
        if step % cfg.eval_every == 0 or step == cfg.total_steps:
            records.append(
                evaluate(policy, tree, step, cfg.eval_samples_k, eval_rng, cfg.support_k)
            )
    return records, stats


def write_steps_jsonl(stats, path) -> None:
    """One JSON object per step: step, mean_reward, frac_clipped,
    degenerate_anchors, wallclock_ms."""
    with open(path, "w", encoding="ascii") as fh:
        for s in stats:
            fh.write(
                json.dumps(
                    {
                        "step": s.step,
                        "mean_reward": s.mean_reward,
                        "frac_clipped": s.frac_clipped,
                        "degenerate_anchors": s.degenerate_anchors,
                        "wallclock_ms": s.wallclock_ms,
                    }
                )
                + "\n"
            )
