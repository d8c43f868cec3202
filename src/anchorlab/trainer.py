"""On-policy training loop: grouped rollouts, token-mean updates, evaluation.

Each outer step freezes the sampling policy, draws ``groups_per_step``
groups of ``group_size`` rollouts from the tree root (one ``rollout`` call
per group, returning ``(n, D)`` token and context arrays), computes
group-relative advantages, then performs ``inner_epochs`` passes in which
every sampled token contributes one surrogate gradient. Gradients are
averaged over all tokens in the batch (token-mean) and applied as a plain
SGD ascent step on the logits.

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
from .objectives import MethodConfig, group_advantages, method_token_update
from .policy import LogitTable


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
class TrajectoryGroup:
    """One group of n rollouts: ``(n, D)`` tokens and the contexts they were
    drawn from, ``(n,)`` rewards and group-relative advantages."""

    tokens: np.ndarray
    contexts: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray

    @property
    def skipped(self) -> bool:
        # Zero-variance rewards yield all-zero advantages; no learning signal.
        return bool(np.all(self.advantages == 0.0))


@dataclass
class StepStats:
    step: int
    mean_reward: float
    frac_clipped: float
    degenerate_anchors: int
    wallclock_ms: float


def sample_group(
    tree: ReasoningTree,
    frozen_policy: LogitTable,
    cfg: MethodConfig,
    rng: np.random.Generator,
) -> TrajectoryGroup:
    tokens, contexts, rewards = rollout(tree, frozen_policy, cfg.group_size, rng)
    return TrajectoryGroup(tokens, contexts, rewards, group_advantages(rewards, cfg.adv_eps))


def _token_batch(groups: list[TrajectoryGroup]) -> list[tuple[int, int, float]]:
    """Flatten non-skipped groups into (context, token, advantage) triples."""
    batch = []
    for group in groups:
        if group.skipped:
            continue
        batch += zip(
            group.contexts.ravel().tolist(),
            group.tokens.ravel().tolist(),
            np.repeat(group.advantages, group.tokens.shape[1]).tolist(),
        )
    return batch


def apply_token_batch(
    policy: LogitTable,
    pi_old: LogitTable,
    tree: ReasoningTree,
    batch: list[tuple[int, int, float]],
    mcfg: MethodConfig,
    ref_dists: dict[int, np.ndarray] | None = None,
) -> tuple[int, int]:
    """One pass over the batch: token-mean gradient, single ascent step.

    Returns (clipped count, degenerate-anchor count). Replicating the batch
    m times leaves the applied update unchanged (sums scale by m, the mean
    does not).
    """
    if not batch:
        return 0, 0
    if ref_dists is None:
        ref_dists = {}
    policy_dists: dict[int, np.ndarray] = {}
    old_dists: dict[int, np.ndarray] = {}
    grads: dict[int, np.ndarray] = {}
    clipped = 0
    degenerate = 0
    for ctx, token, adv in batch:
        if ctx not in policy_dists:
            policy_dists[ctx] = policy.dist(ctx)
        if ctx not in old_dists:
            old_dists[ctx] = pi_old.dist(ctx)
        if ctx not in ref_dists:
            ref_dists[ctx] = tree.ref_policy.dist(ctx)
        update = method_token_update(
            policy_dists[ctx], old_dists[ctx], ref_dists[ctx], token, adv, mcfg
        )
        clipped += update.clipped
        degenerate += update.degenerate_anchor
        if ctx in grads:
            grads[ctx] += update.gradient
        else:
            grads[ctx] = update.gradient.copy()
    scale = mcfg.learning_rate / len(batch)
    for ctx, g in grads.items():
        policy.add_to_logits(ctx, scale * g)
    return clipped, degenerate


def train_step(
    policy: LogitTable,
    tree: ReasoningTree,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: int = 0,
    ref_dists: dict[int, np.ndarray] | None = None,
) -> StepStats:
    """One outer optimization step (mutates ``policy`` in place)."""
    t0 = time.perf_counter()
    mcfg = cfg.method_config
    pi_old = policy.snapshot()
    groups = [sample_group(tree, pi_old, mcfg, rng) for _ in range(cfg.groups_per_step)]
    rewards = np.concatenate([g.rewards for g in groups])
    batch = _token_batch(groups)

    clipped = 0
    degenerate = 0
    for _ in range(cfg.inner_epochs):
        c, d = apply_token_batch(policy, pi_old, tree, batch, mcfg, ref_dists)
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
    ref_dists: dict[int, np.ndarray] = {}
    records = [
        evaluate(policy, tree, 0, cfg.eval_samples_k, eval_rng, cfg.support_k)
    ]
    stats: list[StepStats] = []
    for step in range(1, cfg.total_steps + 1):
        stats.append(train_step(policy, tree, cfg, train_rng, step, ref_dists))
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
