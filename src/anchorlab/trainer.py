"""On-policy training loop: grouped rollouts, token-mean updates, evaluation.

Each outer step draws its ``groups_per_step`` groups of ``group_size``
rollouts from the tree root with one ``rollout`` call, which returns
``(G*n, D)`` token and context arrays sampled with the live policy and the
``(G*n, D, V)`` policy rows they were drawn from; the policy does not
change while they are drawn. Group g is rows g*n..(g+1)*n-1, the rows G
separate calls would draw. Group-relative advantages come from one call on
the ``(G, n)`` rewards. Groups whose advantages are all zero are dropped,
and the kept tokens form a :class:`TokenBatch`, the step's plan: it holds
everything the passes need that depends only on the batch, so a pass only
gathers the live rows and combines them. Its old rows are the kept
groups' rollout rows, not a second softmax; with them come each token's
flat index into the ``(N, V)`` rows and its old probability. The
reference rows at each token's context are taken once, and only for the
methods that read them (the KL methods and apo). For apo the reference
half of every token's anchor is built once, as fixed-width gather tables
(:func:`~anchorlab.objectives.anchor_reference`); no table is copied.
Then the step performs ``inner_epochs`` passes in which every sampled
token contributes one surrogate gradient. The first pass reads the old
rows as the live policy's, since the policy has not changed since the
rollout; only later passes take the policy's softmax. Gradients are
averaged over all tokens in the batch (token-mean) and applied as a plain
SGD ascent step on the logits. Each pass is dense: one
:func:`~anchorlab.objectives.token_gradients` call over the ``(N, V)`` rows
of the batch, summed per context with ``np.add.at``; the scalar
``method_token_update`` is the oracle it is tested against, not called here.

The anchor's reference half is built per step, over the batch's rows, and
not once per tree: ranking every row of a large tree's reference costs
more than a short cell spends on anchors. For the 37,449-row deep_sweep
tree a softmax and stable argsort of the whole reference takes 11-12 ms;
the 10 steps of an apo cell there spend under 0.5 ms building anchors.

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
from .metrics import MetricRecord, atomic_open, evaluate
from .objectives import (
    REFERENCE_METHODS,
    MethodConfig,
    anchor_reference,
    group_advantages,
    token_gradients,
)
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
        for name, low in (("total_steps", 0), ("groups_per_step", 1), ("inner_epochs", 1),
                          ("eval_every", 1), ("eval_samples_k", 2), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.support_k is not None:
            check_int("support_k", self.support_k)
            if not 1 <= self.support_k <= self.env.branching:
                raise ValueError(
                    f"support_k must be in [1, {self.env.branching}], got {self.support_k}"
                )


@dataclass
class StepStats:
    """One outer step. ``wallclock_ms`` times the whole :func:`train_step`;
    ``rollout_ms`` its rollout, and ``update_ms`` the rest up to the end of
    the last pass (advantages, the batch and its passes), so the two sum
    to at most ``wallclock_ms``. ``eval_ms`` times the evaluation after
    the step, 0.0 on steps without one."""

    step: int
    mean_reward: float
    frac_clipped: float
    degenerate_anchors: int
    wallclock_ms: float
    rollout_ms: float
    update_ms: float
    eval_ms: float = 0.0


class TokenBatch:
    """Every token of the kept groups, flattened in group, rollout and step
    order: its context, token and advantage, and ``old``, the ``(N, V)``
    sampling-policy rows the rollout drew each token from. On construction
    it records everything a pass needs that depends only on the batch: the
    sorted distinct contexts ``ctxs`` and each token's position ``at`` in
    them, each token's flat index ``flat`` into the ``(N, V)`` rows and
    its old probability ``old_tok``, the reference rows ``ref`` at each
    token's context for the methods that read them (None for grpo and
    nsr), and for apo the gather tables of every token's anchor,
    ``anchors`` (:func:`~anchorlab.objectives.anchor_reference`; None for
    the other methods). So a pass only gathers the live rows and combines
    them."""

    __slots__ = ("ctx", "tok", "adv", "ctxs", "at", "old", "flat", "old_tok", "ref", "anchors")

    def __init__(self, ctx: np.ndarray, tok: np.ndarray, adv: np.ndarray, old: np.ndarray,
                 ref_policy: LogitTable, mcfg: MethodConfig):
        self.ctx, self.tok, self.adv, self.old = ctx, tok, adv, old
        # sorted(set()) rather than np.unique, which imports numpy.ma.
        self.ctxs = np.array(sorted(set(ctx.tolist())), dtype=np.intp)
        self.at = np.searchsorted(self.ctxs, ctx)
        self.flat = np.arange(tok.size) * old.shape[1] + tok
        self.old_tok = old.take(self.flat)
        self.ref = (ref_policy.dist(self.ctxs)[self.at]
                    if mcfg.method in REFERENCE_METHODS else None)
        self.anchors = (anchor_reference(self.ref, tok, mcfg.anchor_k)
                        if mcfg.method == "apo" else None)

    def __len__(self) -> int:
        return self.ctx.size


def apply_token_batch(
    policy: LogitTable,
    tree: ReasoningTree,
    mcfg: MethodConfig,
    batch: TokenBatch,
    live: np.ndarray | None = None,
) -> tuple[int, int]:
    """One pass over the batch: token-mean gradient, single ascent step.

    Every token's gradient comes from one :func:`token_gradients` call over
    the batch, with the batch's flat token ids, old token probabilities,
    reference rows and anchor tables; the gradients are summed per context
    in batch order and the U touched rows get ``lr / N`` times their sum.
    ``live`` is the policy's rows at the batch's tokens when the caller
    already holds them (``batch.old`` while the policy is still the one
    sampled from); otherwise they are computed. Returns (clipped count,
    degenerate-anchor count). Replicating the batch m times leaves the
    applied update unchanged (sums scale by m, the mean does not). ``tree``
    is not read, since the batch holds its reference rows; the argument
    keeps the batch fourth, where perfbench's traced run counts its tokens.
    """
    if not len(batch):
        return 0, 0
    ctxs, at = batch.ctxs, batch.at
    if live is None:
        live = policy.dist(ctxs)[at]
    grads, clipped, degenerate = token_gradients(
        live, batch.old_tok, batch.ref, batch.flat, batch.adv, mcfg, batch.anchors
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
    tokens, contexts, rewards, rows = rollout(tree, policy, g * n, rng)
    t1 = time.perf_counter()
    adv = group_advantages(rewards.reshape(g, n), mcfg.adv_eps)
    # A zero-variance group has all-zero advantages and no learning signal.
    kept = np.any(adv != 0.0, axis=1)
    batch = TokenBatch(
        contexts.reshape(g, -1)[kept].ravel(),
        tokens.reshape(g, -1)[kept].ravel(),
        np.repeat(adv[kept].ravel(), tree.depth),
        rows.reshape(g, -1, policy.vocab_size)[kept].reshape(-1, policy.vocab_size),
        tree.ref_policy,
        mcfg,
    )

    clipped = 0
    degenerate = 0
    for epoch in range(cfg.inner_epochs):
        # Until the first pass updates it, the policy is the one sampled from.
        c, d = apply_token_batch(policy, tree, mcfg, batch, batch.old if epoch == 0 else None)
        clipped += c
        degenerate += d
    t2 = time.perf_counter()

    total_updates = max(1, len(batch) * cfg.inner_epochs)
    return StepStats(
        step=step,
        mean_reward=float(np.mean(rewards)),
        frac_clipped=clipped / total_updates,
        degenerate_anchors=degenerate,
        wallclock_ms=(time.perf_counter() - t0) * 1000.0,
        rollout_ms=(t1 - t0) * 1000.0,
        update_ms=(t2 - t1) * 1000.0,
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
            t0 = time.perf_counter()
            records.append(
                evaluate(policy, tree, step, cfg.eval_samples_k, eval_rng, cfg.support_k)
            )
            stats[-1].eval_ms = (time.perf_counter() - t0) * 1000.0
    return records, stats


def write_steps_jsonl(stats, path) -> None:
    """One JSON object per step, with the :class:`StepStats` fields in
    order; ``path`` is replaced whole (:func:`~anchorlab.metrics.atomic_open`)."""
    with atomic_open(path) as fh:
        for s in stats:
            fh.write(json.dumps(vars(s)) + "\n")
