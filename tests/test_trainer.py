import json
import os
import sys
import tracemalloc
from dataclasses import replace
import numpy as np
import pytest

import anchorlab.metrics as metrics
import anchorlab.objectives as objectives
import anchorlab.policy as policy_module
import anchorlab.trainer as trainer
from anchorlab.env import EnvConfig, generate_tree, rollout, verify
from anchorlab.gradients import grad_log_prob
from anchorlab.metrics import evaluate
from anchorlab.objectives import (
    MethodConfig,
    anchor_reference,
    group_advantages,
    method_token_update,
    token_gradients,
)
from anchorlab.policy import LogitTable, StackedTable, dump_logit_table, layout_sums, softmax
from anchorlab.trainer import (
    Stack,
    StepStats,
    TokenBatch,
    TrainConfig,
    apply_token_batch,
    initial_policy,
    run_experiment,
    train_step,
    write_steps_jsonl,
)

SMALL_ENV = EnvConfig(depth=3, branching=4, num_valid_leaves=4, seed=5)


def separate_groups(tree, policy, train, groups, rng):
    """The step's groups drawn one at a time, as G separate ``rollout``
    calls of the schedule ``train``'s n rows, with rewards from
    :func:`verify` and advantages from one 1-D :func:`group_advantages`
    call per group with its ``adv_eps``."""
    out = []
    for _ in range(groups):
        tokens, contexts, _, _ = rollout(tree, policy, rng.random((train.group_size, tree.depth)))
        rewards = np.array([verify(tree, row) for row in tokens])
        out.append((tokens, contexts, rewards, group_advantages(rewards, train.adv_eps)))
    return out


def concat_kept(groups):
    """Contexts, tokens and per-token advantages of the groups whose
    advantages are not all zero, concatenated in group order."""
    kept = [g for g in groups if not np.all(g[3] == 0.0)]
    if not kept:
        empty = np.zeros(0, np.int64)
        return empty, empty, np.zeros(0)
    return (
        np.concatenate([g[1].ravel() for g in kept]),
        np.concatenate([g[0].ravel() for g in kept]),
        np.concatenate([np.repeat(g[3], g[0].shape[1]) for g in kept]),
    )


def cell_of_one(tree, start=None):
    """A stack of one cell starting from ``start`` (a copy of the
    reference by default). Its cell is read with ``table.cell(0)``, a copy
    taken when it is read."""
    return StackedTable(initial_policy(tree) if start is None else start, 1)


def start_logits(tree):
    """A writable copy of the reference logits: the scalar oracles' table,
    written row by row in place."""
    return tree.ref_policy.logits(np.arange(tree.num_contexts())).copy()


def dump(z):
    """:func:`dump_logit_table` of an oracle's logits."""
    return dump_logit_table(LogitTable(z))


def step_stack(table, tree, train, mcfgs, rngs, step=0):
    """:func:`train_step` of the stack of cells with configs ``mcfgs``."""
    return train_step(table, tree, Stack(train, mcfgs, tree), rngs, step)


def one_step(table, tree, train, mcfg, rng, step=0):
    """:func:`train_step` of a stack of one cell: that cell's statistics."""
    [stats] = step_stack(table, tree, train, [mcfg], [rng], step)
    return stats


def one_cell_batch(ctx, tok, adv, old, tree, mcfg):
    """The :class:`TokenBatch` of a stack of one cell."""
    return TokenBatch(ctx, tok, adv, old, tree.ref_policy, Stack(TrainConfig(), [mcfg], tree),
                      [ctx.size])


def apply_one(table, tree, mcfg, batch, live=None):
    """:func:`apply_token_batch` for a stack of one cell, with the clipped
    counts of the positive- and negative-advantage tokens and the
    degenerate-anchor count of the pass."""
    clipped, degenerate = apply_token_batch(table, tree, Stack(TrainConfig(), [mcfg], tree),
                                            batch, live)
    neg = batch.adv < 0.0
    return int((clipped & ~neg).sum()), int((clipped & neg).sum()), int(degenerate.sum())


def assert_columns(batch, mcfgs, ref_rows):
    """The batch's per-token columns against each token's cell's config:
    its clip bounds, the rows of each branch, their coefficients, and the
    reference rows and anchors, read from ``ref_rows``, the reference rows
    at every token's context, bit for bit."""
    cols, cfgs = batch.columns, [mcfgs[s] for s in batch.cell.tolist()]
    assert cols.low.tolist() == [1.0 - m.clip_eps for m in cfgs]
    assert cols.high.tolist() == [1.0 + m.clip_eps for m in cfgs]
    neg = (batch.adv < 0.0).tolist()
    nsr = [i for i, m in enumerate(cfgs) if m.method == "nsr"]
    kl = [i for i, (m, n) in enumerate(zip(cfgs, neg))
          if m.method == "grpo_kl" or (m.method == "grpo_kl_error_only" and n)]
    apo = [i for i, (m, n) in enumerate(zip(cfgs, neg)) if m.method == "apo" and n]
    assert (cols.nsr.tolist(), cols.kl.tolist(), cols.apo.tolist()) == (nsr, kl, apo)
    if not kl and not apo:
        assert cols.kl_ref is None and cols.anchors is None  # no reference row read
        return
    assert cols.kl_coef.ravel().tolist() == [cfgs[i].kl_coef for i in kl]
    assert bits(cols.kl_ref) == bits(ref_rows[kl])
    if apo:
        assert cols.push_coef.tolist() == [cfgs[i].push_coef for i in apo]
        assert cols.pull_coef.tolist() == [cfgs[i].pull_coef for i in apo]
        member, z_ref, empty, layout = cols.anchors
        # Both sums of every row, its Top-k's and its ascending list's, here
        # over the reference rows.
        sums = layout_sums(ref_rows.take(apo, axis=0), layout).reshape(2, len(apo))
        for j, i in enumerate(apo):
            m, z, e, one = anchor_reference(ref_rows[i:i + 1], batch.tok[i:i + 1],
                                            np.array([cfgs[i].anchor_k]))
            assert (bits(member[j]), bits(z_ref[j]), empty[j]) == (bits(m[0]), bits(z[0]), e[0])
            assert bits(sums[:, j]) == bits(layout_sums(ref_rows[i:i + 1], one))


def small_cfg(**overrides):
    """The schedule of the small-tree tests, with ``overrides``."""
    base = dict(total_steps=5, groups_per_step=2, inner_epochs=2, eval_every=2, eval_samples_k=8)
    base.update(overrides)
    return TrainConfig(**base)


def run_small(train, method="grpo"):
    """:func:`run_experiment` of one ``method`` cell (seed 3) on the
    small tree: its metric records and step statistics."""
    [(records, stats)] = run_experiment(train, [(MethodConfig(method=method), 3)],
                                        generate_tree(SMALL_ENV))
    return records, stats


class TestTrainStep:
    def test_first_pass_update_matches_ratio_one_formula(self):
        # With one inner epoch pi_theta stays equal to pi_old during the
        # pass, every push ratio is exactly 1, and the grpo update reduces
        # to token-mean advantage-weighted log-prob ascent.
        tree = generate_tree(SMALL_ENV)
        cfg, mcfg = small_cfg(inner_epochs=1), MethodConfig()
        table = cell_of_one(tree)
        rng = np.random.default_rng(12)
        stats = one_step(table, tree, cfg, mcfg, rng)
        assert stats.frac_clipped == 0.0

        expected = start_logits(tree)
        pi_old = initial_policy(tree)
        rng2 = np.random.default_rng(12)
        ctxs, toks, advs = concat_kept(separate_groups(
            tree, pi_old, cfg, cfg.groups_per_step, rng2))
        grads = {}
        for ctx, token, adv in zip(ctxs.tolist(), toks.tolist(), advs.tolist()):
            dz = adv * grad_log_prob(pi_old.dist(ctx), token)
            grads[ctx] = grads.get(ctx, 0.0) + dz
        for ctx, g in grads.items():
            expected[ctx] += mcfg.learning_rate * g / ctxs.size
        policy = table.cell(0)
        for ctx in range(len(expected)):
            np.testing.assert_allclose(policy.logits(ctx), expected[ctx], atol=1e-12)

    def test_apo_pull_past_the_window_clips_every_negative_token(self):
        # First pass from the reference: every push ratio and anchor ratio
        # is exactly 1, so the rectified ratio is 1.05 - 0.5 = 0.55, below
        # the [0.8, 1.2] window, and every negative-advantage update is
        # clipped while no positive one is.
        tree = generate_tree(SMALL_ENV)
        mcfg = MethodConfig(method="apo", pull_coef=0.5)
        stats = one_step(cell_of_one(tree), tree, small_cfg(inner_epochs=1), mcfg,
                         np.random.default_rng(12))
        assert stats.degenerate_anchors == 0
        assert stats.frac_clipped_neg == 1.0
        assert stats.frac_clipped_pos == 0.0
        assert 0.0 < stats.frac_clipped < 1.0

    def test_grpo_first_pass_clips_nothing_of_either_sign(self):
        tree = generate_tree(SMALL_ENV)
        table = cell_of_one(tree)
        stats = one_step(table, tree, small_cfg(inner_epochs=1), MethodConfig(),
                         np.random.default_rng(12))
        assert dump_logit_table(table.cell(0)) != dump_logit_table(initial_policy(tree))
        assert stats.frac_clipped_pos == stats.frac_clipped_neg == 0.0

    @pytest.mark.parametrize("method", ["grpo", "apo"])
    def test_old_rows_captured_before_the_first_pass(self, method):
        # Every pass after the first must see ratios against the rows the
        # groups were sampled from, not the already updated policy: the
        # step equals scalar passes against a frozen copy.
        tree = generate_tree(SMALL_ENV)
        cfg, mcfg = small_cfg(inner_epochs=3), MethodConfig(method=method, learning_rate=5.0)
        table = cell_of_one(tree)
        stats = one_step(table, tree, cfg, mcfg, np.random.default_rng(11))

        expected = start_logits(tree)
        pi_old = initial_policy(tree)
        rng = np.random.default_rng(11)
        ctx, tok, adv = concat_kept(separate_groups(
            tree, pi_old, cfg, cfg.groups_per_step, rng))
        batch = one_cell_batch(ctx, tok, adv, pi_old.dist(ctx), tree, mcfg)
        # apo's anchors come from the reference; grpo never reads it.
        assert_columns(batch, [mcfg], tree.ref_policy.dist(batch.ctx))
        assert (batch.columns.anchors is None) == (method == "grpo")
        clipped = sum(sum(scalar_pass(expected, pi_old, tree, batch, mcfg)[:2])
                      for _ in range(cfg.inner_epochs))
        assert dump_logit_table(table.cell(0)) == dump(expected)
        assert stats.frac_clipped == clipped / (len(batch) * cfg.inner_epochs) > 0

    @pytest.mark.parametrize("method, builds", [
        ("grpo", 0), ("apo", 1), ("nsr", 0), ("grpo_kl", 0), ("grpo_kl_error_only", 0)])
    def test_anchor_reference_built_once_per_step(self, monkeypatch, method, builds):
        # An anchor's reference half reads only the reference rows and the
        # tokens, which are fixed for the step: apo builds it once for all
        # three passes, the other methods never. So is its segment layout,
        # which no pass builds: apo's passes sum their anchors through it,
        # never with segment_sums, and the reference softmax is taken once
        # per step, only by the methods that read it.
        tree = generate_tree(SMALL_ENV)
        cfg, mcfg = small_cfg(inner_epochs=3), MethodConfig(method=method, learning_rate=5.0)
        calls = {"anchor_reference": [], "segment_sums": [], "ref_dist": [], "layout": [],
                 "pass": []}

        def spy(owner, name, key):
            def counted(*args, call=getattr(owner, name)):
                calls[key].append(args)
                return call(*args)
            monkeypatch.setattr(owner, name, counted)

        spy(objectives, "anchor_reference", "anchor_reference")
        spy(objectives, "segment_sums", "segment_sums")
        spy(objectives, "segment_layout", "layout")
        spy(policy_module, "segment_layout", "layout")
        layouts_in_passes = []

        def spy_pass(*args, call=trainer.apply_token_batch):
            before = len(calls["layout"])
            calls["pass"].append(args)
            out = call(*args)
            layouts_in_passes.append(len(calls["layout"]) - before)
            return out

        monkeypatch.setattr(trainer, "apply_token_batch", spy_pass)
        table = cell_of_one(tree)
        spy(tree.ref_policy, "dist", "ref_dist")
        rng = np.random.default_rng(11)
        reads_reference = method not in ("grpo", "nsr")
        sums = 0
        for step in range(1, 5):
            for key in calls:
                calls[key].clear()
            one_step(table, tree, cfg, mcfg, rng, step)
            assert len(calls["anchor_reference"]) == len(calls["layout"]) == builds
            assert len(calls["pass"]) == cfg.inner_epochs
            assert len(calls["ref_dist"]) == int(reads_reference)
            sums += len(calls["segment_sums"])
        assert layouts_in_passes == [0] * (4 * cfg.inner_epochs)
        # The spy does see the KL methods' sums, so the zeros are not vacuous.
        assert (sums > 0) == (method in ("grpo_kl", "grpo_kl_error_only"))
        assert dump_logit_table(table.cell(0)) != dump_logit_table(initial_policy(tree))

    def test_all_valid_leaves_means_bitwise_no_op(self):
        # Every rollout earns reward 1: all groups are zero-variance and the
        # policy must come out byte-identical.
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=9, seed=1)
        tree = generate_tree(env)
        table = cell_of_one(tree)
        before = dump_logit_table(table.cell(0))
        stats = one_step(table, tree, small_cfg(), MethodConfig(), np.random.default_rng(0))
        assert dump_logit_table(table.cell(0)) == before
        assert stats.mean_reward == 1.0

    @pytest.mark.parametrize("method", ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"])
    def test_single_valid_leaf_probability_rises(self, method):
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=1,
                        ref_concentration=1.0, ref_noise=0.3, seed=21)
        tree = generate_tree(env)
        (leaf,) = tree.valid_tokens.tolist()

        def leaf_prob(policy):
            prob, ctx = 1.0, tree.ROOT
            for t in leaf:
                prob *= policy.dist(ctx)[t]
                ctx = tree.child_context(ctx, t)
            return prob

        cfg, mcfg = small_cfg(total_steps=40), MethodConfig(method=method)
        gains = []
        for seed in range(10):
            table = cell_of_one(tree)
            rng = np.random.default_rng(seed)
            start = leaf_prob(table.cell(0))
            for step in range(cfg.total_steps):
                one_step(table, tree, cfg, mcfg, rng, step)
            gains.append(leaf_prob(table.cell(0)) - start)
        assert np.mean(gains) > 0

    def test_grpo_kl_step_equals_grpo_step_at_reference(self):
        # At pi_theta = pi_ref the KL gradient vanishes exactly, so one
        # single-epoch step is bitwise identical between the two methods.
        tree = generate_tree(SMALL_ENV)
        results = []
        for method in ("grpo", "grpo_kl"):
            table = cell_of_one(tree)
            one_step(table, tree, small_cfg(inner_epochs=1), MethodConfig(method=method),
                     np.random.default_rng(7))
            results.append(dump_logit_table(table.cell(0)))
        assert results[0] == results[1]

    def test_apo_degenerate_anchor_is_counted_not_fatal(self):
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=1,
                        ref_concentration=2.0, ref_noise=0.2, seed=2)
        tree = generate_tree(env)
        cfg, mcfg = small_cfg(total_steps=30), MethodConfig(method="apo", anchor_k=1)
        table = cell_of_one(tree)
        rng = np.random.default_rng(4)
        total_degenerate = 0
        for step in range(cfg.total_steps):
            total_degenerate += one_step(table, tree, cfg, mcfg, rng, step).degenerate_anchors
        assert total_degenerate > 0


class TestTokenMeanAggregation:
    def test_replicated_batch_gives_identical_update(self):
        tree = generate_tree(SMALL_ENV)
        mcfg = MethodConfig(method="apo", anchor_k=3)
        pi_old = initial_policy(tree).copy()
        rng = np.random.default_rng(9)
        ((tokens, contexts, _, advantages),) = separate_groups(
            tree, pi_old, TrainConfig(), 1, rng)
        batch = one_cell_batch(
            contexts.ravel(),
            tokens.ravel(),
            np.repeat(advantages, tree.depth),
            pi_old.dist(contexts.ravel()),
            tree,
            mcfg,
        )
        assert len(batch) == tokens.size
        thrice_batch = one_cell_batch(
            *(np.tile(a, (3,) + (1,) * (a.ndim - 1))
              for a in (batch.ctx, batch.tok, batch.adv, batch.old)),
            tree, mcfg,
        )

        once_table, thrice_table = cell_of_one(tree), cell_of_one(tree)
        apply_one(once_table, tree, mcfg, batch)
        apply_one(thrice_table, tree, mcfg, thrice_batch)
        once, thrice = once_table.cell(0), thrice_table.cell(0)
        for ctx in range(len(once)):
            np.testing.assert_allclose(
                once.logits(ctx), thrice.logits(ctx), rtol=0, atol=1e-12
            )


METHODS = ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"]


def scalar_pass(z, pi_old, tree, batch, mcfg):
    """The per-token oracle for apply_token_batch: method_token_update per
    token, summed per context in batch order, then lr/N added to the
    logits ``z`` in place. Returns the clipped counts of the positive- and
    negative-advantage tokens and the degenerate-anchor count."""
    policy = LogitTable(z)  # the logits before the pass
    grads = {}
    clipped_pos = clipped_neg = degenerate = 0
    for ctx, token, adv in zip(batch.ctx.tolist(), batch.tok.tolist(), batch.adv.tolist()):
        update = method_token_update(
            policy.dist(ctx), pi_old.dist(ctx), tree.ref_policy.dist(ctx), token, adv, mcfg
        )
        clipped_pos += update.clipped and adv > 0.0
        clipped_neg += update.clipped and adv < 0.0
        degenerate += update.degenerate_anchor
        if ctx in grads:
            grads[ctx] += update.gradient
        else:
            grads[ctx] = update.gradient.copy()
    scale = mcfg.learning_rate / len(batch)
    for ctx, g in grads.items():
        z[ctx] += scale * g
    return clipped_pos, clipped_neg, degenerate


def assert_rows_match_scalar(policy, pi_old, tree, batch, mcfg):
    """Every token's dense gradient row and flags equal the scalar kernel's
    bit for bit, sign of zero included (a last-bit difference in a gradient
    can round away in the logits it is added to)."""
    P, O, Q = (t.dist(batch.ctx) for t in (policy, pi_old, tree.ref_policy))
    grads, clipped, degenerate = token_gradients(P, batch.old_tok, batch.flat, batch.adv,
                                                 batch.columns)
    for i, (token, adv) in enumerate(zip(batch.tok.tolist(), batch.adv.tolist())):
        update = method_token_update(P[i], O[i], Q[i], token, adv, mcfg)
        assert grads[i].tobytes() == update.gradient.tobytes()
        assert (clipped[i], degenerate[i]) == (update.clipped, update.degenerate_anchor)


# (env, method overrides, inner epochs, copies of the batch)
DENSE_CASES = {
    # One pass: every ratio is exactly 1.
    "one-epoch": (SMALL_ENV, {}, 1, 1),
    # Two passes at lr 5: ratios leave the trust region and tokens clip.
    "two-epochs": (SMALL_ENV, {"learning_rate": 5.0}, 2, 1),
    # anchor_k=1 on a peaked reference: the error token is often the Top-1.
    "degenerate-anchor": (
        EnvConfig(depth=3, branching=3, num_valid_leaves=2, ref_concentration=2.0, seed=2),
        {"anchor_k": 1, "learning_rate": 2.0}, 2, 1,
    ),
    # 9 or 10 anchor members: numpy sums them pairwise.
    "wide-anchor": (
        EnvConfig(depth=2, branching=12, num_valid_leaves=5, seed=3),
        {"anchor_k": 10, "learning_rate": 1.0}, 2, 1,
    ),
    # Every leaf valid: every group is skipped and the batch is empty.
    "all-skipped": (EnvConfig(depth=2, branching=3, num_valid_leaves=9, seed=1), {}, 2, 1),
    "replicated-3x": (SMALL_ENV, {"learning_rate": 5.0}, 2, 3),
}


class TestDenseMatchesScalar:
    @pytest.mark.parametrize("case", list(DENSE_CASES))
    @pytest.mark.parametrize("method", METHODS)
    def test_logits_and_counts_bitwise(self, method, case):
        env, overrides, epochs, copies = DENSE_CASES[case]
        tree = generate_tree(env)
        mcfg = MethodConfig(method=method, **overrides)
        totals = np.zeros(3, dtype=int)
        for seed in range(3):
            pi_old = initial_policy(tree).copy()
            rng = np.random.default_rng(seed)
            groups = separate_groups(tree, pi_old, TrainConfig(), 4, rng)
            ctx, tok, adv = (np.tile(a, copies) for a in concat_kept(groups))
            batch = one_cell_batch(ctx, tok, adv, pi_old.dist(ctx), tree, mcfg)
            dense_table, scalar = cell_of_one(tree), start_logits(tree)
            for _ in range(epochs):
                if len(batch):
                    assert_rows_match_scalar(dense_table.cell(0), pi_old, tree, batch, mcfg)
                counts = apply_one(dense_table, tree, mcfg, batch)
                if len(batch):
                    assert counts == scalar_pass(scalar, pi_old, tree, batch, mcfg)
                else:
                    assert counts == (0, 0, 0)
                assert dump_logit_table(dense_table.cell(0)) == dump(scalar)
                totals += counts
        if case == "all-skipped":
            assert dump_logit_table(dense_table.cell(0)) == dump_logit_table(initial_policy(tree))
        if case in ("two-epochs", "replicated-3x") and method != "nsr":
            assert totals[0] + totals[1] > 0  # the clipped branch was exercised
        if case == "degenerate-anchor" and method == "apo":
            assert totals[2] > 0


def separate_groups_step(z, tree, cfg, mcfg, rng, step):
    """The step as first written: G separate rollout calls, per-group
    advantages, skipped groups dropped, the kept ones concatenated, then
    scalar passes against the sampling policy's frozen copy, on the
    logits ``z`` in place. Returns the groups, the batch arrays and the
    step's statistics."""
    pi_old = LogitTable(z)
    groups = separate_groups(tree, pi_old, cfg, cfg.groups_per_step, rng)
    ctx, tok, adv = concat_kept(groups)
    batch = one_cell_batch(ctx, tok, adv, pi_old.dist(ctx), tree, mcfg)
    pos = neg = degenerate = 0
    for _ in range(cfg.inner_epochs):
        if len(batch):
            p, n, d = scalar_pass(z, pi_old, tree, batch, mcfg)
            pos, neg, degenerate = pos + p, neg + n, degenerate + d
    pos_updates = int(np.sum(adv > 0.0)) * cfg.inner_epochs
    neg_updates = int(np.sum(adv < 0.0)) * cfg.inner_epochs
    stats = StepStats(
        step=step,
        mean_reward=float(np.mean(np.concatenate([g[2] for g in groups]))),
        frac_clipped=(pos + neg) / max(1, ctx.size * cfg.inner_epochs),
        degenerate_anchors=degenerate,
        wallclock_ms=0.0,
        rollout_ms=0.0,
        update_ms=0.0,
        frac_clipped_pos=pos / pos_updates if pos_updates else 0.0,
        frac_clipped_neg=neg / neg_updates if neg_updates else 0.0,
    )
    return groups, (ctx, tok, adv, pi_old.dist(ctx), tree.ref_policy.dist(ctx)), stats


def bits(a):
    return np.asarray(a).dtype.kind, np.asarray(a).shape, np.asarray(a).tobytes()


TIMINGS = ("wallclock_ms", "rollout_ms", "update_ms", "eval_ms")


def untimed(stats):
    return {k: v for k, v in vars(stats).items() if k not in TIMINGS}


# env, group count and method overrides of each one-rollout-per-step case
STEP_CASES = {
    "small-tree": (SMALL_ENV, 2, {"learning_rate": 5.0}),
    # Every leaf valid: every group is skipped and the step changes nothing.
    "all-skipped": (EnvConfig(depth=2, branching=3, num_valid_leaves=9, seed=1), 3, {}),
    "depth-1-binary": (EnvConfig(depth=1, branching=2, num_valid_leaves=1, seed=4), 3,
                       {"learning_rate": 2.0, "anchor_k": 1}),
    "depth-6": (EnvConfig(depth=6, branching=3, num_valid_leaves=40, seed=6), 4,
                {"learning_rate": 2.0, "anchor_k": 2}),
}


class TestOneRolloutPerStep:
    """train_step draws all G groups with one rollout call and takes their
    advantages as one (G, n) array; every step must equal the step written
    out with separate groups, bit for bit, generator state included."""

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("case", list(STEP_CASES))
    @pytest.mark.parametrize("method", METHODS)
    def test_step_equals_separate_groups(self, monkeypatch, method, case, epochs):
        env, groups, overrides = STEP_CASES[case]
        tree = generate_tree(env)
        cfg = small_cfg(groups_per_step=groups, inner_epochs=epochs)
        mcfg = MethodConfig(method=method, **overrides)
        seen = {}

        def spy(name, record):
            func = getattr(trainer, name)

            def wrapped(*args):
                result = func(*args)
                seen.setdefault(name, []).append(record(args, result))
                return result
            monkeypatch.setattr(trainer, name, wrapped)

        spy("rollout", lambda args, result: result)
        spy("group_advantages", lambda args, result: result)
        spy("apply_token_batch", lambda args, result: args[3])

        table, expected = cell_of_one(tree), start_logits(tree)
        rng, rng_old = np.random.default_rng(31), np.random.default_rng(31)
        n = cfg.group_size
        for step in range(1, 4):
            seen.clear()
            sampled_from = table.cell(0)
            stats = one_step(table, tree, cfg, mcfg, rng, step)
            old_groups, old_batch, old_stats = separate_groups_step(
                expected, tree, cfg, mcfg, rng_old, step)

            [(tokens, contexts, rewards, rows)] = seen["rollout"]
            assert tokens.shape == contexts.shape == (groups * n, tree.depth)
            assert bits(rows) == bits(sampled_from.dist(contexts))
            assert bits(tokens) == bits(np.concatenate([g[0] for g in old_groups]))
            assert bits(contexts) == bits(np.concatenate([g[1] for g in old_groups]))
            assert bits(rewards) == bits(np.concatenate([g[2] for g in old_groups]))
            [advantages] = seen["group_advantages"]
            assert bits(advantages) == bits(np.stack([g[3] for g in old_groups]))
            batches = seen["apply_token_batch"]
            assert len(batches) == epochs and all(b is batches[0] for b in batches)
            batch = batches[0]
            for got, want in zip((batch.ctx, batch.tok, batch.adv, batch.old), old_batch):
                assert bits(got) == bits(want)
            # Reference rows only at the tokens that read them: none for
            # grpo and nsr.
            assert_columns(batch, [mcfg], old_batch[4])
            assert dump_logit_table(table.cell(0)) == dump(expected)
            assert untimed(stats) == untimed(old_stats)
            assert rng.bit_generator.state == rng_old.bit_generator.state
        policy = table.cell(0)
        if case == "all-skipped":
            assert dump_logit_table(policy) == dump_logit_table(initial_policy(tree))
        else:
            assert dump_logit_table(policy) != dump_logit_table(initial_policy(tree))


STACK_ENV = EnvConfig(depth=3, branching=9, num_valid_leaves=5, seed=8)
# (method config, seed) of each cell of a mixed stack: all five methods,
# unequal learning rates, apo with a Top-1 and a Top-8 anchor, and two
# adjacent cells with one config.
STACK_CELLS = [
    (MethodConfig(method="grpo", learning_rate=0.3), 1),
    (MethodConfig(method="grpo_kl", learning_rate=1.0), 2),
    (MethodConfig(method="grpo_kl_error_only", learning_rate=2.0), 3),
    (MethodConfig(method="nsr", learning_rate=0.5), 4),
    (MethodConfig(method="apo", anchor_k=1, learning_rate=2.0), 5),
    (MethodConfig(method="apo", anchor_k=8, learning_rate=1.5), 6),
    (MethodConfig(method="apo", anchor_k=8, learning_rate=1.5), 7),
]


# Group settings off their defaults, so the trainer must read the schedule's.
STACK_TRAIN = TrainConfig(total_steps=8, groups_per_step=2, inner_epochs=2, eval_every=3,
                          eval_samples_k=8, group_size=4, adv_eps=1e-3)


def methods_of(cells):
    return [m for m, _ in cells]


def cell_rngs(cells, offset=0):
    """One generator per cell, seeded with ``offset`` plus its seed."""
    return [np.random.default_rng(offset + seed) for _, seed in cells]


def assert_cells_evaluate_as_alone(table, tree, step, k, rngs, alone_rngs, support_k):
    """One evaluation of the stack: each cell's record and evaluation
    stream equal those of a stack of one built from the cell's copy, bit
    for bit."""
    records = evaluate(table, tree, step, k, rngs, support_k)
    assert len(records) == len(rngs)
    for s, record in enumerate(records):
        [want] = evaluate(StackedTable(table.cell(s), 1), tree, step, k, [alone_rngs[s]],
                          support_k)
        assert [bits(v) for v in vars(record).values()] == \
            [bits(v) for v in vars(want).values()], (s, step)
        assert rngs[s].bit_generator.state == alone_rngs[s].bit_generator.state


class TestStack:
    """Cells trained in lockstep on one stacked table equal the same cells
    trained alone, bit for bit, and each equals the step written out with
    separate groups and scalar passes."""

    def test_stack_equals_cells_trained_alone(self, monkeypatch):
        tree = generate_tree(STACK_ENV)
        train, mcfgs = STACK_TRAIN, methods_of(STACK_CELLS)
        table = StackedTable(initial_policy(tree), len(mcfgs))
        alone = [cell_of_one(tree) for _ in mcfgs]
        oracles = [start_logits(tree) for _ in mcfgs]
        rngs, alone_rngs, oracle_rngs = (cell_rngs(STACK_CELLS) for _ in range(3))
        calls = []

        def spy(*args, call=trainer.token_gradients):
            calls.append(args)
            return call(*args)

        monkeypatch.setattr(trainer, "token_gradients", spy)
        mixed = 0
        for step in range(1, train.total_steps + 1):
            calls.clear()
            stacked = step_stack(table, tree, train, mcfgs, rngs, step)
            stacked_calls = len(calls)
            kept = []
            for s, mcfg in enumerate(mcfgs):
                stats = one_step(alone[s], tree, train, mcfg, alone_rngs[s], step)
                _, (ctx, *_), want = separate_groups_step(oracles[s], tree, train, mcfg,
                                                          oracle_rngs[s], step)
                kept.append(ctx.size)
                assert untimed(stacked[s]) == untimed(stats) == untimed(want), (s, step)
                cell = dump_logit_table(table.cell(s))
                assert cell == dump_logit_table(alone[s].cell(0)) == dump(oracles[s])
                assert rngs[s].bit_generator.state == oracle_rngs[s].bit_generator.state
            # One token_gradients call per pass for the whole stack, when
            # any cell has tokens.
            assert stacked_calls == train.inner_epochs * any(kept)
            mixed += 0 in kept and any(kept)
        assert mixed > 0  # steps where one cell keeps no group and another does
        for s in range(len(mcfgs)):
            assert dump_logit_table(table.cell(s)) != dump_logit_table(initial_policy(tree))

    def test_contexts_a_cell_never_updated_read_the_start_row(self, monkeypatch):
        tree = generate_tree(STACK_ENV)
        reference = dump_logit_table(tree.ref_policy)
        mcfgs = methods_of(STACK_CELLS)
        start = initial_policy(tree)
        table = StackedTable(start, len(mcfgs))
        written = set()

        def spy(keys, block, call=table.add_to_logits):
            written.update(keys.tolist())
            return call(keys, block)

        monkeypatch.setattr(table, "add_to_logits", spy)
        rngs = cell_rngs(STACK_CELLS)
        for step in range(1, 9):
            step_stack(table, tree, STACK_TRAIN, mcfgs, rngs, step)
        # Neither the start table nor the tree's reference was written.
        assert dump_logit_table(tree.ref_policy) == reference == dump_logit_table(start)
        c = tree.num_contexts()
        start_rows = tree.ref_policy.dist(np.arange(c))
        for s in range(len(mcfgs)):
            updated = np.isin(np.arange(c) + s * c, list(written))
            assert updated.any() and not updated.all()
            rows = table.cell(s).dist(np.arange(c))
            assert rows[~updated].tobytes() == start_rows[~updated].tobytes()

    def test_run_experiment_records_equal_cells_run_alone(self):
        tree = generate_tree(STACK_ENV)
        train = replace(STACK_TRAIN, total_steps=10)
        stacked = run_experiment(train, STACK_CELLS, tree)
        assert len(stacked) == len(STACK_CELLS)
        for cell, (records, stats) in zip(STACK_CELLS, stacked):
            [(want_records, want_stats)] = run_experiment(train, [cell], tree)
            assert records == want_records
            assert [untimed(x) for x in stats] == [untimed(x) for x in want_stats]
            assert [r.step for r in records] == [0, 3, 6, 9, 10]

    def test_knob_grid_equals_cells_run_alone_in_one_kernel_call_per_pass(self, monkeypatch):
        # One method's knobs side by side, as a frontier sweep stacks them:
        # every coefficient is a per-token column, so the whole grid makes
        # one token_gradients call per pass and one anchor_reference call
        # per step, over the apo rows of both anchor_k values, and each cell
        # still equals the cell run alone, bit for bit.
        cells = [
            (MethodConfig(method="grpo", clip_eps=0.1), 1),
            (MethodConfig(method="grpo_kl", kl_coef=0.01), 2),
            (MethodConfig(method="grpo_kl", kl_coef=0.3), 3),
            (MethodConfig(method="grpo_kl_error_only"), 4),
            (MethodConfig(method="nsr"), 5),
            (MethodConfig(method="apo", pull_coef=0.1, anchor_k=4), 6),
            (MethodConfig(method="apo", pull_coef=0.2, anchor_k=2), 7),
        ]
        tree = generate_tree(STACK_ENV)
        train = replace(STACK_TRAIN, total_steps=10)
        alone = [run_experiment(train, [cell], tree) for cell in cells]
        passes, steps = [], []

        def spy_batch(*args, call=trainer.apply_token_batch):
            passes.append([args[3]])
            return call(*args)

        def spy_kernel(*args, call=trainer.token_gradients):
            passes[-1].append(args)
            return call(*args)

        def spy_step(*args, call=trainer.train_step):
            steps.append([])
            return call(*args)

        def spy_anchor(Q, tokens, k, call=objectives.anchor_reference):
            steps[-1].append(k.tolist())
            return call(Q, tokens, k)

        monkeypatch.setattr(trainer, "apply_token_batch", spy_batch)
        monkeypatch.setattr(trainer, "token_gradients", spy_kernel)
        monkeypatch.setattr(trainer, "train_step", spy_step)
        monkeypatch.setattr(objectives, "anchor_reference", spy_anchor)
        stacked = run_experiment(train, cells, tree)
        for (records, stats), [(want_records, want_stats)] in zip(stacked, alone):
            assert records == want_records
            assert [untimed(x) for x in stats] == [untimed(x) for x in want_stats]
        assert len(passes) == train.total_steps * train.inner_epochs
        assert all(len(calls) == (1 if len(batch) else 0) for batch, *calls in passes)
        anchor_k = {5: 4, 6: 2}
        both = 0
        for (batch, *_), built in zip(passes[::train.inner_epochs], steps):
            neg = batch.cell.compress(batch.adv < 0.0).tolist()
            want = [anchor_k[s] for s in neg if s in anchor_k]
            assert built == ([want] if want else [])
            both += len(set(want)) == 2
        assert both > 0

    def test_cells_share_the_stack_timings(self):
        # The step and its evaluation are the stack's, eval_ms included.
        tree = generate_tree(STACK_ENV)
        stacked = run_experiment(replace(STACK_TRAIN, total_steps=3), STACK_CELLS, tree)
        for step in range(3):
            times = {tuple(getattr(stats[step], k) for k in TIMINGS) for _, stats in stacked}
            assert len(times) == 1
        assert stacked[0][1][1].eval_ms == 0.0 < stacked[0][1][2].eval_ms

    @pytest.mark.parametrize("support_k", [None, 3])
    def test_evaluation_equals_cells_evaluated_alone(self, support_k):
        # At the start and after every step, each cell's record and
        # evaluation stream equal those of a stack of one built from the
        # cell's copy, bit for bit, while the cells have updated different
        # contexts: some a context that others have not.
        tree = generate_tree(STACK_ENV)
        mcfgs, steps = methods_of(STACK_CELLS), STACK_TRAIN.total_steps
        c, start = tree.num_contexts(), start_logits(tree)
        table = StackedTable(initial_policy(tree), len(mcfgs))
        train_rngs = cell_rngs(STACK_CELLS)
        rngs, alone_rngs = (cell_rngs(STACK_CELLS, 100) for _ in range(2))
        mixed = 0
        for step in range(steps + 1):
            if step:
                step_stack(table, tree, STACK_TRAIN, mcfgs, train_rngs, step)
            assert_cells_evaluate_as_alone(table, tree, step, 8, rngs, alone_rngs, support_k)
            moved = np.stack([(table.cell(s).logits(np.arange(c)) != start).any(axis=1)
                              for s in range(len(mcfgs))])
            mixed += bool((moved.any(axis=0) & ~moved.all(axis=0)).any())
        assert mixed == steps

    def test_sixty_cell_evaluation_equals_cells_evaluated_alone(self):
        # Five methods x 12 seeds: every cell's record at the start and
        # after 3 steps, bit for bit, and its evaluation stream.
        tree = generate_tree(STACK_ENV)
        cells = [(MethodConfig(method=m, learning_rate=1.0), seed)
                 for m in METHODS for seed in range(12)]
        table = StackedTable(initial_policy(tree), len(cells))
        train_rngs = cell_rngs(cells)
        rngs, alone_rngs = ([np.random.default_rng(100 + s) for s in range(len(cells))]
                            for _ in range(2))
        assert len(cells) == 60
        assert_cells_evaluate_as_alone(table, tree, 0, 16, rngs, alone_rngs, 4)
        for step in range(1, 4):
            step_stack(table, tree, STACK_TRAIN, methods_of(cells), train_rngs, step)
        assert_cells_evaluate_as_alone(table, tree, 3, 16, rngs, alone_rngs, 4)

    @pytest.mark.parametrize("methods", [("grpo", "apo"), ("grpo", "nsr"), tuple(METHODS)])
    def test_reference_rows_only_at_the_tokens_of_methods_that_read_them(self, monkeypatch,
                                                                        methods):
        # One reference read per step, at the contexts of the tokens that
        # read it only (the KL rows and apo's negative-advantage rows), in
        # their order: none for a grpo and nsr stack.
        tree = generate_tree(STACK_ENV)
        cells = [(MethodConfig(method=m, learning_rate=1.0), seed)
                 for seed, m in enumerate(methods, 1)]
        table = StackedTable(initial_policy(tree), len(cells))
        rngs = cell_rngs(cells)
        ref_dist, taken, batches = tree.ref_policy.dist, [], []

        def dist(ctx):
            taken.append(np.array(ctx))
            return ref_dist(ctx)

        def spy(*args, call=trainer.apply_token_batch):
            batches.append(args[3])
            return call(*args)

        monkeypatch.setattr(tree.ref_policy, "dist", dist)
        monkeypatch.setattr(trainer, "apply_token_batch", spy)
        reads = np.array([m not in ("grpo", "nsr") for m in methods])
        mixed = 0
        for step in range(1, 6):
            taken.clear()
            batches.clear()
            step_stack(table, tree, STACK_TRAIN, methods_of(cells), rngs, step)
            batch = batches[0]
            cols = batch.columns
            read = np.concatenate((cols.kl, cols.apo))
            assert len(taken) == int(read.size > 0)
            if read.size:
                assert taken[0].tolist() == batch.ctx[read].tolist()
            assert_columns(batch, methods_of(cells), ref_dist(batch.ctx))
            cell_reads = reads.take(batch.cell)
            mixed += bool(cell_reads.any() and not cell_reads.all())
        assert mixed > 0 or not reads.any()  # a step with tokens of both kinds

    def test_evaluate_runs_once_per_eval_step(self, monkeypatch):
        calls = []

        def spy(table, tree, step, *args, call=trainer.evaluate):
            records = call(table, tree, step, *args)
            calls.append((step, len(records)))
            return records

        monkeypatch.setattr(trainer, "evaluate", spy)
        run_experiment(replace(STACK_TRAIN, total_steps=10), STACK_CELLS,
                       generate_tree(STACK_ENV))
        assert calls == [(step, len(STACK_CELLS)) for step in (0, 3, 6, 9, 10)]


class TestStackMemory:
    def test_five_cells_cost_less_than_two_tables_beyond_the_start_copy(self):
        # A plain (S*C, V) stack of 5 cells would hold 4 tables more.
        env = EnvConfig(depth=6, branching=8, num_valid_leaves=64, seed=0)
        tree = generate_tree(env)
        train = replace(STACK_TRAIN, total_steps=3, eval_samples_k=16)
        table_bytes = tree.num_contexts() * tree.branching * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(train, STACK_CELLS[:5], tree)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert table_bytes < peak < 3 * table_bytes


class TestRunExperiment:
    def test_support_k_past_the_branching_is_rejected_before_step_0(self, monkeypatch):
        # A Top-50 of 3 tokens holds them all and would score support mass
        # 1.0 whatever the policy.
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=r"support_k must be in \[1, 3\], got 50"):
            run_experiment(TrainConfig(total_steps=2, eval_every=1, eval_samples_k=8,
                                       support_k=50),
                           [(MethodConfig(), 0)], generate_tree(EnvConfig(2, 3, 2)))
        assert steps == []

    def test_zero_steps_gives_single_initial_record(self):
        records, stats = run_small(small_cfg(total_steps=0))
        assert len(records) == 1
        assert records[0].step == 0
        assert stats == []

    def test_determinism(self):
        cfg = small_cfg(total_steps=4)
        a, _ = run_small(cfg, "apo")
        b, _ = run_small(cfg, "apo")
        assert a == b

    def test_eval_cadence(self):
        records, stats = run_small(small_cfg(total_steps=5, eval_every=2))
        assert [r.step for r in records] == [0, 2, 4, 5]
        assert len(stats) == 5

    def test_final_eval_not_duplicated(self):
        records, _ = run_small(small_cfg(total_steps=4, eval_every=2))
        assert [r.step for r in records] == [0, 2, 4]

    def test_jsonl_format(self, tmp_path):
        _, stats = run_small(small_cfg(total_steps=2))
        path = tmp_path / "steps.jsonl"
        write_steps_jsonl(stats, path)
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["step"] for l in lines] == [1, 2]
        assert list(lines[0]) == [
            "step", "mean_reward", "frac_clipped", "degenerate_anchors", "wallclock_ms",
            "rollout_ms", "update_ms", "eval_ms", "frac_clipped_pos", "frac_clipped_neg",
        ]
        for line in lines:
            assert line["rollout_ms"] + line["update_ms"] <= line["wallclock_ms"]
        # eval_every=2: step 2 is evaluated, step 1 is not.
        assert lines[0]["eval_ms"] == 0.0 < lines[1]["eval_ms"]


    def test_jsonl_lines_are_the_json_dumps_bytes(self, tmp_path):
        # Lines come from one format string with each value's repr, which is
        # what json writes for ints and finite floats.
        values = [0.0, -0.0, 5e-324, 1e16, 0.1, 1 / 3, 2.5e-8, 123456.789]
        # Each float field takes every value once over the lines.
        rotations = [values[i:] + values[:i] for i in range(len(values))]
        stats = [StepStats(2**70 + i, r[0], r[1], 10**20 + i, *r[2:])
                 for i, r in enumerate(rotations)]
        path = tmp_path / "steps.jsonl"
        write_steps_jsonl(stats, path)
        assert path.read_bytes() == "".join(json.dumps(vars(s)) + "\n" for s in stats).encode()
        write_steps_jsonl([], path)
        assert path.read_bytes() == b""


COLLAPSE_ENV = EnvConfig(depth=4, branching=8, num_valid_leaves=8, ref_concentration=1.5,
                         ref_noise=0.75, seed=0)


COLLAPSE_TRAIN = TrainConfig(groups_per_step=4, inner_epochs=2, eval_samples_k=64, support_k=4)


def collapse_cfg(method):
    overrides = {"anchor_k": 4} if method == "apo" else {}
    return MethodConfig(method=method, learning_rate=0.2, **overrides)


def signed_zeros(a):
    return (a == 0.0) & np.signbit(a)


class TestScatterByBincount:
    """Each pass sums its gradients per context with ``np.bincount``, which
    starts a sum at +0.0; the ``np.add.at`` into ``-0.0`` it replaced starts
    at -0.0. The two blocks must be equal, and differ in the sign bit only
    in cells where every term is -0.0."""

    @pytest.mark.parametrize("underflow", [False, True], ids=["reference", "underflow"])
    @pytest.mark.parametrize("method", METHODS)
    def test_block_equals_add_at_into_negative_zero(self, monkeypatch, method, underflow):
        tree = generate_tree(COLLAPSE_ENV)
        mcfg = collapse_cfg(method)
        start = initial_policy(tree)
        if underflow:
            # Token 0's probability underflows to 0.0 in every row, so a
            # positive-advantage token's push gradient holds -0.0 there.
            z = start_logits(tree)
            z[:, 0] += -1000.0
            start = LogitTable(z)
        table = cell_of_one(tree, start)
        passes = []

        def spy_gradients(*args, call=trainer.token_gradients):
            result = call(*args)
            passes.append({"grads": result[0]})
            return result

        def spy_add(ctx, block, call=table.add_to_logits):
            passes[-1]["ctxs"], passes[-1]["block"] = ctx, block.copy()
            return call(ctx, block)

        batches = []

        def spy_batch(*args, call=trainer.apply_token_batch):
            batches.append(args[3])
            return call(*args)

        monkeypatch.setattr(trainer, "token_gradients", spy_gradients)
        monkeypatch.setattr(trainer, "apply_token_batch", spy_batch)
        monkeypatch.setattr(table, "add_to_logits", spy_add)
        rng = np.random.default_rng(5)
        for step in range(1, 21):
            one_step(table, tree, COLLAPSE_TRAIN, mcfg, rng, step)
        nonempty = [b for b in batches if len(b)]
        assert len(passes) == len(nonempty) > 10
        all_negative_zero = 0
        for seen, batch in zip(passes, nonempty):
            grads = seen["grads"]
            u, v = batch.keys.size, table.vocab_size
            expected = np.full((u, v), -0.0)
            np.add.at(expected, batch.at, grads)
            expected = (mcfg.learning_rate / len(batch)) * expected
            assert seen["ctxs"] is batch.keys
            got = seen["block"]
            np.testing.assert_array_equal(got, expected)  # -0.0 == +0.0 here
            # Cells with a term that is not -0.0.
            live = np.zeros((u, v), dtype=bool)
            np.logical_or.at(live, batch.at, ~signed_zeros(grads))
            assert (np.signbit(got) == np.signbit(expected))[live].all()
            assert (got[~live] == 0.0).all() and signed_zeros(expected[~live]).all()
            all_negative_zero += int((~live).sum())
        if underflow and method in ("grpo", "grpo_kl_error_only", "apo"):
            assert all_negative_zero > 0  # the sign clause is not vacuous

    @pytest.mark.parametrize("method", METHODS)
    def test_trained_collapse_cell_holds_no_negative_zero_logit(self, method):
        # z + d is -0.0 only when z and d both are, and a generated tree's
        # reference holds no -0.0, so no sign of a zero sum reaches a logit.
        tree = generate_tree(COLLAPSE_ENV)
        mcfg = collapse_cfg(method)
        table = cell_of_one(tree)
        rng = np.random.default_rng(2)
        for step in range(1, 101):
            one_step(table, tree, COLLAPSE_TRAIN, mcfg, rng, step)
        policy = table.cell(0)
        z = policy.logits(np.arange(len(policy)))
        assert not signed_zeros(tree.ref_policy.logits(np.arange(len(policy)))).any()
        assert not signed_zeros(z).any()
        assert dump_logit_table(policy) != dump_logit_table(initial_policy(tree))


# All five methods on the collapse tree; apo with a Top-1 anchor, which is
# empty (degenerate) whenever the token is the reference's top token.
MIRROR_CELLS = [(replace(collapse_cfg(m), anchor_k=1), seed) for seed, m in enumerate(METHODS, 1)]


class TestSoftmaxMirror:
    """A stack whose capacity covers every key keeps each row's softmax
    beside its logits and takes it only at the rows it writes; with one row
    less it takes the softmax where it reads. The two train the same cells
    bit for bit, and the reference reads as its softmax either way."""

    def run(self, tree, capacity, softmaxed):
        """Six steps of ``MIRROR_CELLS`` on a stack of ``capacity`` rows
        started from ``tree.ref_policy``: every train and evaluation
        rollout's outputs, each step's untimed statistics, every cell's
        logits after each step, the evaluation records at step 0 and after
        each step, and the rows ``softmaxed`` and written after the stack
        is built."""
        train, mcfgs = replace(COLLAPSE_TRAIN, total_steps=6), methods_of(MIRROR_CELLS)
        c = tree.num_contexts()
        table = StackedTable(tree.ref_policy, len(mcfgs), capacity)
        softmaxed.clear()
        written = []

        def add_to_logits(keys, block, call=table.add_to_logits):
            written.append(keys.size)
            return call(keys, block)

        table.add_to_logits = add_to_logits
        stack = Stack(train, mcfgs, tree)
        rngs, eval_rngs = cell_rngs(MIRROR_CELLS), cell_rngs(MIRROR_CELLS, 100)
        out = {"stats": [], "logits": [], "records": [evaluate(table, tree, 0, 16, eval_rngs, 4)]}
        for step in range(1, train.total_steps + 1):
            out["stats"].append([untimed(s) for s in train_step(table, tree, stack, rngs, step)])
            out["logits"].append([bits(table.cell(s).logits(np.arange(c)))
                                  for s in range(len(mcfgs))])
            out["records"].append(evaluate(table, tree, step, 16, eval_rngs, 4))
        return out, sum(softmaxed), sum(written)

    def test_mirrored_and_unmirrored_stacks_train_bit_for_bit_alike(self, monkeypatch):
        tree = generate_tree(COLLAPSE_ENV)
        c, cells = tree.num_contexts(), len(MIRROR_CELLS)
        ref = tree.ref_policy
        every = np.arange(c)
        rollouts, softmaxed = [], []

        def spy_rollout(*args, call=rollout):
            outputs = call(*args)
            rollouts.append([bits(a) for a in outputs])
            return outputs

        def spy_softmax(z, call=policy_module._softmax_rows):
            softmaxed.append(len(np.atleast_2d(z)))
            return call(z)

        def reference_softmaxed():
            """Checks that the reference reads as the softmax of its logits,
            bit for bit, and returns the rows it took the softmax of."""
            want = [bits(softmax(ref.logits(every))), bits(softmax(ref.logits(0)))]
            softmaxed.clear()
            assert [bits(ref.dist(every)), bits(ref.dist(0))] == want
            return sum(softmaxed)

        monkeypatch.setattr(trainer, "rollout", spy_rollout)
        monkeypatch.setattr(metrics, "rollout", spy_rollout)
        monkeypatch.setattr(policy_module, "_softmax_rows", spy_softmax)
        mirrored, mirrored_softmaxed, mirrored_written = self.run(tree, cells * c, softmaxed)
        mirrored_rollouts = rollouts[:]
        assert reference_softmaxed() == 0  # the mirrored start table gathers
        rollouts.clear()
        plain, plain_softmaxed, plain_written = self.run(tree, cells * c - 1, softmaxed)
        assert reference_softmaxed() == c + 1  # and now takes the softmax again
        assert rollouts == mirrored_rollouts
        assert plain["logits"] == mirrored["logits"]
        # repr, which round-trips every float, tells the bits apart.
        for key in ("stats", "records"):
            assert repr(plain[key]) == repr(mirrored[key])
        # The mirrored stack takes the softmax of the rows it writes and of
        # nothing else; the other takes it where it reads.
        assert mirrored_softmaxed == mirrored_written > 0
        assert plain_softmaxed > plain_written == mirrored_written
        assert sum(s["degenerate_anchors"] for step in mirrored["stats"] for s in step) > 0


WRAPPER_FILES = ("fromnumeric.py", "_methods.py", "numeric.py")


def wrapper_calls(fn):
    """Names of the functions ``fn`` enters that are defined in numpy's
    Python wrapper modules (numpy 1.x ``core/`` or 2.x ``_core/``)."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and os.path.basename(frame.f_code.co_filename) in WRAPPER_FILES:
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return entered


class TestNoNumpyPythonWrappers:
    """A train step and an evaluation call numpy's C functions directly: a
    wrapper such as ``np.mean``, ``ndarray.sum`` or ``np.ones`` passes
    through Python in ``fromnumeric.py``, ``_methods.py`` or ``numeric.py``
    first, which at a step's array sizes costs about what the arithmetic
    does."""

    @pytest.mark.parametrize("method", METHODS)
    def test_train_step(self, monkeypatch, method):
        tree = generate_tree(COLLAPSE_ENV)
        mcfg = collapse_cfg(method)
        table = cell_of_one(tree)
        rng = np.random.default_rng(0)
        for step in range(1, 41):  # warm up: groups with mixed rewards
            one_step(table, tree, COLLAPSE_TRAIN, mcfg, rng, step)
        batches = []

        def spy(*args, call=trainer.apply_token_batch):
            batches.append(args[3])
            return call(*args)

        monkeypatch.setattr(trainer, "apply_token_batch", spy)
        assert wrapper_calls(lambda: one_step(table, tree, COLLAPSE_TRAIN, mcfg, rng, 41)) == []
        assert len(batches) == COLLAPSE_TRAIN.inner_epochs and len(batches[0])
        if method == "apo":
            # Rows of both anchor widths: tokens inside and outside the Top-K.
            assert len(batches[0].columns.anchors[3]) == 2

    def test_evaluate(self):
        # A stack of two cells, read at start rows and private rows alike.
        tree = generate_tree(COLLAPSE_ENV)
        mcfgs = [collapse_cfg(method) for method in ("grpo", "apo")]
        table = StackedTable(initial_policy(tree), len(mcfgs))
        rngs = [np.random.default_rng(seed) for seed in range(len(mcfgs))]
        step_stack(table, tree, COLLAPSE_TRAIN, mcfgs, rngs, 1)
        assert wrapper_calls(lambda: evaluate(table, tree, 1, 64, rngs, 4)) == []

    def test_profile_sees_a_wrapper(self):
        assert wrapper_calls(lambda: np.mean(np.ones(3))) != []
