import numpy as np
import pytest

import anchorlab.objectives as objectives
import anchorlab.trainer as trainer
from anchorlab.env import EnvConfig, generate_tree, rollout, verify
from anchorlab.gradients import grad_log_prob
from anchorlab.objectives import (
    MethodConfig,
    group_advantages,
    method_token_update,
    token_gradients,
)
from anchorlab.policy import dump_logit_table
from anchorlab.trainer import (
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


def separate_groups(tree, policy, mcfg, groups, rng):
    """The step's groups drawn one at a time, as G separate ``rollout``
    calls of n rows, with rewards from :func:`verify` and advantages from
    one 1-D :func:`group_advantages` call per group."""
    out = []
    for _ in range(groups):
        tokens, contexts, _, _ = rollout(tree, policy, mcfg.group_size, rng)
        rewards = np.array([verify(tree, row) for row in tokens])
        out.append((tokens, contexts, rewards, group_advantages(rewards, mcfg.adv_eps)))
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


def small_cfg(method="grpo", **overrides):
    base = dict(
        method_config=MethodConfig(method=method),
        env=SMALL_ENV,
        total_steps=5,
        groups_per_step=2,
        inner_epochs=2,
        eval_every=2,
        eval_samples_k=8,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainStep:
    def test_first_pass_update_matches_ratio_one_formula(self):
        # With one inner epoch pi_theta stays equal to pi_old during the
        # pass, every push ratio is exactly 1, and the grpo update reduces
        # to token-mean advantage-weighted log-prob ascent.
        tree = generate_tree(SMALL_ENV)
        cfg = small_cfg(inner_epochs=1)
        policy = initial_policy(tree)
        rng = np.random.default_rng(12)
        stats = train_step(policy, tree, cfg, rng)
        assert stats.frac_clipped == 0.0

        expected = initial_policy(tree)
        pi_old = expected.copy()
        rng2 = np.random.default_rng(12)
        ctxs, toks, advs = concat_kept(separate_groups(
            tree, pi_old, cfg.method_config, cfg.groups_per_step, rng2))
        grads = {}
        for ctx, token, adv in zip(ctxs.tolist(), toks.tolist(), advs.tolist()):
            dz = adv * grad_log_prob(pi_old.dist(ctx), token)
            grads[ctx] = grads.get(ctx, 0.0) + dz
        for ctx, g in grads.items():
            expected.add_to_logits(
                ctx, cfg.method_config.learning_rate * g / ctxs.size
            )
        for ctx in range(len(expected)):
            np.testing.assert_allclose(
                policy.logits(ctx), expected.logits(ctx), atol=1e-12
            )

    @pytest.mark.parametrize("method", ["grpo", "apo"])
    def test_old_rows_captured_before_the_first_pass(self, method):
        # Every pass after the first must see ratios against the rows the
        # groups were sampled from, not the already updated policy: the
        # step equals scalar passes against a frozen copy.
        tree = generate_tree(SMALL_ENV)
        cfg = small_cfg(method, inner_epochs=3,
                        method_config=MethodConfig(method=method, learning_rate=5.0))
        policy = initial_policy(tree)
        stats = train_step(policy, tree, cfg, np.random.default_rng(11))

        expected = initial_policy(tree)
        pi_old = expected.copy()
        rng = np.random.default_rng(11)
        ctx, tok, adv = concat_kept(separate_groups(
            tree, pi_old, cfg.method_config, cfg.groups_per_step, rng))
        batch = TokenBatch(ctx, tok, adv, pi_old.dist(ctx), tree.ref_policy, cfg.method_config)
        if method == "apo":
            assert batch.ref.tobytes() == tree.ref_policy.dist(batch.ctx).tobytes()
        else:
            assert batch.ref is None  # grpo never reads the reference
        clipped = sum(scalar_pass(expected, pi_old, tree, batch, cfg.method_config)[0]
                      for _ in range(cfg.inner_epochs))
        assert dump_logit_table(policy) == dump_logit_table(expected)
        assert stats.frac_clipped == clipped / (len(batch) * cfg.inner_epochs) > 0

    @pytest.mark.parametrize("method, builds", [
        ("grpo", 0), ("apo", 1), ("nsr", 0), ("grpo_kl", 0), ("grpo_kl_error_only", 0)])
    def test_anchor_reference_built_once_per_step(self, monkeypatch, method, builds):
        # An anchor's reference half reads only the reference rows and the
        # tokens, which are fixed for the step: apo builds it once for all
        # three passes, the other methods never. Both names are spied, so a
        # build inside token_gradients counts too. apo's passes sum their
        # anchors from its gather tables, never with segment_sums, and the
        # reference softmax is taken once per step, only by the methods
        # that read it.
        tree = generate_tree(SMALL_ENV)
        cfg = small_cfg(method, inner_epochs=3,
                        method_config=MethodConfig(method=method, learning_rate=5.0))
        calls = {"anchor_reference": [], "segment_sums": [], "ref_dist": []}

        def spy(owner, name, key):
            def counted(*args, call=getattr(owner, name)):
                calls[key].append(args)
                return call(*args)
            monkeypatch.setattr(owner, name, counted)

        for module in (trainer, objectives):
            spy(module, "anchor_reference", "anchor_reference")
        spy(objectives, "segment_sums", "segment_sums")
        policy = initial_policy(tree)
        spy(tree.ref_policy, "dist", "ref_dist")
        rng = np.random.default_rng(11)
        reads_reference = method not in ("grpo", "nsr")
        sums = 0
        for step in range(1, 5):
            for key in calls:
                calls[key].clear()
            train_step(policy, tree, cfg, rng, step)
            assert len(calls["anchor_reference"]) == builds
            assert len(calls["ref_dist"]) == int(reads_reference)
            sums += len(calls["segment_sums"])
        # The spy does see the KL methods' sums, so the zeros are not vacuous.
        assert (sums > 0) == (method in ("grpo_kl", "grpo_kl_error_only"))
        assert dump_logit_table(policy) != dump_logit_table(initial_policy(tree))

    def test_all_valid_leaves_means_bitwise_no_op(self):
        # Every rollout earns reward 1: all groups are zero-variance and the
        # policy must come out byte-identical.
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=9, seed=1)
        tree = generate_tree(env)
        cfg = small_cfg(env=env)
        policy = initial_policy(tree)
        before = dump_logit_table(policy)
        stats = train_step(policy, tree, cfg, np.random.default_rng(0))
        assert dump_logit_table(policy) == before
        assert stats.mean_reward == 1.0

    @pytest.mark.parametrize("method", ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"])
    def test_single_valid_leaf_probability_rises(self, method):
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=1,
                        ref_concentration=1.0, ref_noise=0.3, seed=21)
        tree = generate_tree(env)
        (leaf,) = tree.valid_leaves

        def leaf_prob(policy):
            prob, ctx = 1.0, tree.ROOT
            for t in leaf:
                prob *= policy.dist(ctx)[t]
                ctx = tree.child_context(ctx, t)
            return prob

        gains = []
        for seed in range(10):
            cfg = small_cfg(method, env=env, total_steps=40, seed=seed)
            policy = initial_policy(tree)
            rng = np.random.default_rng(seed)
            start = leaf_prob(policy)
            for step in range(cfg.total_steps):
                train_step(policy, tree, cfg, rng, step)
            gains.append(leaf_prob(policy) - start)
        assert np.mean(gains) > 0

    def test_grpo_kl_step_equals_grpo_step_at_reference(self):
        # At pi_theta = pi_ref the KL gradient vanishes exactly, so one
        # single-epoch step is bitwise identical between the two methods.
        tree = generate_tree(SMALL_ENV)
        results = []
        for method in ("grpo", "grpo_kl"):
            cfg = small_cfg(method, inner_epochs=1)
            policy = initial_policy(tree)
            train_step(policy, tree, cfg, np.random.default_rng(7))
            results.append(dump_logit_table(policy))
        assert results[0] == results[1]

    def test_apo_degenerate_anchor_is_counted_not_fatal(self):
        env = EnvConfig(depth=2, branching=3, num_valid_leaves=1,
                        ref_concentration=2.0, ref_noise=0.2, seed=2)
        tree = generate_tree(env)
        cfg = small_cfg(
            "apo", env=env, total_steps=30,
            method_config=MethodConfig(method="apo", anchor_k=1),
        )
        policy = initial_policy(tree)
        rng = np.random.default_rng(4)
        total_degenerate = 0
        for step in range(cfg.total_steps):
            total_degenerate += train_step(policy, tree, cfg, rng, step).degenerate_anchors
        assert total_degenerate > 0


class TestTokenMeanAggregation:
    def test_replicated_batch_gives_identical_update(self):
        tree = generate_tree(SMALL_ENV)
        mcfg = MethodConfig(method="apo", anchor_k=3)
        pi_old = initial_policy(tree).copy()
        rng = np.random.default_rng(9)
        ((tokens, contexts, _, advantages),) = separate_groups(tree, pi_old, mcfg, 1, rng)
        batch = TokenBatch(
            contexts.ravel(),
            tokens.ravel(),
            np.repeat(advantages, tree.depth),
            pi_old.dist(contexts.ravel()),
            tree.ref_policy,
            mcfg,
        )
        assert len(batch) == tokens.size
        thrice_batch = TokenBatch(
            *(np.tile(a, (3,) + (1,) * (a.ndim - 1))
              for a in (batch.ctx, batch.tok, batch.adv, batch.old)),
            tree.ref_policy, mcfg,
        )

        once = initial_policy(tree)
        apply_token_batch(once, tree, mcfg, batch)
        thrice = initial_policy(tree)
        apply_token_batch(thrice, tree, mcfg, thrice_batch)
        for ctx in range(len(once)):
            np.testing.assert_allclose(
                once.logits(ctx), thrice.logits(ctx), rtol=0, atol=1e-12
            )


METHODS = ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"]


def scalar_pass(policy, pi_old, tree, batch, mcfg):
    """The per-token oracle for apply_token_batch: method_token_update per
    token, summed per context in batch order, then lr/N."""
    grads = {}
    clipped = degenerate = 0
    for ctx, token, adv in zip(batch.ctx.tolist(), batch.tok.tolist(), batch.adv.tolist()):
        update = method_token_update(
            policy.dist(ctx), pi_old.dist(ctx), tree.ref_policy.dist(ctx), token, adv, mcfg
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


def assert_rows_match_scalar(policy, pi_old, tree, batch, mcfg):
    """Every token's dense gradient row and flags equal the scalar kernel's
    bit for bit, sign of zero included (a last-bit difference in a gradient
    can round away in the logits it is added to)."""
    P, O, Q = (t.dist(batch.ctx) for t in (policy, pi_old, tree.ref_policy))
    grads, clipped, degenerate = token_gradients(
        P, batch.old_tok, batch.ref, batch.flat, batch.adv, mcfg, batch.anchors)
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
        totals = np.zeros(2, dtype=int)
        for seed in range(3):
            pi_old = initial_policy(tree).copy()
            rng = np.random.default_rng(seed)
            ctx, tok, adv = (np.tile(a, copies)
                             for a in concat_kept(separate_groups(tree, pi_old, mcfg, 4, rng)))
            batch = TokenBatch(ctx, tok, adv, pi_old.dist(ctx), tree.ref_policy, mcfg)
            dense, scalar = initial_policy(tree), initial_policy(tree)
            for _ in range(epochs):
                if len(batch):
                    assert_rows_match_scalar(dense, pi_old, tree, batch, mcfg)
                counts = apply_token_batch(dense, tree, mcfg, batch)
                if len(batch):
                    assert counts == scalar_pass(scalar, pi_old, tree, batch, mcfg)
                else:
                    assert counts == (0, 0)
                assert dump_logit_table(dense) == dump_logit_table(scalar)
                totals += counts
        if case == "all-skipped":
            assert dump_logit_table(dense) == dump_logit_table(initial_policy(tree))
        if case in ("two-epochs", "replicated-3x") and method != "nsr":
            assert totals[0] > 0  # the clipped branch was exercised
        if case == "degenerate-anchor" and method == "apo":
            assert totals[1] > 0


def separate_groups_step(policy, tree, cfg, rng, step):
    """The step as first written: G separate rollout calls, per-group
    advantages, skipped groups dropped, the kept ones concatenated, then
    scalar passes against the sampling policy's frozen copy. Returns the
    groups, the batch arrays and the step's statistics."""
    mcfg = cfg.method_config
    pi_old = policy.copy()
    groups = separate_groups(tree, pi_old, mcfg, cfg.groups_per_step, rng)
    ctx, tok, adv = concat_kept(groups)
    batch = TokenBatch(ctx, tok, adv, pi_old.dist(ctx), tree.ref_policy, mcfg)
    clipped = degenerate = 0
    for _ in range(cfg.inner_epochs):
        if len(batch):
            c, d = scalar_pass(policy, pi_old, tree, batch, mcfg)
            clipped, degenerate = clipped + c, degenerate + d
    stats = StepStats(
        step=step,
        mean_reward=float(np.mean(np.concatenate([g[2] for g in groups]))),
        frac_clipped=clipped / max(1, ctx.size * cfg.inner_epochs),
        degenerate_anchors=degenerate,
        wallclock_ms=0.0,
        rollout_ms=0.0,
        update_ms=0.0,
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
        cfg = small_cfg(method, env=env, groups_per_step=groups, inner_epochs=epochs,
                        method_config=MethodConfig(method=method, **overrides))
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

        policy, expected = initial_policy(tree), initial_policy(tree)
        rng, rng_old = np.random.default_rng(31), np.random.default_rng(31)
        n = cfg.method_config.group_size
        for step in range(1, 4):
            seen.clear()
            sampled_from = policy.copy()
            stats = train_step(policy, tree, cfg, rng, step)
            old_groups, old_batch, old_stats = separate_groups_step(
                expected, tree, cfg, rng_old, step)

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
            if method in ("grpo", "nsr"):
                assert batch.ref is None  # neither method reads the reference
            else:
                assert bits(batch.ref) == bits(old_batch[4])
            assert dump_logit_table(policy) == dump_logit_table(expected)
            assert untimed(stats) == untimed(old_stats)
            assert rng.bit_generator.state == rng_old.bit_generator.state
        if case == "all-skipped":
            assert dump_logit_table(policy) == dump_logit_table(initial_policy(tree))
        else:
            assert dump_logit_table(policy) != dump_logit_table(initial_policy(tree))


class TestRunExperiment:
    def test_zero_steps_gives_single_initial_record(self):
        cfg = small_cfg(total_steps=0)
        records, stats = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].step == 0
        assert stats == []

    def test_determinism(self):
        cfg = small_cfg("apo", total_steps=4)
        a, _ = run_experiment(cfg)
        b, _ = run_experiment(cfg)
        assert a == b

    def test_eval_cadence(self):
        cfg = small_cfg(total_steps=5, eval_every=2)
        records, stats = run_experiment(cfg)
        assert [r.step for r in records] == [0, 2, 4, 5]
        assert len(stats) == 5

    def test_final_eval_not_duplicated(self):
        cfg = small_cfg(total_steps=4, eval_every=2)
        records, _ = run_experiment(cfg)
        assert [r.step for r in records] == [0, 2, 4]

    def test_jsonl_format(self, tmp_path):
        cfg = small_cfg(total_steps=2)
        _, stats = run_experiment(cfg)
        path = tmp_path / "steps.jsonl"
        write_steps_jsonl(stats, path)
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["step"] for l in lines] == [1, 2]
        assert set(lines[0]) == {
            "step", "mean_reward", "frac_clipped", "degenerate_anchors", "wallclock_ms",
            "rollout_ms", "update_ms", "eval_ms",
        }
        for line in lines:
            assert line["rollout_ms"] + line["update_ms"] <= line["wallclock_ms"]
        # eval_every=2: step 2 is evaluated, step 1 is not.
        assert lines[0]["eval_ms"] == 0.0 < lines[1]["eval_ms"]
