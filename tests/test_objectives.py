import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlab.anchor import DegenerateAnchorError, build_anchor, grad_anchor_ratio, top_k
from anchorlab.gradients import (
    finite_diff,
    grad_log_prob,
    grad_prob,
    grad_support_mass,
    max_relative_error,
)
from anchorlab.objectives import (
    _ROLES,
    METHODS,
    CellMethods,
    MethodConfig,
    anchor_reference,
    apo_rectified_ratio,
    apo_token_update,
    group_advantages,
    grpo_token_loss,
    grpo_token_update,
    kl_penalty,
    method_token_update,
    token_gradients,
)
from anchorlab.policy import layout_sums, softmax
from anchorlab.trainer import TrainConfig

DEFAULTS = MethodConfig()


def random_dists(rng, v):
    return (
        softmax(rng.normal(0, 1.5, size=v)),
        softmax(rng.normal(0, 1.5, size=v)),
        softmax(rng.normal(0, 1.0, size=v)),
    )


class TestMethodConfig:
    def test_defaults(self):
        cfg = MethodConfig()
        assert cfg.clip_eps == 0.2
        assert cfg.push_coef == 1.05
        assert cfg.pull_coef == 0.1
        assert cfg.anchor_k == 8
        assert cfg.kl_coef == 0.01
        # The group settings are the schedule's, shared by a stack's cells.
        assert TrainConfig().group_size == 8
        assert not hasattr(cfg, "group_size") and not hasattr(cfg, "adv_eps")

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodConfig(method="ppo")
        with pytest.raises(ValueError):
            MethodConfig(clip_eps=0.0)
        with pytest.raises(ValueError):
            TrainConfig(group_size=1)


class TestGroupAdvantages:
    def test_single_winner(self):
        rewards = [1.0, 0.0, 0.0, 0.0]
        # Hand-derived: mean 1/4, population std sqrt(3)/4.
        mean = sum(rewards) / 4
        std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / 4)
        expected = [(r - mean) / (std + 1e-6) for r in rewards]
        np.testing.assert_allclose(group_advantages(rewards), expected, atol=1e-12)
        np.testing.assert_allclose(
            group_advantages(rewards), [1.7320, -0.5773, -0.5773, -0.5773], atol=1e-3
        )

    def test_zero_variance_is_exact_zero(self):
        np.testing.assert_array_equal(group_advantages([1, 1, 1, 1]), np.zeros(4))
        np.testing.assert_array_equal(group_advantages([0, 0]), np.zeros(2))

    def test_pair(self):
        np.testing.assert_allclose(group_advantages([1.0, 0.0]), [1.0, -1.0], atol=1e-5)

    def test_too_small_group(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])
        with pytest.raises(ValueError):
            group_advantages(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            group_advantages(1.0)


def first_written_advantages(rewards, adv_eps):
    """The 1-D advantages as first written, one group per call."""
    r = np.asarray(rewards, dtype=np.float64)
    std = float(r.std())
    if std == 0.0:
        return np.zeros_like(r)
    return (r - r.mean()) / (std + adv_eps)


@st.composite
def reward_blocks(draw):
    """A (G, n) block: 0/1 rewards, arbitrary floats, or constant rows."""
    g, n = draw(st.integers(1, 6)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(g):
        kind = draw(st.sampled_from(["binary", "float", "constant"]))
        if kind == "binary":
            rows.append(rng.integers(0, 2, n))
        elif kind == "float":
            rows.append(rng.normal(0.0, draw(st.floats(1e-3, 1e3)), n))
        else:
            rows.append(np.full(n, draw(st.floats(-1e3, 1e3))))
    return np.array(rows, dtype=np.float64)


class TestGroupAdvantagesOfManyGroups:
    @settings(max_examples=150, deadline=None)
    @given(rewards=reward_blocks(), adv_eps=st.floats(1e-12, 1.0))
    def test_rows_bitwise_equal_one_group_calls(self, rewards, adv_eps):
        block = group_advantages(rewards, adv_eps)
        assert block.shape == rewards.shape and block.dtype == np.float64
        for row, got in zip(rewards, block):
            want = first_written_advantages(row, adv_eps)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == group_advantages(row, adv_eps).tobytes()

    def test_20000_groups_bitwise_equal_numpy_std_and_mean(self):
        # The mean is taken once; the result must still be the one
        # r.std() and r.mean() give, bit for bit.
        rng = np.random.default_rng(20000)
        checked = 0
        for n in (2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 129, 300):
            for rewards in (rng.integers(0, 2, (800, n)).astype(np.float64),
                            rng.normal(rng.normal(0, 100), 10.0 ** rng.uniform(-3, 3), (800, n))):
                std = rewards.std(axis=-1, keepdims=True)
                want = np.where(std == 0.0, 0.0,
                                (rewards - rewards.mean(axis=-1, keepdims=True)) / (std + 1e-6))
                assert group_advantages(rewards, 1e-6).tobytes() == want.tobytes()
                checked += len(rewards)
        assert checked >= 20000

    def test_zero_variance_rows_are_exact_positive_zeros(self):
        rewards = np.array([[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 0]])
        block = group_advantages(rewards)
        assert block[[0, 2]].tobytes() == np.zeros((2, 4)).tobytes()
        assert np.all(block[1] != 0.0)


class TestGrpoTokenLoss:
    def test_inside_window(self):
        value, deriv, clipped = grpo_token_loss(1.0, 2.0, DEFAULTS)
        assert (value, deriv, clipped) == (2.0, 2.0, False)

    def test_positive_advantage_upper_clip(self):
        value, deriv, clipped = grpo_token_loss(1.5, 1.0, DEFAULTS)
        assert value == pytest.approx(1.2)
        assert deriv == 0.0 and clipped

    def test_negative_advantage_lower_clip(self):
        # Below 1 - eps with A < 0 the objective flattens at (1-eps)*A.
        value, deriv, clipped = grpo_token_loss(0.7, -1.0, DEFAULTS)
        assert value == pytest.approx(-0.8)
        assert deriv == 0.0 and clipped

    def test_min_branch_enumeration(self):
        # min(r*A, clip(r)*A) over all sign/region combinations.
        for ratio in (0.5, 0.9, 1.0, 1.1, 1.7):
            for adv in (-2.0, -0.5, 0.5, 2.0):
                value, deriv, clipped = grpo_token_loss(ratio, adv, DEFAULTS)
                clipped_ratio = min(max(ratio, 0.8), 1.2)
                assert value == pytest.approx(min(ratio * adv, clipped_ratio * adv))
                if clipped:
                    assert deriv == 0.0
                else:
                    assert deriv == adv

    def test_boundary_tie_is_unclipped(self):
        for adv in (-1.0, 1.0):
            _, deriv, clipped = grpo_token_loss(0.8, adv, DEFAULTS)
            assert not clipped and deriv == adv
            _, deriv, clipped = grpo_token_loss(1.2, adv, DEFAULTS)
            assert not clipped and deriv == adv


class TestRectifiedRatio:
    def test_default_coefficients(self):
        assert apo_rectified_ratio(1.0, 1.0, DEFAULTS) == pytest.approx(0.95, abs=1e-15)

    def test_no_anchor_ablation(self):
        cfg = MethodConfig(method="apo", pull_coef=0.0)
        assert apo_rectified_ratio(0.9, 5.0, cfg) == pytest.approx(1.05 * 0.9)

    def test_can_go_negative(self):
        assert apo_rectified_ratio(0.0, 2.0, DEFAULTS) == pytest.approx(-0.2)


class TestKlPenalty:
    def test_identical_distributions(self):
        dist = np.array([0.5, 0.3, 0.2])
        value, grad = kl_penalty(dist, dist.copy())
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-15)

    def test_reference_value(self):
        value, _ = kl_penalty(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.1308, abs=1e-4)

    def test_nonnegativity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = int(rng.integers(2, 16))
            p, _, q = random_dists(rng, v)
            assert kl_penalty(p, q)[0] >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            z = rng.normal(0, 1.5, size=v)
            q = softmax(rng.normal(0, 1, size=v))
            _, grad = kl_penalty(softmax(z), q)
            fd = finite_diff(lambda zz: kl_penalty(softmax(zz), q)[0], z)
            assert max_relative_error(grad, fd) < 1e-6

    def test_zero_reference_mass_rejected(self):
        with pytest.raises(ValueError):
            kl_penalty(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestApoTokenUpdate:
    def test_positive_advantage_delegates_to_grpo(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            policy, old, ref = random_dists(rng, v)
            token = int(rng.integers(v))
            adv = float(abs(rng.normal(0, 1)))
            cfg = MethodConfig(method="apo")
            a = apo_token_update(policy, old, ref, token, adv, cfg)
            b = grpo_token_update(policy, old, token, adv, cfg)
            assert a.surrogate_value == b.surrogate_value
            assert a.clipped == b.clipped
            np.testing.assert_array_equal(a.gradient, b.gradient)

    def test_reference_point_update(self):
        # pi_theta = pi_old = pi_ref gives push = anchor = 1, so the
        # rectified ratio is exactly lambda - beta inside the window.
        dist = np.array([0.5, 0.3, 0.1, 0.1])
        cfg = MethodConfig(method="apo")
        update = apo_token_update(dist, dist, dist, 0, -1.0, cfg)
        assert update.surrogate_value == pytest.approx(-0.95, abs=1e-12)
        assert not update.clipped
        assert np.linalg.norm(update.gradient) > 0

    def test_strong_pull_clips_to_zero_gradient(self):
        dist = np.array([0.5, 0.3, 0.1, 0.1])
        cfg = MethodConfig(method="apo", push_coef=1.3, pull_coef=1.0)
        update = apo_token_update(dist, dist, dist, 0, -1.0, cfg)
        assert update.clipped
        np.testing.assert_array_equal(update.gradient, np.zeros(4))

    def test_degenerate_anchor_falls_back_to_push_only(self):
        ref = np.array([0.7, 0.1, 0.1, 0.1])
        policy = np.array([0.4, 0.2, 0.2, 0.2])
        cfg = MethodConfig(method="apo", anchor_k=1)
        update = apo_token_update(policy, policy, ref, 0, -1.0, cfg)
        assert update.degenerate_anchor
        # beta treated as zero: the surviving force is the scaled push.
        expected = -1.0 * 1.05 * grad_prob(policy, 0) / policy[0]
        np.testing.assert_allclose(update.gradient, expected, atol=1e-12)

    def test_error_token_never_in_own_anchor(self):
        rng = np.random.default_rng(7)
        cfg = MethodConfig(method="apo", anchor_k=3)
        for _ in range(200):
            v = int(rng.integers(2, 10))
            policy, old, ref = random_dists(rng, v)
            token = int(rng.integers(v))
            update = apo_token_update(policy, old, ref, token, -1.0, cfg)
            assert np.isfinite(update.gradient).all()


class TestMethodDispatch:
    def test_every_method_has_roles(self):
        # The gradient kernel reads a token's role from _ROLES, and gradcheck
        # checks the surrogate of every METHODS entry: the two name one set.
        assert set(_ROLES) == set(METHODS)

    def test_grpo_kl_reduces_to_grpo_at_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            policy, old, _ = random_dists(rng, v)
            token = int(rng.integers(v))
            adv = float(rng.normal(0, 1))
            kl_cfg = MethodConfig(method="grpo_kl")
            plain_cfg = MethodConfig(method="grpo")
            with_kl = method_token_update(policy, old, policy.copy(), token, adv, kl_cfg)
            plain = method_token_update(policy, old, policy.copy(), token, adv, plain_cfg)
            np.testing.assert_allclose(with_kl.gradient, plain.gradient, atol=1e-12)

    def test_nsr_ignores_positive_advantages(self):
        policy, old, ref = random_dists(np.random.default_rng(9), 6)
        cfg = MethodConfig(method="nsr")
        update = method_token_update(policy, old, ref, 2, 1.0, cfg)
        np.testing.assert_array_equal(update.gradient, np.zeros(6))
        assert update.surrogate_value == 0.0

    def test_nsr_negative_is_weighted_likelihood_descent(self):
        policy, old, ref = random_dists(np.random.default_rng(10), 6)
        cfg = MethodConfig(method="nsr")
        adv = -0.7
        update = method_token_update(policy, old, ref, 2, adv, cfg)
        np.testing.assert_allclose(
            update.gradient, adv * grad_log_prob(policy, 2), atol=1e-15
        )
        assert not update.clipped

    def test_error_only_kl_matches_grpo_on_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            policy, old, ref = random_dists(rng, v)
            token = int(rng.integers(v))
            adv = float(abs(rng.normal(0, 1)))
            cond = method_token_update(
                policy, old, ref, token, adv, MethodConfig(method="grpo_kl_error_only")
            )
            plain = method_token_update(
                policy, old, ref, token, adv, MethodConfig(method="grpo")
            )
            np.testing.assert_array_equal(cond.gradient, plain.gradient)
            assert cond.surrogate_value == plain.surrogate_value

    def test_error_only_kl_active_on_negative(self):
        policy, old, ref = random_dists(np.random.default_rng(12), 5)
        cond = method_token_update(
            policy, old, ref, 1, -1.0, MethodConfig(method="grpo_kl_error_only")
        )
        plain = method_token_update(policy, old, ref, 1, -1.0, MethodConfig(method="grpo"))
        _, kl_grad = kl_penalty(policy, ref)
        np.testing.assert_allclose(
            cond.gradient, plain.gradient - 0.01 * kl_grad, atol=1e-12
        )


def kernel_rows(v, k, n, seed):
    """``n`` tokens of a vocabulary of ``v``: their tokens, policy, old and
    reference rows, and advantages of both signs and zero. Some policy
    entries off the sampled token underflow to 0.0, which the KL sums
    skip, and ratios reach e^0.4 away from 1, so tokens clip."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(v, size=n)
    z = rng.normal(0, 2.0, size=(n, v))
    far = rng.random((n, v)) < 0.15
    far[np.arange(n), tokens] = False
    z[far] -= 800.0
    P = softmax(z)
    O = softmax(z + rng.normal(0, 0.4, size=(n, v)))
    Q = softmax(rng.normal(0, 1.5, size=(n, v)))
    adv = rng.choice([-1.5, -0.4, 0.0, 0.6, 2.0], size=n)
    return tokens, P, O, Q, adv


def dense_gradients(cfgs, cell, tokens, P, O, Q, adv):
    """:func:`token_gradients` of tokens of cells with configs ``cfgs``,
    token i of cell ``cell[i]``, and the reference rows it was given."""
    v = P.shape[1]
    flat = np.arange(tokens.size) * v + tokens
    read = []

    def reference(rows):
        read.append(rows)
        return Q.take(rows, axis=0)

    cols = CellMethods(cfgs).columns(cell, tokens, adv, reference)
    return token_gradients(P, O.take(flat), flat, adv, cols), cols, read


def assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate):
    for i in range(tokens.size):
        cfg = cfgs[cell[i]]
        update = method_token_update(P[i], O[i], Q[i], int(tokens[i]), float(adv[i]), cfg)
        assert grads[i].tobytes() == update.gradient.tobytes(), i
        assert clipped[i] == update.clipped and degenerate[i] == update.degenerate_anchor


class TestTokenGradients:
    """The dense kernel against the scalar oracle, row by row, bit for bit."""

    # (8, 8) and (40, 16) give anchors of 7 and 15 members, which numpy
    # would sum in another order with a trailing zero.
    @pytest.mark.parametrize(
        "v, k", [(2, 1), (3, 1), (3, 5), (8, 4), (8, 8), (12, 10), (40, 16), (40, 20)])
    @pytest.mark.parametrize("method", ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"])
    def test_rows_equal_scalar_kernel_bitwise(self, method, v, k):
        n = 300
        tokens, P, O, Q, adv = kernel_rows(v, k, n, 100 * v + k)
        cfgs, cell = [MethodConfig(method=method, anchor_k=k)], np.zeros(n, dtype=np.intp)
        assert np.any(P == 0.0)
        (grads, clipped, degenerate), _, read = dense_gradients(cfgs, cell, tokens, P, O, Q, adv)
        assert grads.shape == (n, v) and clipped.shape == degenerate.shape == (n,)
        assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate)
        if method != "nsr":
            assert clipped.any() and not clipped.all()
        assert degenerate.any() == (method == "apo" and k == 1)
        # The reference is read once, at the rows of the KL penalty or
        # apo's negative branch only.
        reads = {"grpo_kl": adv == adv, "grpo_kl_error_only": adv < 0.0, "apo": adv < 0.0}
        if method in reads:
            [rows] = read
            assert rows.tolist() == reads[method].nonzero()[0].tolist()
        else:
            assert read == []

    @pytest.mark.parametrize("v", [3, 8, 40])
    def test_mixed_configs_in_one_call(self, v):
        # A knob grid of every method in one call, each token under its own
        # cell's config: clip bounds, KL and pull coefficients and anchor
        # widths as per-token columns, the cells' tokens interleaved.
        cfgs = [
            MethodConfig(method="grpo", clip_eps=0.1),
            MethodConfig(method="grpo"),
            MethodConfig(method="grpo_kl", kl_coef=0.01),
            MethodConfig(method="grpo_kl", kl_coef=0.3, clip_eps=0.3),
            MethodConfig(method="grpo_kl_error_only", kl_coef=1.0),
            MethodConfig(method="nsr"),
            MethodConfig(method="apo", pull_coef=0.1, anchor_k=4),
            MethodConfig(method="apo", pull_coef=0.2, anchor_k=2, push_coef=1.1),
            MethodConfig(method="apo", pull_coef=0.05, anchor_k=1, clip_eps=0.25),
            MethodConfig(method="apo", pull_coef=0.3, anchor_k=4),
            # At V = 40 these give anchors of 6 to 16 members, across
            # numpy's 8-term pairwise boundary, in the one layout.
            MethodConfig(method="apo", anchor_k=7),
            MethodConfig(method="apo", anchor_k=8),
            MethodConfig(method="apo", anchor_k=9),
            MethodConfig(method="apo", anchor_k=16),
        ]
        n = 900
        tokens, P, O, Q, adv = kernel_rows(v, 4, n, v)
        # Every fourth token is its reference's Top-1, which leaves a Top-1
        # anchor empty.
        zq = np.log(Q)
        zq[np.arange(0, n, 4), tokens[::4]] += 10.0
        Q = softmax(zq)
        cell = np.random.default_rng(v).integers(len(cfgs), size=n)
        (grads, clipped, degenerate), cols, read = dense_gradients(
            cfgs, cell, tokens, P, O, Q, adv)
        assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate)
        assert clipped.any() and degenerate.any()
        # One reference read: the KL rows, then the apo rows.
        [rows] = read
        assert rows.tolist() == cols.kl.tolist() + cols.apo.tolist()
        method = np.array([cfg.method for cfg in cfgs]).take(cell)
        neg = adv < 0.0
        assert cols.kl.tolist() == ((method == "grpo_kl") | (
            (method == "grpo_kl_error_only") & neg)).nonzero()[0].tolist()
        assert cols.apo.tolist() == ((method == "apo") & neg).nonzero()[0].tolist()
        assert cols.nsr.tolist() == (method == "nsr").nonzero()[0].tolist()

    def test_kl_skips_entries_zero_in_both_rows(self):
        # A reference that underflows to 0 where the policy does too: the
        # entry is never divided (0/0 would warn) and adds nothing.
        n = 200
        tokens, P, O, Q, adv = kernel_rows(8, 4, n, 5)
        Q = np.where(P == 0.0, 0.0, Q)
        cfgs, cell = [MethodConfig(method="grpo_kl")], np.zeros(n, dtype=np.intp)
        (grads, clipped, degenerate), _, _ = dense_gradients(cfgs, cell, tokens, P, O, Q, adv)
        assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coef", ["push_coef", "pull_coef"])
    def test_coefficient_past_float64_range_warns_on_no_gated_row(self, coef):
        # At a coefficient of 1e308 the products of a row the window gates
        # overflow, and the scalar kernel forms none of them: the dense
        # kernel may not warn there either, and keeps the scalar bits. The
        # ratios are a second pass's, some above 1, so the rectified ratio
        # itself overflows. In every third row the policy has no mass on the
        # anchor (nor the old policy, so its ratio stays near 1), so at
        # pull_coef 1e308 those rows can still be in the window.
        n = 600
        tokens, P, O, Q, adv = kernel_rows(8, 4, n, 11)
        # An advantage of -2.5 times 1e308 overflows, in the scalar kernel
        # too, so it is kept off the rows that can be in the window.
        adv = np.where(adv < -1.0, -2.5, adv)
        adv[::3] = np.maximum(adv[::3], -0.9)
        for i in range(0, n, 3):
            anchor = [t for t in top_k(Q[i], 4) if t != tokens[i]]
            P[i, anchor] = O[i, anchor] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        O /= O.sum(axis=1, keepdims=True)
        cfgs = [MethodConfig(method="apo", anchor_k=4, **{coef: 1e308})]
        cell = np.zeros(n, dtype=np.intp)
        (grads, clipped, degenerate), cols, _ = dense_gradients(cfgs, cell, tokens, P, O, Q, adv)
        assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate)
        flat = np.arange(n) * 8 + tokens
        assert (P.take(flat) > O.take(flat)).take(cols.apo).any()
        gated = clipped.take(cols.apo)
        assert gated.any()
        # Only the anchor-free rows escape a pull of 1e308; no row escapes
        # a push of 1e308.
        assert (~gated).any() == (coef == "pull_coef")
        assert (cols.apo.take((~gated).nonzero()[0]) % 3 == 0).all()

    def test_one_anchor_reference_for_every_anchor_k(self, monkeypatch):
        import anchorlab.objectives as objectives

        calls = []

        def spy(Q, tokens, k, call=objectives.anchor_reference):
            calls.append((len(Q), k.tolist()))
            return call(Q, tokens, k)

        monkeypatch.setattr(objectives, "anchor_reference", spy)
        cfgs = [MethodConfig(method="apo", anchor_k=k) for k in (4, 2, 4, 1)]
        n = 200
        tokens, P, O, Q, adv = kernel_rows(8, 4, n, 3)
        cell = np.arange(n) % len(cfgs)
        (grads, clipped, degenerate), cols, _ = dense_gradients(cfgs, cell, tokens, P, O, Q, adv)
        assert_rows_equal_scalar(cfgs, cell, tokens, P, O, Q, adv, grads, clipped, degenerate)
        # One call, at the negative-advantage tokens only, each with its
        # cell's width.
        k = np.array([4, 2, 4, 1]).take(cell).compress(adv < 0.0)
        assert calls == [(k.size, k.tolist())]
        assert sorted(set(k.tolist())) == [1, 2, 4]


class TestAnchorReference:
    """The per-step anchors against the scalar build_anchor, row by row:
    the member set, Z_ref and the empty flag, and the anchor mass and
    P_safe that a pass sums through the segment layout."""

    @pytest.mark.parametrize("tokens_at", ["mixed", "inside", "outside"])
    @pytest.mark.parametrize("v", [2, 3, 8, 12, 40])
    def test_rows_equal_build_anchor(self, v, tokens_at):
        rng = np.random.default_rng(7 * v + len(tokens_at))
        n = 120
        # Logits rounded to 0.5 make exact probability ties in the Top-K of
        # every other row.
        zq = rng.normal(0, 1.5, size=(n, v))
        zq[::2] = np.round(zq[::2] * 2) / 2
        Q = softmax(zq)
        z = rng.normal(0, 2.0, size=(n, v))
        z[rng.random((n, v)) < 0.1] -= 800.0  # underflowed entries
        P = softmax(z)
        for k in sorted({1, 2, 7, 8, 9, 16, 17, v, v + 3}):
            m = min(k, v)
            if tokens_at == "outside" and m == v:
                continue  # every token is in a Top-K of the whole vocabulary
            ranked = np.argsort(-Q, axis=1, kind="stable")
            low, high = {"mixed": (0, v), "inside": (0, m), "outside": (m, v)}[tokens_at]
            pick = rng.integers(low, high, size=n)
            tokens = ranked[np.arange(n), pick]
            member, z_ref, empty, layout = anchor_reference(Q, tokens, np.full(n, k))

            # Each row's two segments, its Top-k and its ascending list, are
            # rows of the table of their width, which is its member count.
            widths = np.empty(2 * n, dtype=np.intp)
            for rows, table in layout:
                widths[rows] = table.shape[1]
            assert sorted(np.concatenate([rows for rows, _ in layout]).tolist()) == \
                list(range(2 * n))
            mass, p_safe = layout_sums(P, layout).reshape(2, n)
            count = np.where(pick < m, m - 1, m)
            assert sorted(table.shape[1] for _, table in layout) == sorted(set(count.tolist()))
            assert np.all(widths == np.concatenate((count, count)))

            for i in range(n):
                tok = int(tokens[i])
                try:
                    anchor = build_anchor(Q[i], P[i], tok, k)
                except DegenerateAnchorError:
                    assert empty[i] and not member[i].any()
                    assert z_ref[i] == 1.0 and mass[i] == p_safe[i] == 0.0
                    continue
                assert not empty[i]
                assert set(np.flatnonzero(member[i]).tolist()) == set(anchor.anchor_set)
                assert z_ref[i].tobytes() == np.float64(anchor.z_ref_mass).tobytes()
                assert (mass[i] / z_ref[i]).tobytes() == np.float64(anchor.anchor_ratio).tobytes()
                # grad_support_mass sums P_safe in ascending token order.
                want = P[i][np.array(sorted(anchor.anchor_set))].sum()
                assert p_safe[i].tobytes() == want.tobytes()
            assert empty.any() == (k == 1 and tokens_at != "outside")


class TestPaperProperties:
    def test_gradient_alignment(self):
        # Unclipped negative-advantage pull component is C * grad(J_support)
        # with C = -beta * A / Z_ref > 0.
        rng = np.random.default_rng(13)
        checked = 0
        cfg = MethodConfig(method="apo", anchor_k=4)
        while checked < 500:
            v = int(rng.integers(3, 12))
            policy, old, ref = random_dists(rng, v)
            token = int(rng.integers(v))
            adv = -float(abs(rng.normal(0, 1)) + 0.05)
            update = apo_token_update(policy, old, ref, token, adv, cfg)
            if update.clipped or update.degenerate_anchor:
                continue
            anchor = build_anchor(ref, policy, token, cfg.anchor_k)
            push = adv * cfg.push_coef * grad_prob(policy, token) / old[token]
            pull = update.gradient - push
            c = -cfg.pull_coef * adv / anchor.z_ref_mass
            assert c > 0
            target = c * grad_support_mass(policy, anchor.anchor_set)
            np.testing.assert_allclose(pull, target, atol=1e-10)
            cos = pull @ target / (np.linalg.norm(pull) * np.linalg.norm(target))
            assert cos == pytest.approx(1.0, abs=1e-12)
            checked += 1

    def test_clip_boundary_stability_contrast(self):
        # Outside the trust-region window APO's gradient is exactly zero on
        # both sides, while the KL-regularized objective keeps pushing
        # whenever the policy differs from the reference.
        ref = np.array([0.5, 0.3, 0.1, 0.1])
        old = np.array([0.25, 0.25, 0.25, 0.25])
        apo_cfg = MethodConfig(method="apo")
        kl_cfg = MethodConfig(method="grpo_kl")

        low = softmax([math.log(0.02), 0.0, 0.0, 0.0])  # push ratio << 1 - eps
        update = apo_token_update(low, old, ref, 0, -1.0, apo_cfg)
        assert apo_rectified_ratio(low[0] / old[0], 1.0, apo_cfg) < 0.8
        assert update.clipped
        np.testing.assert_array_equal(update.gradient, np.zeros(4))
        assert np.linalg.norm(
            method_token_update(low, old, ref, 0, -1.0, kl_cfg).gradient
        ) > 0

        high = softmax([math.log(3.0), 0.0, 0.0, 0.0])  # push ratio >> 1 + eps
        push_ratio = high[0] / old[0]
        anchor = build_anchor(ref, high, 0, apo_cfg.anchor_k)
        assert apo_rectified_ratio(push_ratio, anchor.anchor_ratio, apo_cfg) > 1.2
        update = apo_token_update(high, old, ref, 0, -1.0, apo_cfg)
        assert update.clipped
        np.testing.assert_array_equal(update.gradient, np.zeros(4))
        assert np.linalg.norm(
            method_token_update(high, old, ref, 0, -1.0, kl_cfg).gradient
        ) > 0

    def test_signal_cancellation_contrast(self):
        # A naive anchor that keeps the error token pushes its logit up;
        # the exclusive anchor never does.
        rng = np.random.default_rng(14)
        cases = 0
        while cases < 500:
            v = int(rng.integers(3, 12))
            policy, _, ref = random_dists(rng, v)
            err = int(rng.integers(v))
            k = int(rng.integers(2, v))  # k < V keeps the manifold unsaturated
            manifold = top_k(ref, k)
            if err not in manifold:
                continue
            adv = -1.0
            beta = 0.1
            naive_mass = float(ref[list(manifold)].sum())
            naive_pull = (
                -beta * adv * grad_support_mass(policy, manifold) / naive_mass
            )
            assert naive_pull[err] > 0.0
            anchor = build_anchor(ref, policy, err, k)
            exclusive_pull = -beta * adv * grad_anchor_ratio(policy, anchor)
            assert exclusive_pull[err] <= 0.0
            cases += 1

    def test_rectified_target_decomposition(self):
        # Negative-branch gradient = -|A| lambda (push term) + beta |A|
        # (safe-mass term), each recomputed from the raw kernels.
        rng = np.random.default_rng(15)
        checked = 0
        cfg = MethodConfig(method="apo", anchor_k=4)
        while checked < 200:
            v = int(rng.integers(3, 12))
            policy, old, ref = random_dists(rng, v)
            token = int(rng.integers(v))
            adv = -float(abs(rng.normal(0, 1)) + 0.05)
            update = apo_token_update(policy, old, ref, token, adv, cfg)
            if update.clipped or update.degenerate_anchor:
                continue
            anchor = build_anchor(ref, policy, token, cfg.anchor_k)
            suppress = grad_prob(policy, token) / old[token]
            safe_mass = grad_anchor_ratio(policy, anchor)
            expected = -abs(adv) * cfg.push_coef * suppress + abs(adv) * cfg.pull_coef * safe_mass
            np.testing.assert_allclose(update.gradient, expected, atol=1e-10)
            checked += 1

    def test_unclipped_surrogates_match_finite_differences(self):
        rng = np.random.default_rng(16)
        methods = ("grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo")
        checked = {m: 0 for m in methods}
        while min(checked.values()) < 40:
            v = int(rng.integers(2, 12))
            z = rng.normal(0, 1.5, size=v)
            policy = softmax(z)
            old = softmax(rng.normal(0, 1.5, size=v))
            ref = softmax(rng.normal(0, 1, size=v))
            token = int(rng.integers(v))
            adv = float(rng.normal(0, 1.5))
            for method in methods:
                cfg = MethodConfig(method=method, anchor_k=max(1, v // 2))
                update = method_token_update(policy, old, ref, token, adv, cfg)
                if update.clipped:
                    continue
                if method == "nsr" and adv >= 0:
                    continue
                ratio = float(policy[token] / old[token])
                if method == "apo" and adv < 0:
                    ratio = update.surrogate_value / adv
                if min(abs(ratio - 0.8), abs(ratio - 1.2)) < 1e-3:
                    continue
                fd = finite_diff(
                    lambda zz: method_token_update(
                        softmax(zz), old, ref, token, adv, cfg
                    ).surrogate_value,
                    z,
                )
                assert max_relative_error(update.gradient, fd) < 1e-6
                checked[method] += 1
