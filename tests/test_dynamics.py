import numpy as np
import pytest

from anchorlab.dynamics import (
    DynamicsReport,
    collapse_trajectory,
    passive_suppression_step,
    redistribution_compare,
    vanishing_recovery_sweep,
    write_reports_csv,
)
from anchorlab.anchor import top_k
from anchorlab.gradients import grad_prob, grad_support_mass
from anchorlab.objectives import METHODS, MethodConfig, group_advantages, method_token_update
from anchorlab.policy import entropy, sample_token, softmax


def scalar_bandit(logits, valid_set, cfg, steps, rng):
    """The bandit written out token by token, as the records of
    :func:`collapse_trajectory`: one group of scalar ``sample_token`` draws
    per step, 1-D group advantages, and each token's ``method_token_update``
    gradient summed in draw order and applied as ``z + lr * grad / n``."""
    z = np.array(logits, dtype=np.float64)
    valid = sorted(valid_set)
    ref = softmax(z)
    manifold = list(top_k(ref, cfg.anchor_k))
    records = []
    for step in range(steps + 1):
        dist = softmax(z)
        records += [(step, f"pi_valid_{t}", float(dist[t])) for t in valid]
        records += [(step, "entropy", entropy(dist)),
                    (step, "p_safe", float(dist[manifold].sum()))]
        if step == steps:
            break
        tokens = [sample_token(dist, rng) for _ in range(cfg.group_size)]
        rewards = np.array([1.0 if t in valid else 0.0 for t in tokens])
        advantages = group_advantages(rewards, cfg.adv_eps)
        if np.all(advantages == 0.0):
            continue
        grad = np.zeros_like(z)
        for token, adv in zip(tokens, advantages):
            grad += method_token_update(dist, dist, ref, token, float(adv), cfg).gradient
        z = z + cfg.learning_rate * grad / len(tokens)
    return records


def record_bits(records):
    return [(s, q, np.float64(v).tobytes()) for s, q, v in records]


class TestPassiveSuppression:
    def test_uniform_reference_value(self):
        delta = passive_suppression_step(np.zeros(4), 0, 1, 1.0, 0.1)
        assert delta == pytest.approx(-0.025, abs=1e-15)

    def test_floor_limit_is_negligible(self):
        z = np.zeros(4)
        z[1] = -700.0
        assert abs(passive_suppression_step(z, 0, 1, 1.0, 0.1)) < 1e-300

    def test_sign_is_always_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = int(rng.integers(2, 12))
            z = rng.normal(0, 2, size=v)
            sampled, valid = rng.choice(v, size=2, replace=False)
            adv = float(abs(rng.normal(0, 1)) + 1e-6)
            eta = float(abs(rng.normal(0, 0.5)) + 1e-3)
            assert passive_suppression_step(z, int(sampled), int(valid), adv, eta) < 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            passive_suppression_step(np.zeros(3), 1, 1, 1.0, 0.1)
        with pytest.raises(ValueError):
            passive_suppression_step(np.zeros(3), 0, 1, -1.0, 0.1)


class TestVanishingRecovery:
    def test_reference_values(self):
        report = vanishing_recovery_sweep([1e-5], penalty=1.0, eta=0.1)
        assert report.series("delta_z")[0][1] == pytest.approx(1e-6, rel=1e-12)

    def test_zero_limit(self):
        report = vanishing_recovery_sweep([0.0], penalty=1.0, eta=0.1)
        assert report.series("delta_z")[0][1] == 0.0

    def test_halving_halves_delta(self):
        report = vanishing_recovery_sweep([0.4, 0.2], penalty=2.0, eta=0.05)
        deltas = [v for _, v in report.series("delta_z")]
        assert deltas[1] == pytest.approx(deltas[0] / 2, rel=1e-12)

    def test_linearity_over_sweep(self):
        values = np.logspace(-8, -0.5, 25)
        report = vanishing_recovery_sweep(values, penalty=1.3, eta=0.7)
        deltas = np.array([v for _, v in report.series("delta_z")])
        ratios = deltas / values
        assert np.max(ratios) - np.min(ratios) < 1e-12


class TestRedistributionCompare:
    def test_tail_error_starves_pg_but_not_apo(self):
        # pi(err) ~ 1e-9: the squeezing signal dies with it while the
        # anchored signal stays macroscopic.
        p = np.array([1e-9, 0.3, 0.2, 0.5 - 1e-9, 0.2])
        p = p / p.sum()
        report = redistribution_compare(p, 0, {1, 2})
        pg = dict((k, v) for k, v in report.series("pg_grad_abs"))
        apo = dict((k, v) for k, v in report.series("apo_grad_abs"))
        assert max(pg[k] for k in (1, 2, 3, 4)) <= 1.1e-9
        assert apo[1] > 0.1

    def test_saturated_manifold_has_zero_apo_gradient(self):
        p = np.array([0.0, 0.6, 0.4])
        report = redistribution_compare(p, 0, {1, 2})
        apo = [v for _, v in report.series("apo_grad_abs")]
        np.testing.assert_allclose(apo, 0.0, atol=1e-15)

    def test_proportional_inflation_three_to_one(self):
        p = np.array([0.2, 0.6, 0.2])
        report = redistribution_compare(p, 0, {1, 2})
        apo = dict(report.series("apo_grad_abs"))
        assert apo[1] == pytest.approx(3 * apo[2], rel=1e-12)

    def test_error_in_anchor_rejected(self):
        with pytest.raises(ValueError):
            redistribution_compare(np.full(4, 0.25), 1, {1, 2})

    def test_identities_match_gradient_kernels(self):
        # Same formulas, two code paths: the report values must equal the
        # kernel outputs exactly.
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = int(rng.integers(3, 10))
            p = softmax(rng.normal(0, 1.5, size=v))
            err = int(rng.integers(v))
            others = [k for k in range(v) if k != err]
            size = int(rng.integers(1, len(others) + 1))
            members = set(int(k) for k in rng.choice(others, size=size, replace=False))
            report = redistribution_compare(p, err, members)
            pg = dict(report.series("pg_grad_abs"))
            apo = dict(report.series("apo_grad_abs"))
            kernel_pg = grad_prob(p, err)
            kernel_apo = grad_support_mass(p, members)
            for k in range(v):
                assert pg[k] == pytest.approx(abs(kernel_pg[k]), abs=1e-12)
                assert apo[k] == pytest.approx(abs(kernel_apo[k]), abs=1e-12)


class TestCollapseTrajectory:
    def test_all_valid_vocab_means_no_learning(self):
        cfg = MethodConfig(method="grpo")
        report = collapse_trajectory(
            np.array([0.3, -0.2, 0.1, 0.0]), {0, 1, 2, 3}, cfg, 50,
            np.random.default_rng(0),
        )
        start = dict(report.series("pi_valid_0"))[0]
        end = dict(report.series("pi_valid_0"))[50]
        assert start == end  # every group is zero-variance

    @pytest.mark.parametrize("method", ["grpo", "apo", "nsr", "grpo_kl"])
    def test_single_valid_token_improves_on_average(self, method):
        cfg = MethodConfig(method=method, anchor_k=2, learning_rate=0.5)
        gains = []
        for seed in range(20):
            report = collapse_trajectory(
                np.zeros(4), {2}, cfg, 100, np.random.default_rng(seed)
            )
            series = dict(report.series("pi_valid_2"))
            gains.append(series[100] - series[0])
        assert np.mean(gains) > 0

    def test_grpo_contracts_secondary_valid_token(self):
        # Directional contraction check: with two equally strong valid
        # tokens, vanilla grouped updates usually shrink the weaker one.
        logits = np.log(np.array([0.45, 0.45, 0.05, 0.05]))
        cfg = MethodConfig(method="grpo", learning_rate=0.5)
        shrunk = 0
        for seed in range(20):
            report = collapse_trajectory(logits, {0, 1}, cfg, 500,
                                         np.random.default_rng(seed))
            p0 = dict(report.series("pi_valid_0"))
            p1 = dict(report.series("pi_valid_1"))
            if min(p0[500], p1[500]) < min(p0[0], p1[0]):
                shrunk += 1
        assert shrunk > 10

    def test_invalid_set_rejected(self):
        cfg = MethodConfig(method="grpo")
        with pytest.raises(ValueError):
            collapse_trajectory(np.zeros(4), set(), cfg, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("valid", [{9}, {4}, {-1}, {0, 4}])
    def test_token_outside_vocabulary_rejected(self, valid):
        # No rollout can draw token 9 of V=4: the bandit could not be solved.
        with pytest.raises(ValueError, match="valid_set"):
            collapse_trajectory(np.zeros(4), valid, MethodConfig(), 10,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("logits", [np.zeros(1), np.zeros((2, 4)), [0.0, float("-inf")]])
    def test_logits_not_a_bandit_rejected(self, logits):
        with pytest.raises(ValueError):
            collapse_trajectory(logits, {0}, MethodConfig(), 10, np.random.default_rng(0))

    # The default learning rate 0.5 and group of 8 make the trainer's
    # (lr / n) * grad and the oracle's lr * grad / n the same exact scaling.
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "logits, valid, anchor_k",
        [
            (np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]), {0, 1}, 4),
            (np.log(np.array([0.45, 0.45, 0.05, 0.05])), {0, 1}, 2),
            (np.zeros(4), {2}, 2),
        ],
        ids=["cli", "two-strong", "uniform"],
    )
    def test_matches_scalar_oracle_bitwise(self, method, logits, valid, anchor_k):
        cfg = MethodConfig(method=method, anchor_k=anchor_k)
        for seed in (0, 1, 2):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            report = collapse_trajectory(logits, valid, cfg, 150, rng)
            expected = scalar_bandit(logits, valid, cfg, 150, oracle_rng)
            assert report.scenario == f"collapse_{method}"
            assert record_bits(report.records) == record_bits(expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestReportPlumbing:
    def test_csv_format(self, tmp_path):
        report = DynamicsReport("demo")
        report.add(0, "x", 1.5)
        report.add(1, "x", 2.5)
        path = tmp_path / "dyn.csv"
        write_reports_csv([report], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,step,quantity,value"
        assert lines[1] == "demo,0,x,1.5"

    def test_rejects_non_finite(self):
        report = DynamicsReport("demo")
        with pytest.raises(ValueError):
            report.add(0, "x", float("nan"))
