"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 is the desk-scale collapse-vs-recovery benchmark and
takes the bulk of the runtime (a few minutes at most).
"""

import json
import math
import time

import numpy as np
import pytest

from anchorlab.anchor import DegenerateAnchorError, build_anchor, grad_anchor_ratio, top_k
from anchorlab.cli import gradient_check_suite, main
from anchorlab.dynamics import passive_suppression_step, vanishing_recovery_sweep
from anchorlab.env import EnvConfig, generate_tree, oracle_coverage
from anchorlab.gradients import grad_prob, grad_support_mass
from anchorlab.metrics import read_metrics_csv
from anchorlab.objectives import (
    MethodConfig,
    apo_rectified_ratio,
    apo_token_update,
    group_advantages,
    method_token_update,
)
from anchorlab.policy import softmax
from anchorlab.trainer import TrainConfig, run_experiment

GRADCHECK_TOL = 1e-6


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_1_gradient_oracle_suite():
    t0 = time.perf_counter()
    worst = gradient_check_suite(n_cases=1000, seed=0)
    elapsed = time.perf_counter() - t0
    expected = {
        "grad_log_prob", "grad_prob", "grad_support_mass", "grad_anchor_ratio",
        "kl_penalty", "surrogate_grpo", "surrogate_grpo_kl",
        "surrogate_grpo_kl_error_only", "surrogate_nsr", "surrogate_apo",
    }
    assert expected <= set(worst)
    assert all(err < GRADCHECK_TOL for err in worst.values()), worst
    assert elapsed < 10.0
    report(1, f"10 gradient families < {GRADCHECK_TOL} rel err "
              f"(worst {max(worst.values()):.2e}) in {elapsed:.1f}s")


def test_criterion_2_gradient_alignment():
    rng = np.random.default_rng(202)
    cfg = MethodConfig(method="apo", anchor_k=4)
    checked = 0
    worst_dev = 0.0
    worst_cos = 1.0
    while checked < 500:
        v = int(rng.integers(3, 16))
        policy = softmax(rng.normal(0, 1.5, size=v))
        old = softmax(rng.normal(0, 1.5, size=v))
        ref = softmax(rng.normal(0, 1.0, size=v))
        token = int(rng.integers(v))
        adv = -float(abs(rng.normal(0, 1)) + 0.05)
        update = apo_token_update(policy, old, ref, token, adv, cfg)
        if update.clipped or update.degenerate_anchor:
            continue
        anchor = build_anchor(ref, policy, token, cfg.anchor_k)
        push = adv * cfg.push_coef * grad_prob(policy, token) / old[token]
        pull = update.gradient - push
        c = -cfg.pull_coef * adv / anchor.z_ref_mass
        target = c * grad_support_mass(policy, anchor.anchor_set)
        worst_dev = max(worst_dev, float(np.max(np.abs(pull - target))))
        cos = float(pull @ target / (np.linalg.norm(pull) * np.linalg.norm(target)))
        worst_cos = min(worst_cos, cos)
        checked += 1
    assert worst_dev < 1e-10
    assert abs(worst_cos - 1.0) < 1e-12
    report(2, f"pull = C*grad(J_support) over 500 cases "
              f"(max dev {worst_dev:.1e}, min cosine 1-{1-worst_cos:.1e})")


def test_criterion_3_closed_form_identities():
    rng = np.random.default_rng(303)
    for _ in range(500):
        v = int(rng.integers(2, 16))
        z = rng.normal(0, 2, size=v)
        dist = softmax(z)
        err = int(rng.integers(v))

        # Squeezing: off-target gradient is exactly -pi(err) * pi(k).
        dz = grad_prob(dist, err)
        for k in range(v):
            expected = dist[err] * (1.0 - dist[err]) if k == err else -dist[err] * dist[k]
            assert abs(dz[k] - expected) < 1e-12

        # Support mass: in-set pi(k)(1 - P_safe), out-of-set -pi(k) P_safe.
        size = int(rng.integers(1, v + 1))
        members = set(int(i) for i in rng.choice(v, size=size, replace=False))
        p_safe = float(dist[list(members)].sum())
        dz = grad_support_mass(dist, members)
        for k in range(v):
            expected = dist[k] * (1 - p_safe) if k in members else -dist[k] * p_safe
            assert abs(dz[k] - expected) < 1e-12

        # Passive suppression is strictly negative for positive advantages.
        valid = int(rng.integers(v))
        sampled = (valid + 1) % v
        adv = float(abs(rng.normal(0, 1)) + 1e-3)
        eta = float(abs(rng.normal(0, 0.5)) + 1e-3)
        delta = passive_suppression_step(z, sampled, valid, adv, eta)
        assert delta < 0.0
        assert abs(delta + eta * adv * dist[valid]) < 1e-12

    # Vanishing recovery: linearity asserted inside the sweep at 1e-12.
    vanishing_recovery_sweep(np.logspace(-8, -0.3, 20), penalty=1.7, eta=0.55)
    report(3, "squeezing / support-mass / passive-suppression / linearity "
              "identities exact at 1e-12 on 500 random cases")


def test_criterion_4_clip_boundary_stability():
    apo_cfg = MethodConfig(method="apo")
    kl_cfg = MethodConfig(method="grpo_kl")
    ref = np.array([0.5, 0.3, 0.1, 0.1])
    old = np.full(4, 0.25)

    cases = []
    low = softmax([math.log(0.02), 0.0, 0.0, 0.0])
    anchor = build_anchor(ref, low, 0, apo_cfg.anchor_k)
    r_low = apo_rectified_ratio(low[0] / old[0], anchor.anchor_ratio, apo_cfg)
    assert r_low < 1 - apo_cfg.clip_eps
    cases.append(("below window", low, r_low))

    high = softmax([math.log(3.0), 0.0, 0.0, 0.0])
    anchor = build_anchor(ref, high, 0, apo_cfg.anchor_k)
    r_high = apo_rectified_ratio(high[0] / old[0], anchor.anchor_ratio, apo_cfg)
    assert r_high > 1 + apo_cfg.clip_eps
    cases.append(("above window", high, r_high))

    for label, policy, _ in cases:
        update = apo_token_update(policy, old, ref, 0, -1.0, apo_cfg)
        assert update.clipped, label
        assert np.all(update.gradient == 0.0), label
        kl_update = method_token_update(policy, old, ref, 0, -1.0, kl_cfg)
        assert np.linalg.norm(kl_update.gradient) > 0.0, label
    report(4, f"APO gradient exactly zero at r={r_low:.2f} and r={r_high:.2f}; "
              "grpo_kl keeps a nonzero gradient at the same points")


def test_criterion_5_signal_cancellation():
    rng = np.random.default_rng(505)
    beta = 0.1
    cases = 0
    while cases < 500:
        v = int(rng.integers(3, 16))
        policy = softmax(rng.normal(0, 1.5, size=v))
        ref = softmax(rng.normal(0, 1.0, size=v))
        err = int(rng.integers(v))
        k = int(rng.integers(2, v))
        manifold = top_k(ref, k)
        if err not in manifold:
            continue
        adv = -float(abs(rng.normal(0, 1)) + 0.05)
        naive_mass = float(ref[list(manifold)].sum())
        naive = -beta * adv * grad_support_mass(policy, manifold) / naive_mass
        assert naive[err] > 0.0
        exclusive = -beta * adv * grad_anchor_ratio(
            policy, build_anchor(ref, policy, err, k)
        )
        assert exclusive[err] <= 0.0
        cases += 1
    report(5, "naive anchor boosts the error logit, exclusive anchor never "
              "does (500 random cases)")


def test_criterion_6_oracle_coverage_analogue():
    # The concrete Top-1 83.84% / Top-8 97.47% numbers belong to a 7B LLM on
    # MATH and are context only; here recall must match a brute-force sort
    # oracle exactly, be monotone in K, and reach 1 at K = V.
    for seed in (0, 1, 2):
        env = EnvConfig(depth=3, branching=8, num_valid_leaves=10,
                        ref_concentration=1.5, ref_noise=0.8, seed=seed)
        tree = generate_tree(env)
        ks = [1, 2, 4, 8]
        table = oracle_coverage(tree, tree.ref_policy, ks)

        hits = {k: 0 for k in ks}
        total = 0
        for leaf in tree.valid_tokens.tolist():
            ctx = tree.ROOT
            for t in leaf:
                dist = tree.ref_policy.dist(ctx)
                ranked = sorted(range(8), key=lambda i: (-dist[i], i))
                for k in ks:
                    hits[k] += t in ranked[:k]
                total += 1
                ctx = tree.child_context(ctx, t)
        for k in ks:
            assert table[k] == hits[k] / total
        values = [table[k] for k in ks]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert table[8] == 1.0
    report(6, "teacher-forced recall equals the sort oracle, monotone in K, "
              "recall(V) = 1.0 on 3 seeded trees")


def test_criterion_8_byte_identical_metrics(tmp_path):
    spec = {
        "name": "determinism",
        "env": {"depth": 3, "branching": 4, "num_valid_leaves": 3,
                "ref_concentration": 1.2, "ref_noise": 0.5, "seed": 11},
        "methods": [{"method": "grpo"}, {"method": "apo", "anchor_k": 2}],
        "seeds": [5],
        "train": {"total_steps": 10, "groups_per_step": 2, "inner_epochs": 2,
                  "eval_every": 5, "eval_samples_k": 16},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for out in ("run_a", "run_b"):
        assert main(["train", "--spec", str(spec_path), "--out",
                     str(tmp_path / out), "--no-timestamp"]) == 0
        outputs.append({
            method: (tmp_path / out / "determinism" / method / "5" / "metrics.csv").read_bytes()
            for method in ("grpo", "apo")
        })
    assert outputs[0] == outputs[1]
    report(8, "two CLI runs produced byte-identical metrics.csv for both methods")


def test_criterion_9_degenerate_anchor_handling():
    # K=1 with the error token at the reference Top-1: the direct update
    # falls back to push-only and a full training run counts the events
    # without aborting.
    ref = np.array([0.6, 0.2, 0.1, 0.1])
    policy = np.array([0.4, 0.3, 0.2, 0.1])
    cfg = MethodConfig(method="apo", anchor_k=1)
    with pytest.raises(DegenerateAnchorError):
        build_anchor(ref, policy, 0, 1)
    update = apo_token_update(policy, policy, ref, 0, -1.0, cfg)
    assert update.degenerate_anchor
    expected = -1.0 * cfg.push_coef * grad_prob(policy, 0) / policy[0]
    np.testing.assert_allclose(update.gradient, expected, atol=1e-12)

    env = EnvConfig(depth=2, branching=3, num_valid_leaves=1,
                    ref_concentration=2.0, ref_noise=0.2, seed=2)
    train_cfg = TrainConfig(total_steps=30, groups_per_step=2, inner_epochs=2, eval_every=15,
                            eval_samples_k=8)
    [(records, stats)] = run_experiment(train_cfg, [(cfg, 4)], generate_tree(env))
    total = sum(s.degenerate_anchors for s in stats)
    assert total > 0
    assert len(records) == 3
    report(9, f"K=1 Top-1 conflict fell back to push-only and was counted "
              f"{total} times across a 30-step run")


def test_criterion_10_arithmetic_spot_checks():
    cfg = MethodConfig(method="apo")
    assert apo_rectified_ratio(1.0, 1.0, cfg) == pytest.approx(0.95, abs=1e-12)

    rewards = [1.0, 0.0, 0.0, 0.0]
    mean = 0.25
    popstd = math.sqrt(sum((r - mean) ** 2 for r in rewards) / 4)
    hand = [(r - mean) / (popstd + 1e-6) for r in rewards]
    np.testing.assert_allclose(group_advantages(rewards), hand, atol=1e-6)
    report(10, "rectified ratio 0.95 and hand-derived group advantages match")
