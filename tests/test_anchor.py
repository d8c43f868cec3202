import numpy as np
import pytest

from anchorlab.anchor import (
    AnchorContext,
    DegenerateAnchorError,
    build_anchor,
    grad_anchor_ratio,
    top_k,
)
from anchorlab.gradients import finite_diff, max_relative_error
from anchorlab.policy import softmax


def sort_oracle(dist, k):
    """Exhaustive oracle: sort (probability desc, index asc), take k."""
    ranked = sorted(range(len(dist)), key=lambda i: (-dist[i], i))
    return tuple(ranked[: min(k, len(dist))])


class TestTopK:
    def test_basic(self):
        assert top_k(np.array([0.5, 0.3, 0.1, 0.1]), 2) == (0, 1)

    def test_k_equals_v_is_everything(self):
        members = top_k(np.array([0.1, 0.2, 0.3, 0.4]), 4)
        assert sorted(members) == [0, 1, 2, 3]

    def test_tie_break_by_index(self):
        assert top_k(np.full(4, 0.25), 2) == (0, 1)
        assert top_k(np.array([0.2, 0.3, 0.3, 0.2]), 2) == (1, 2)

    def test_k_larger_than_v(self):
        assert len(top_k(np.full(3, 1 / 3), 10)) == 3

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(np.full(4, 0.25), 0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = int(rng.integers(2, 20))
            dist = softmax(rng.normal(0, 1.5, size=v))
            k = int(rng.integers(1, v + 1))
            assert top_k(dist, k) == sort_oracle(dist, k)

    def test_members_dominate_non_members(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = int(rng.integers(2, 16))
            dist = softmax(rng.normal(0, 1, size=v))
            k = int(rng.integers(1, v))
            members = set(top_k(dist, k))
            outside = set(range(v)) - members
            if outside:
                assert min(dist[m] for m in members) >= max(dist[o] for o in outside)

    def test_monotone_coverage(self):
        # Top-K mass is nondecreasing in K and reaches 1 at K = V.
        rng = np.random.default_rng(29)
        for _ in range(50):
            v = int(rng.integers(2, 16))
            dist = softmax(rng.normal(0, 2, size=v))
            masses = [float(dist[list(top_k(dist, k))].sum()) for k in range(1, v + 1)]
            assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
            assert masses[-1] == pytest.approx(1.0, abs=1e-9)


class TestBuildAnchor:
    REF = np.array([0.5, 0.3, 0.1, 0.1])

    def test_reference_equals_policy(self):
        anchor = build_anchor(self.REF, self.REF.copy(), 0, 2)
        assert anchor.anchor_set == (1,)
        assert anchor.z_ref_mass == pytest.approx(0.3, abs=1e-15)
        assert anchor.anchor_ratio == pytest.approx(1.0, abs=1e-12)

    def test_shifted_policy(self):
        policy = np.array([0.7, 0.15, 0.1, 0.05])
        anchor = build_anchor(self.REF, policy, 0, 2)
        assert anchor.z_ref_mass == pytest.approx(0.3, abs=1e-15)
        assert anchor.anchor_ratio == pytest.approx(0.5, abs=1e-12)

    def test_error_outside_top_k_keeps_k_members(self):
        anchor = build_anchor(self.REF, self.REF.copy(), 3, 2)
        assert anchor.anchor_set == (0, 1)
        assert anchor.z_ref_mass == pytest.approx(0.8, abs=1e-15)
        assert anchor.anchor_ratio == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_anchor_raises(self):
        with pytest.raises(DegenerateAnchorError):
            build_anchor(self.REF, self.REF.copy(), 0, 1)

    def test_exclusivity_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            v = int(rng.integers(2, 16))
            ref = softmax(rng.normal(0, 1, size=v))
            policy = softmax(rng.normal(0, 1, size=v))
            err = int(rng.integers(v))
            k = int(rng.integers(1, v + 1))
            try:
                anchor = build_anchor(ref, policy, err, k)
            except DegenerateAnchorError:
                assert k == 1 and top_k(ref, 1) == (err,)
                continue
            assert err not in anchor.anchor_set
            assert anchor.z_ref_mass > 0
            assert anchor.z_ref_mass == float(ref[list(anchor.anchor_set)].sum())
            manifold = top_k(ref, k)
            assert len(anchor.anchor_set) == len(manifold) - (err in manifold)

    def test_ratio_one_when_policy_matches_ref_on_anchor(self):
        # pi_theta = pi_ref on the anchor set forces ratio 1 regardless of
        # how the remaining mass is arranged.
        ref = np.array([0.4, 0.3, 0.2, 0.1])
        policy = np.array([0.4, 0.3, 0.05, 0.25])
        anchor = build_anchor(ref, policy, 2, 2)  # anchor = {0, 1}
        assert anchor.anchor_set == (0, 1)
        assert anchor.anchor_ratio == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            build_anchor(self.REF, np.array([0.5, 0.5]), 0, 2)


class TestGradAnchorRatio:
    def test_uniform_single_member(self):
        anchor = AnchorContext((1,), 0.3, 0.25 / 0.3)
        dz = grad_anchor_ratio(np.full(4, 0.25), anchor)
        assert dz[1] == pytest.approx(0.625, abs=1e-12)

    def test_full_vocab_anchor_zero_gradient(self):
        anchor = AnchorContext((0, 1, 2, 3), 1.0, 1.0)
        np.testing.assert_allclose(grad_anchor_ratio(np.full(4, 0.25), anchor), 0.0)

    def test_error_logit_entry_is_negative(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            v = int(rng.integers(2, 12))
            ref = softmax(rng.normal(0, 1, size=v))
            policy = softmax(rng.normal(0, 1, size=v))
            err = int(rng.integers(v))
            k = int(rng.integers(1, v + 1))
            try:
                anchor = build_anchor(ref, policy, err, k)
            except DegenerateAnchorError:
                continue
            entry = grad_anchor_ratio(policy, anchor)[err]
            assert entry <= 0.0
            p_safe = policy[list(anchor.anchor_set)].sum()
            if policy[err] > 0 and 0 < p_safe < 1:
                assert entry < 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            v = int(rng.integers(2, 12))
            z = rng.normal(0, 1.5, size=v)
            policy = softmax(z)
            ref = softmax(rng.normal(0, 1, size=v))
            err = int(rng.integers(v))
            k = int(rng.integers(2, v + 1))
            anchor = build_anchor(ref, policy, err, k)
            members = list(anchor.anchor_set)
            loss = lambda zz: float(softmax(zz)[members].sum()) / anchor.z_ref_mass
            fd = finite_diff(loss, z)
            assert max_relative_error(grad_anchor_ratio(policy, anchor), fd) < 1e-6
