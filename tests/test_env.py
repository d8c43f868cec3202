import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlab.anchor import top_k
from anchorlab.env import (
    EnvConfig,
    ReasoningTree,
    generate_tree,
    oracle_coverage,
    rollout,
    verify,
)
from anchorlab.objectives import MethodConfig
from anchorlab.policy import LogitTable, StackedTable, dump_logit_table, sample_token
from anchorlab.trainer import Stack, TrainConfig, train_step


def all_leaves(tree):
    """Every length-D token sequence, in lexicographic order."""
    return itertools.product(range(tree.branching), repeat=tree.depth)


def bits(a):
    return np.asarray(a).dtype.kind, np.asarray(a).shape, np.asarray(a).tobytes()


def leaf_probability(tree, policy, leaf):
    """Enumeration oracle: exact probability of one root-to-leaf path."""
    prob = 1.0
    ctx = tree.ROOT
    for t in leaf:
        prob *= float(policy.dist(ctx)[t])
        ctx = tree.child_context(ctx, t)
    return prob


class TestGenerateTree:
    def test_single_level_reference_values(self):
        cfg = EnvConfig(depth=1, branching=4, num_valid_leaves=1,
                        ref_concentration=math.log(3), ref_noise=0.0, seed=0)
        tree = generate_tree(cfg)
        (leaf,) = tree.valid_leaves
        expected = np.full(4, 1 / 6)
        expected[leaf[0]] = 0.5
        np.testing.assert_allclose(tree.ref_policy.dist(tree.ROOT), expected, atol=1e-12)

    def test_reference_is_handed_over_without_a_copy(self, monkeypatch):
        # The spread check has shown every logit finite, so the table takes
        # generate_tree's array as it is, without copying and checking it.
        def copying(self, z):
            raise AssertionError("the reference went through LogitTable's copy")

        monkeypatch.setattr(LogitTable, "__init__", copying)
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=3, seed=1))
        assert len(tree.ref_policy) == tree.num_contexts() == 21

    def test_no_signal_gives_uniform(self):
        cfg = EnvConfig(depth=2, branching=3, num_valid_leaves=2,
                        ref_concentration=0.0, ref_noise=0.0, seed=1)
        tree = generate_tree(cfg)
        for ctx in range(len(tree.ref_policy)):
            np.testing.assert_allclose(tree.ref_policy.dist(ctx), np.full(3, 1 / 3))

    def test_determinism(self):
        cfg = EnvConfig(depth=3, branching=4, num_valid_leaves=5, seed=42)
        a, b = generate_tree(cfg), generate_tree(cfg)
        assert a.valid_leaves == b.valid_leaves
        assert bits(a.valid_ids) == bits(b.valid_ids)
        assert dump_logit_table(a.ref_policy) == dump_logit_table(b.ref_policy)

    def test_reference_strictly_positive_everywhere(self):
        cfg = EnvConfig(depth=3, branching=3, num_valid_leaves=2, seed=7)
        tree = generate_tree(cfg)
        assert len(tree.ref_policy) == tree.num_contexts()
        for ctx in range(len(tree.ref_policy)):
            assert np.all(tree.ref_policy.dist(ctx) > 0.0)

    def test_every_valid_leaf_reachable(self):
        cfg = EnvConfig(depth=3, branching=4, num_valid_leaves=6, seed=3)
        tree = generate_tree(cfg)
        for leaf in tree.valid_leaves:
            assert leaf_probability(tree, tree.ref_policy, leaf) > 0.0

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_matches_breadth_first_draw(self, seed, noise):
        # Oracle: draw the reference one context at a time, breadth first,
        # adding the bonus once per (context, token) before the noise. With
        # noise 0 a different order of additions would turn +0.0 into -0.0,
        # which dump_logit_table keeps.
        cfg = EnvConfig(depth=4, branching=3, num_valid_leaves=5,
                        ref_concentration=1.5, ref_noise=noise, seed=seed)
        rng = np.random.default_rng(seed)
        b, d = cfg.branching, cfg.depth
        ids = rng.choice(b**d, size=cfg.num_valid_leaves, replace=False)
        leaves = sorted(tuple(int(i) // b**(d - 1 - k) % b for k in range(d)) for i in ids)
        bonus = {}
        for leaf in leaves:
            ctx = 0
            for t in leaf:
                bonus.setdefault(ctx, set()).add(t)
                ctx = ctx * b + t + 1
        rows, noise_terms, frontier = [], [], [0]
        for _ in range(d):
            for ctx in frontier:
                assert ctx == len(rows)
                z = np.zeros(b)
                for t in bonus.get(ctx, ()):
                    z[t] += cfg.ref_concentration
                noise_terms.append(cfg.ref_noise * rng.standard_normal(b))
                z += noise_terms[-1]
                rows.append(z)
            frontier = [ctx * b + t + 1 for ctx in frontier for t in range(b)]

        tree = generate_tree(cfg)
        assert sorted(tree.valid_leaves) == leaves
        expected = np.array(rows)
        got = np.array([tree.ref_policy.logits(c) for c in range(len(tree.ref_policy))])
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        assert dump_logit_table(tree.ref_policy) == dump_logit_table(LogitTable(expected))
        if noise == 0.0:
            # The noise term holds -0.0 wherever the draw was negative, and
            # 0.0 + -0.0 is +0.0: no -0.0 may survive into the reference.
            assert np.signbit(noise_terms).any()
            assert "-0.0" not in dump_logit_table(tree.ref_policy)

    @pytest.mark.parametrize("cfg", [
        EnvConfig(depth=1, branching=5, num_valid_leaves=3, seed=2),
        EnvConfig(depth=5, branching=2, num_valid_leaves=7, seed=4),
        EnvConfig(depth=3, branching=3, num_valid_leaves=27, seed=1),  # every leaf valid
        # The benchmark's deep_sweep tree: 37,449 contexts, 512 valid leaves.
        EnvConfig(depth=6, branching=8, num_valid_leaves=512, ref_concentration=1.5,
                  ref_noise=0.75, seed=0),
    ], ids=["depth-1", "B-2", "all-valid", "deep-sweep"])
    def test_equals_per_leaf_decoding_loop(self, cfg):
        # Oracle: the tree as first written, each sorted leaf id decoded into
        # its tokens with divmod, one leaf at a time.
        rng = np.random.default_rng(cfg.seed)
        b, d = cfg.branching, cfg.depth
        ids = sorted(rng.choice(b**d, size=cfg.num_valid_leaves, replace=False).tolist())
        leaves = []
        for index in ids:
            digits = []
            for _ in range(d):
                index, token = divmod(index, b)
                digits.append(token)
            leaves.append(tuple(reversed(digits)))
        c = (b**d - 1) // (b - 1)
        bonus = np.zeros((c, b), dtype=bool)
        ctx = np.zeros(len(leaves), dtype=np.int64)
        for step in range(d):
            tokens = np.array([leaf[step] for leaf in leaves])
            bonus[ctx, tokens] = True
            ctx = ctx * b + tokens + 1
        z = np.zeros((c, b))
        z[bonus] += cfg.ref_concentration
        z += cfg.ref_noise * rng.standard_normal((c, b))

        tree = generate_tree(cfg)
        assert tree.valid_leaves == frozenset(leaves)
        assert bits(tree.valid_ids) == bits(np.array(ids, dtype=np.int64))
        got = np.array([tree.ref_policy.logits(i) for i in range(c)])
        assert bits(got) == bits(z)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(depth=2, branching=2, num_valid_leaves=5)
        with pytest.raises(ValueError):
            EnvConfig(depth=0, branching=2, num_valid_leaves=1)

    @pytest.mark.parametrize("seed, logits_finite", [(3, False), (4, True), (21, True)])
    def test_reference_beyond_float64_range_rejected(self, seed, logits_finite):
        # noise 1e308: seed 3 draws a logit past float64's largest value;
        # seeds 4 and 21 draw finite logits whose spread is past it, which
        # would overflow each softmax's max subtraction. Both raise, naming
        # the two coefficients, with no RuntimeWarning (an error here).
        cfg = EnvConfig(depth=1, branching=2, num_valid_leaves=1, ref_concentration=0.0,
                        ref_noise=1e308, seed=seed)
        rng = np.random.default_rng(seed)
        rng.choice(2, size=1, replace=False)  # generate_tree's draws: the leaf, then the noise
        with np.errstate(over="ignore"):
            z = 1e308 * rng.standard_normal(2)
        assert np.isfinite(z).all() == logits_finite
        with pytest.raises(ValueError, match="ref_concentration 0.0 and ref_noise 1e[+]308"):
            generate_tree(cfg)

    @pytest.mark.parametrize(
        "depth, branching", [(62, 2), (20, 8), (1, 2**63 - 2)]
    )
    def test_largest_trees_with_int64_node_ids(self, depth, branching):
        # (B^(D+1) - 1) / (B - 1) nodes fit int64; with one more level, or
        # one more branch, they do not (depth 1 and B = 2^63 - 1 is 2^63).
        nodes = (branching ** (depth + 1) - 1) // (branching - 1)
        assert nodes <= 2**63 - 1
        EnvConfig(depth=depth, branching=branching, num_valid_leaves=1)
        for d, b in ((depth + 1, branching), (depth, branching + 1)):
            with pytest.raises(ValueError, match="int64"):
                EnvConfig(depth=d, branching=b, num_valid_leaves=1)


class TestVerify:
    @pytest.fixture()
    def tree(self):
        return generate_tree(EnvConfig(depth=2, branching=3, num_valid_leaves=3, seed=9))

    def test_members_and_non_members(self, tree):
        for leaf in tree.valid_leaves:
            assert verify(tree, leaf) == 1
        invalid = next(l for l in all_leaves(tree) if l not in tree.valid_leaves)
        assert verify(tree, invalid) == 0

    def test_exhaustive_count(self, tree):
        total = sum(verify(tree, leaf) for leaf in all_leaves(tree))
        assert total == 3

    def test_wrong_length_rejected(self, tree):
        with pytest.raises(ValueError):
            verify(tree, (0,))


def scalar_rollouts(tree, policy, n, rng):
    """Oracle: n rollouts walked one scalar ``sample_token`` draw per step."""
    tokens, contexts = [], []
    for _ in range(n):
        ctx, toks, ctxs = tree.ROOT, [], []
        for _ in range(tree.depth):
            tok = sample_token(policy.dist(ctx), rng)
            toks.append(tok)
            ctxs.append(ctx)
            ctx = tree.child_context(ctx, tok)
        tokens.append(toks)
        contexts.append(ctxs)
    return tokens, contexts


class _AllOnes:
    """Stub generator whose every uniform draw is exactly 1.0."""

    def random(self, shape=None):
        return 1.0 if shape is None else np.ones(shape)


class _Replay:
    """Stub generator whose scalar draws are the entries of ``u`` in order."""

    def __init__(self, u):
        self._u = iter(u.ravel().tolist())

    def random(self):
        return next(self._u)


class TestRollout:
    def test_one_hot_policy_is_deterministic(self):
        tree = generate_tree(EnvConfig(depth=3, branching=3, num_valid_leaves=1, seed=2))
        (leaf,) = tree.valid_leaves
        z = np.zeros((tree.num_contexts(), 3))
        ctx = tree.ROOT
        for t in leaf:
            z[ctx] = -200.0
            z[ctx, t] = 200.0
            ctx = tree.child_context(ctx, t)
        u = np.random.default_rng(0).random((5, 3))
        tokens, _, rewards, _ = rollout(tree, LogitTable(z), u)
        assert tokens.tolist() == [list(leaf)] * 5
        assert rewards.tolist() == [1] * 5

    def test_reward_matches_verify_and_contexts_follow_path(self):
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=4, seed=5))
        tokens, contexts, rewards, _ = rollout(tree, tree.ref_policy,
                                             np.random.default_rng(8).random((50, 3)))
        assert tokens.shape == contexts.shape == (50, 3)
        assert rewards.shape == (50,)
        for toks, ctxs, reward in zip(tokens, contexts, rewards):
            assert reward == verify(tree, toks)
            ctx = tree.ROOT
            for c, t in zip(ctxs, toks):
                assert c == ctx
                ctx = tree.child_context(ctx, t)

    @pytest.mark.parametrize("policy_kind", ["reference", "one_hot", "sparse", "peaked"])
    @pytest.mark.parametrize(
        "depth, branching, seed", [(1, 2, 0), (3, 4, 5), (4, 8, 1), (5, 3, 7), (2, 9, 3)]
    )
    def test_matches_scalar_sample_token_oracle(self, depth, branching, seed, policy_kind):
        tree = generate_tree(
            EnvConfig(depth=depth, branching=branching, num_valid_leaves=2, seed=seed)
        )
        c, b = tree.num_contexts(), branching
        noise = np.random.default_rng(seed + 50).standard_normal((c, b))
        if policy_kind == "reference":
            policy = tree.ref_policy
        elif policy_kind == "one_hot":
            # exp(-800) underflows: every row is an exact one-hot distribution.
            z = np.full((c, b), -400.0)
            z[np.arange(c), np.argmax(noise, axis=1)] = 400.0
            policy = LogitTable(z)
        elif policy_kind == "sparse":
            # Exact zeros between nonzero tokens give flat steps in the CDF.
            z = np.where(noise < 0.0, -1000.0, noise)
            z[np.arange(c), np.argmax(noise, axis=1)] = 0.0
            policy = LogitTable(z)
        else:
            policy = LogitTable(8.0 * noise)
        rng_a = np.random.default_rng(seed + 100)
        rng_b = np.random.default_rng(seed + 100)
        tokens, contexts, rewards, rows = rollout(tree, policy, rng_a.random((37, depth)))
        want_tokens, want_contexts = scalar_rollouts(tree, policy, 37, rng_b)
        assert tokens.shape == contexts.shape == (37, depth)
        # The rows the tokens were drawn from, which the trainer and the
        # metrics read in place of a second softmax.
        assert rows.shape == (37, depth, b)
        assert rows.tobytes() == policy.dist(contexts).tobytes()
        assert tokens.tolist() == want_tokens
        assert contexts.tolist() == want_contexts
        assert rewards.tolist() == [verify(tree, t) for t in want_tokens]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_draw_of_one_clamps_to_last_token(self, noise):
        # A uniform 4-way CDF sums to exactly 1.0, so u = 1.0 counts all V
        # entries and only the clamp keeps the token in range.
        tree = generate_tree(
            EnvConfig(depth=3, branching=4, num_valid_leaves=2,
                      ref_concentration=0.0, ref_noise=noise, seed=4)
        )
        tokens, contexts, _, _ = rollout(tree, tree.ref_policy, _AllOnes().random((6, 3)))
        assert tokens.tolist() == [[3, 3, 3]] * 6
        assert sample_token(tree.ref_policy.dist(tree.ROOT), _AllOnes()) == 3
        assert contexts.tolist() == [[0, 4, 20]] * 6

    def test_large_block_matches_sample_token_and_cdf_ties_go_right(self):
        # 1,200 rollouts in one call. A uniform 4-way row's CDF is exactly
        # [0.25, 0.5, 0.75, 1.0], so draw u gives token floor(4u): every
        # other row draws exactly on a CDF value (or 0.0), and
        # searchsorted(side="right") sends it to the next token.
        tree = generate_tree(
            EnvConfig(depth=3, branching=4, num_valid_leaves=4,
                      ref_concentration=0.0, ref_noise=0.0, seed=6)
        )
        u = np.random.default_rng(9).random((1200, 3))
        u[::2] = np.resize([0.25, 0.5, 0.75, 0.0], (600, 3))
        tokens, contexts, _, _ = rollout(tree, tree.ref_policy, u)
        assert tokens.tolist() == (4.0 * u).astype(np.int64).tolist()
        assert tokens[::2].ravel().tolist()[:4] == [1, 2, 3, 0]
        assert (tokens.tolist(), contexts.tolist()) == scalar_rollouts(
            tree, tree.ref_policy, 1200, _Replay(u))
        # A peaked policy over a wider tree, through a block of 1,000 rows.
        tree = generate_tree(EnvConfig(depth=4, branching=8, num_valid_leaves=8, seed=3))
        policy = LogitTable(8.0 * np.random.default_rng(4).standard_normal((585, 8)))
        u = np.random.default_rng(5).random((1000, 4))
        tokens, contexts, _, rows = rollout(tree, policy, u)
        assert rows.tobytes() == policy.dist(contexts).tobytes()
        assert (tokens.tolist(), contexts.tolist()) == scalar_rollouts(
            tree, policy, 1000, _Replay(u))

    def test_uniform_policy_mean_reward(self):
        tree = generate_tree(
            EnvConfig(depth=2, branching=4, num_valid_leaves=4,
                      ref_concentration=0.0, ref_noise=0.0, seed=11)
        )
        rng = np.random.default_rng(13)
        n = 10**4
        mean = np.mean(rollout(tree, tree.ref_policy, rng.random((n, 2)))[2])
        assert abs(mean - 0.25) < 0.02

    def test_leaf_probabilities_sum_to_one(self):
        # Exhaustive consistency for B^D = 81 <= 4096.
        tree = generate_tree(EnvConfig(depth=4, branching=3, num_valid_leaves=5, seed=17))
        total = sum(
            leaf_probability(tree, tree.ref_policy, leaf) for leaf in all_leaves(tree)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_matches_enumeration(self):
        tree = generate_tree(EnvConfig(depth=3, branching=3, num_valid_leaves=4, seed=19))
        exact = sum(
            leaf_probability(tree, tree.ref_policy, leaf) for leaf in tree.valid_leaves
        )
        rng = np.random.default_rng(23)
        n = 4000
        hits = int(rollout(tree, tree.ref_policy, rng.random((n, 3)))[2].sum())
        sigma = math.sqrt(exact * (1 - exact) / n)
        assert abs(hits / n - exact) < 3 * sigma + 1e-9


def shapes(max_leaves=1024):
    return st.tuples(st.integers(1, 6), st.integers(2, 6)).filter(
        lambda s: s[1] ** s[0] <= max_leaves)


def walked_coverage(tree, model, ks):
    """Oracle: the recall table walked one (valid leaf, step) pair at a
    time, each step ranking the model's row with :func:`top_k`."""
    hits = {k: 0 for k in ks}
    total = 0
    for leaf in sorted(tree.valid_leaves):
        ctx = tree.ROOT
        for t in leaf:
            ranked = top_k(model.dist(ctx), tree.branching)
            for k in ks:
                hits[k] += t in ranked[:k]
            total += 1
            ctx = tree.child_context(ctx, t)
    return {k: hits[k] / total for k in ks}


def trained_cell(tree, steps=6):
    """Cell 0 of a one-cell grpo stack after ``steps`` steps from the
    reference clipped to [-3, 3], so that no start row is one-hot and every
    tree's rollouts vary: a model that is not the reference."""
    start = LogitTable(np.clip(tree.ref_policy.logits(np.arange(tree.num_contexts())), -3, 3))
    table = StackedTable(start, 1)
    stack = Stack(TrainConfig(groups_per_step=4), [MethodConfig(learning_rate=2.0)], tree)
    rngs = [np.random.default_rng(tree.depth)]
    for step in range(steps):
        train_step(table, tree, stack, rngs, step)
    cell = table.cell(0)
    assert dump_logit_table(cell) not in map(dump_logit_table, (start, tree.ref_policy))
    return cell


COVERAGE_TREES = [
    EnvConfig(depth=3, branching=4, num_valid_leaves=9, ref_concentration=0.0,
              ref_noise=0.0, seed=3),  # every row uniform: every rank decided by ties
    EnvConfig(depth=3, branching=5, num_valid_leaves=11, ref_concentration=1.0,
              ref_noise=400.0, seed=1),  # rows of exact 0.0 entries, tied below the top
    EnvConfig(depth=1, branching=6, num_valid_leaves=3, seed=5),
    EnvConfig(depth=2, branching=2, num_valid_leaves=3, seed=0),
    EnvConfig(depth=4, branching=8, num_valid_leaves=8, ref_noise=0.75, seed=0),
    EnvConfig(depth=3, branching=32, num_valid_leaves=64, ref_concentration=3.0,
              ref_noise=1.0, seed=2),
    EnvConfig(depth=5, branching=3, num_valid_leaves=40, seed=7),
]


class TestOracleCoverage:
    @pytest.mark.parametrize("model", ["reference", "trained", "integer-logits"])
    @pytest.mark.parametrize("cfg", COVERAGE_TREES,
                             ids=["all-ties", "zeros", "depth-1", "D2-B2", "collapse-shape",
                                  "D3-B32", "D5-B3"])
    def test_equals_per_pair_walk_at_every_k(self, cfg, model):
        tree = generate_tree(cfg)
        b = tree.branching
        if model == "reference":
            policy = tree.ref_policy
        elif model == "trained":
            policy = trained_cell(tree)
        else:
            # Logits in {-2, ..., 2}: ties among some tokens of a row, not all.
            rng = np.random.default_rng(cfg.seed)
            policy = LogitTable(rng.integers(-2, 3, (tree.num_contexts(), b)).astype(float))
        ks = range(1, b + 1)
        assert repr(oracle_coverage(tree, policy, ks)) == repr(walked_coverage(tree, policy, ks))

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes(max_leaves=256), data=st.data())
    def test_generated_trees_equal_per_pair_walk(self, shape, data):
        depth, branching = shape
        cfg = EnvConfig(
            depth, branching,
            data.draw(st.integers(1, branching**depth), label="num_valid_leaves"),
            ref_concentration=data.draw(st.sampled_from([0.0, 1.5, 3.0]), label="concentration"),
            ref_noise=data.draw(st.sampled_from([0.0, 0.5, 400.0]), label="noise"),
            seed=data.draw(st.integers(0, 2**16), label="seed"))
        tree = generate_tree(cfg)
        ks = range(1, branching + 1)
        assert repr(oracle_coverage(tree, tree.ref_policy, ks)) == repr(
            walked_coverage(tree, tree.ref_policy, ks))

    def brute_force(self, tree, model, k):
        hits = total = 0
        for leaf in sorted(tree.valid_leaves):
            ctx = tree.ROOT
            for t in leaf:
                dist = model.dist(ctx)
                ranked = sorted(range(tree.branching), key=lambda i: (-dist[i], i))
                hits += t in ranked[:k]
                total += 1
                ctx = tree.child_context(ctx, t)
        return hits / total

    def test_top_v_is_total_recall(self):
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=5, seed=29))
        table = oracle_coverage(tree, tree.ref_policy, {4})
        assert table[4] == 1.0

    def test_monotone_and_matches_brute_force(self):
        for seed in (0, 1, 2):
            tree = generate_tree(
                EnvConfig(depth=3, branching=6, num_valid_leaves=7, seed=seed)
            )
            ks = [1, 2, 3, 6]
            table = oracle_coverage(tree, tree.ref_policy, ks)
            values = [table[k] for k in ks]
            assert all(b >= a for a, b in zip(values, values[1:]))
            for k in ks:
                assert table[k] == self.brute_force(tree, tree.ref_policy, k)

    def test_hand_enumerated_disjoint_leaves(self):
        # Two disjoint valid leaves on a D=2 binary tree; a model one-hot on
        # one of them recalls D of the 2D teacher-forced steps at Top-1
        # (uniform elsewhere ties toward token 0).
        tree = generate_tree(
            EnvConfig(depth=2, branching=2, num_valid_leaves=4,
                      ref_concentration=0.0, ref_noise=0.0, seed=0)
        )
        tree = type(tree)(2, 2, frozenset({(0, 0), (1, 1)}), tree.ref_policy)
        z = np.zeros((tree.num_contexts(), 2))
        z[tree.ROOT] = [50.0, 0.0]
        z[tree.child_context(tree.ROOT, 0)] = [50.0, 0.0]
        table = oracle_coverage(tree, LogitTable(z), {1, 2})
        assert table[1] == pytest.approx((2 + 0) / 4)
        assert table[2] == 1.0

    def test_hand_enumerated_shared_prefix(self):
        # Leaves (0,0) and (0,1) share a prefix of length 1: recall at Top-1
        # rises to (D + shared) / (2D) = 3/4.
        base = generate_tree(
            EnvConfig(depth=2, branching=2, num_valid_leaves=4,
                      ref_concentration=0.0, ref_noise=0.0, seed=0)
        )
        tree = type(base)(2, 2, frozenset({(0, 0), (0, 1)}), base.ref_policy)
        z = np.zeros((tree.num_contexts(), 2))
        z[tree.ROOT] = [50.0, 0.0]
        z[tree.child_context(tree.ROOT, 0)] = [50.0, 0.0]
        assert oracle_coverage(tree, LogitTable(z), {1})[1] == pytest.approx(0.75)

    def test_invalid_k_rejected(self):
        tree = generate_tree(EnvConfig(depth=2, branching=3, num_valid_leaves=1, seed=0))
        with pytest.raises(ValueError):
            oracle_coverage(tree, tree.ref_policy, {0})
        with pytest.raises(ValueError):
            oracle_coverage(tree, tree.ref_policy, {4})


class _LeafWalk:
    """Stub generator whose draws walk a uniform policy through every leaf
    once, in lexicographic order: draw (k + 0.5) / B selects token k."""

    def __init__(self, branching, depth):
        self.u = (np.array(list(itertools.product(range(branching), repeat=depth))) + 0.5
                  ) / branching

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def assert_rewards_are_verify(tree):
    """Rewards looked up from leaf ids equal :func:`verify`, on every leaf
    and on sampled rollouts."""
    b, d = tree.branching, tree.depth
    uniform = LogitTable(np.zeros((tree.num_contexts(), b)))
    tokens, _, rewards, _ = rollout(tree, uniform, _LeafWalk(b, d).random((b**d, d)))
    assert tokens.tolist() == [list(leaf) for leaf in all_leaves(tree)]
    assert rewards.tolist() == [verify(tree, leaf) for leaf in all_leaves(tree)]
    peaked = LogitTable(3.0 * np.random.default_rng(d * b).standard_normal(
        (tree.num_contexts(), b)))
    tokens, _, rewards, _ = rollout(tree, peaked, np.random.default_rng(b).random((64, d)))
    assert rewards.tolist() == [verify(tree, row) for row in tokens]
    assert tree.valid_ids.tolist() == sorted(tree.valid_ids.tolist())


def chosen_tree(depth, branching, leaf_ids):
    """A tree whose valid leaves have the given lexicographic indices, with
    a zero reference."""
    leaves = list(itertools.product(range(branching), repeat=depth))
    c = (branching**depth - 1) // (branching - 1)
    return ReasoningTree(depth, branching, frozenset(leaves[i] for i in leaf_ids),
                         LogitTable(np.zeros((c, branching))))


class TestRewardFromLeafIds:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes(), data=st.data())
    def test_generated_trees(self, shape, data):
        depth, branching = shape
        valid = data.draw(st.integers(1, branching**depth), label="num_valid_leaves")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        assert_rewards_are_verify(generate_tree(EnvConfig(depth, branching, valid, seed=seed)))

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes(), data=st.data())
    def test_chosen_leaf_ids(self, shape, data):
        depth, branching = shape
        ids = data.draw(st.lists(st.integers(0, branching**depth - 1), unique=True),
                        label="leaf ids")
        tree = chosen_tree(depth, branching, ids)
        assert tree.valid_ids.tolist() == sorted(ids)
        assert_rewards_are_verify(tree)

    @pytest.mark.parametrize("depth, branching", [(1, 2), (3, 3), (5, 2), (2, 7)])
    def test_every_leaf_valid(self, depth, branching):
        every = range(branching**depth)
        for tree in (chosen_tree(depth, branching, every),
                     generate_tree(EnvConfig(depth, branching, branching**depth))):
            assert tree.valid_ids.tolist() == list(every)
            assert_rewards_are_verify(tree)

    def test_no_valid_leaf(self):
        tree = ReasoningTree(2, 3, frozenset(), LogitTable(np.zeros((4, 3))))
        assert tree.valid_ids.shape == (0,)
        assert_rewards_are_verify(tree)
