import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorlab import metrics
from anchorlab.anchor import top_k
from anchorlab.env import EnvConfig, generate_tree, rollout
from anchorlab.metrics import (
    CSV_HEADER,
    MetricRecord,
    entropy_and_maxprob,
    evaluate,
    kl_to_reference,
    read_metrics_csv,
    self_bleu,
    support_mass,
    write_metrics_csv,
)
from anchorlab.objectives import kl_penalty
from anchorlab.policy import LogitTable, StackedTable, entropy


def oracle_self_bleu(samples, n_max):
    """Brute-force Self-BLEU: raw loops, no Counter, no shared helpers."""
    def ngrams(seq, n):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    def bleu_one(hyp, refs):
        logs = []
        for n in range(1, min(n_max, len(hyp)) + 1):
            hyp_grams = ngrams(hyp, n)
            clipped = 0
            for gram in set(hyp_grams):
                count = hyp_grams.count(gram)
                best = 0
                for ref in refs:
                    c = ngrams(ref, n).count(gram)
                    if c > best:
                        best = c
                clipped += min(count, best)
            if clipped == 0:
                return 0.0
            logs.append(math.log(clipped / len(hyp_grams)))
        precision = math.exp(sum(logs) / len(logs))
        closest = min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        bp = 1.0 if len(hyp) >= closest else math.exp(1 - closest / len(hyp))
        return bp * precision

    scores = []
    for i in range(len(samples)):
        refs = [s for j, s in enumerate(samples) if j != i]
        scores.append(bleu_one(list(samples[i]), [list(r) for r in refs]))
    return sum(scores) / len(scores)


def pairwise_self_bleu(samples, n_max):
    """Self-BLEU as first written: for every hypothesis, every reference's
    n-gram Counter is rebuilt (quadratic in K). The bitwise oracle for the
    top-2 counting in ``self_bleu``."""
    def ngram_counts(seq, n):
        return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))

    def bleu(hypothesis, references):
        if not hypothesis:
            return 0.0
        log_precisions = []
        for n in range(1, min(n_max, len(hypothesis)) + 1):
            hyp_counts = ngram_counts(hypothesis, n)
            max_ref = Counter()
            for ref in references:
                for gram, count in ngram_counts(ref, n).items():
                    if count > max_ref[gram]:
                        max_ref[gram] = count
            clipped = sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
            total = sum(hyp_counts.values())
            if clipped == 0:
                return 0.0
            log_precisions.append(math.log(clipped / total))
        precision = math.exp(sum(log_precisions) / len(log_precisions))
        ref_len = min((abs(len(r) - len(hypothesis)), len(r)) for r in references)[1]
        if len(hypothesis) >= ref_len:
            bp = 1.0
        else:
            bp = math.exp(1.0 - ref_len / len(hypothesis))
        return bp * precision

    seqs = [tuple(s) for s in samples]
    if len(seqs) < 2:
        raise ValueError("self-BLEU needs at least 2 samples")
    return float(np.mean([bleu(h, seqs[:i] + seqs[i + 1 :]) for i, h in enumerate(seqs)]))


def bits(x):
    return np.float64(x).tobytes()


def bleu(tokens):
    """Self-BLEU of one ``(K, D)`` block: a stack of one cell."""
    [score] = self_bleu(tokens, 1)
    return score


def assert_bleu_bitwise(tokens):
    assert bits(bleu(tokens)) == bits(pairwise_self_bleu(tokens.tolist(), 4))


def blocks(tokens=st.integers(0, 3), k=st.integers(2, 11), d=st.integers(1, 6)):
    """``(K, D)`` int64 token blocks, the shape a rollout returns."""
    return arrays(np.int64, st.tuples(k, d), elements=tokens)


def rollout_tokens(seed):
    tree = generate_tree(EnvConfig(depth=4, branching=8, num_valid_leaves=8, seed=seed))
    return rollout(tree, tree.ref_policy, np.random.default_rng(seed + 3).random((64, 4)))[0]


class _Draws:
    """Stub generator whose ``random`` fills its output with fixed uniform
    draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, *, out):
        assert out.shape == self.u.shape
        out[...] = self.u


def evaluate_one(policy, tree, step, eval_k, rng, support_k=None):
    """The record :func:`evaluate` gives for a stack of one cell that
    starts from ``policy``."""
    [record] = evaluate(StackedTable(policy, 1), tree, step, eval_k, [rng], support_k)
    return record


class TestPassMetrics:
    """``evaluate`` reports pass@1 as the mean reward of its K rollouts and
    pass@K as 1.0 iff one of them succeeds, both as Python floats (so the
    CSV holds ``repr`` of a float under numpy 2)."""

    def tree(self, depth, branching, seed):
        return generate_tree(EnvConfig(depth=depth, branching=branching, num_valid_leaves=1,
                                       ref_concentration=0.0, ref_noise=0.0, seed=seed))

    def test_single_prompt(self):
        # One draw per token of a uniform bandit: exactly one of 4 succeeds.
        tree = self.tree(1, 4, 0)
        u = (np.arange(4)[:, None] + 0.5) / 4
        rec = evaluate_one(tree.ref_policy, tree, 0, 4, _Draws(u))
        assert (rec.pass_at_1, rec.pass_at_k) == (0.25, 1.0)
        assert type(rec.pass_at_1) is float and type(rec.pass_at_k) is float

    def test_all_zero(self):
        # A one-hot policy onto an invalid leaf never succeeds.
        tree = self.tree(2, 3, 1)
        (leaf,) = tree.valid_leaves
        z = np.full((tree.num_contexts(), 3), -300.0)
        z[:, (leaf[0] + 1) % 3] = 300.0
        rec = evaluate_one(LogitTable(z), tree, 0, 8, np.random.default_rng(0))
        assert (rec.pass_at_1, rec.pass_at_k) == (0.0, 0.0)
        assert type(rec.pass_at_k) is float

    def test_pass_k_dominates_pass_1(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            tree = self.tree(int(rng.integers(1, 4)), int(rng.integers(2, 5)), seed)
            policy = LogitTable(rng.normal(0.0, 2.0, (tree.num_contexts(), tree.branching)))
            k = int(rng.integers(2, 9))
            rec = evaluate_one(policy, tree, 0, k, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random((k, tree.depth))
            rewards = rollout(tree, policy, u)[2]
            assert rec.pass_at_1 == float(np.mean(rewards))
            assert rec.pass_at_k == (1.0 if rewards.any() else 0.0)
            assert rec.pass_at_k >= rec.pass_at_1


class TestEntropyAndMaxProb:
    def make_policy(self):
        z = np.zeros((2, 8))                       # row 0 uniform
        z[1] = -300.0
        z[1, 3] = 300.0                            # row 1 one-hot
        return LogitTable(z)

    def test_uniform_context(self):
        [ent], [maxp] = entropy_and_maxprob(self.make_policy().dist(np.array([[0]])))
        assert ent == pytest.approx(math.log(8), abs=1e-12)
        assert maxp == pytest.approx(0.125, abs=1e-12)

    def test_one_hot_context(self):
        [ent], [maxp] = entropy_and_maxprob(self.make_policy().dist(np.array([[1]])))
        assert ent == pytest.approx(0.0, abs=1e-12)
        assert maxp == pytest.approx(1.0, abs=1e-12)

    def test_exactly_one_hot_row_has_entropy_plus_zero(self):
        # The sum over the one positive entry is 1*log(1) = +0.0; its
        # entropy is +0.0, not the negated -0.0, in every row.
        rows = np.eye(4)[[2, 0, 2]].reshape(1, 3, 4)
        ents, maxps = entropy_and_maxprob(rows)
        assert [bits(e) for e in ents] == [bits(0.0)] * 3
        assert [bits(m) for m in maxps] == [bits(1.0)] * 3

    def test_even_mixture_is_midpoint(self):
        # One value per visited step; their mean is what a record holds.
        ents, maxps = entropy_and_maxprob(self.make_policy().dist(np.array([[0, 1]])))
        assert ents == pytest.approx([math.log(8), 0.0], abs=1e-12)
        assert maxps == pytest.approx([0.125, 1.0], abs=1e-12)
        assert metrics._mean(ents) == pytest.approx(math.log(8) / 2, abs=1e-12)
        assert metrics._mean(maxps) == pytest.approx((0.125 + 1.0) / 2, abs=1e-12)


class TestDiversityScore:
    """A record's diversity is 1 - Self-BLEU: 0 for identical samples, 1 for
    disjoint alphabets."""

    def test_identical_sequences(self):
        assert 1.0 - bleu(np.array([(1, 2, 3, 4)] * 5)) == pytest.approx(0.0)

    def test_disjoint_alphabets(self):
        samples = np.array([(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)])
        assert 1.0 - bleu(samples) == pytest.approx(1.0)

    def test_partial_overlap_matches_oracle(self):
        samples = np.array([(1, 2, 3, 4), (1, 2, 3, 4), (5, 6, 7, 8)])
        assert bleu(samples) == pytest.approx(oracle_self_bleu(samples.tolist(), 4), abs=1e-12)

    def test_random_samples_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 7))
            samples = rng.integers(0, 4, size=(k, d))
            assert bleu(samples) == pytest.approx(oracle_self_bleu(samples.tolist(), 4),
                                                  abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            bleu(np.array([(1, 2, 3)]))

    @settings(max_examples=100, deadline=None)
    @given(blocks(st.integers(0, 5), st.integers(2, 6), st.integers(1, 8)), st.randoms())
    def test_bounds_and_order_invariance(self, samples, rnd):
        value = 1.0 - bleu(samples)
        assert 0.0 <= value <= 1.0
        order = list(range(len(samples)))
        rnd.shuffle(order)
        assert 1.0 - bleu(samples[order]) == pytest.approx(value, abs=1e-12)


class TestSelfBleuMatchesPairwise:
    @settings(max_examples=300, deadline=None)
    @given(blocks(st.integers(0, 2), st.integers(1, 6)), st.data())
    def test_ties_for_the_largest_count(self, base, data):
        # Copies of some samples: a hypothesis can tie another sample for
        # the largest count of its n-grams, so the best other count is the
        # largest, not the second-largest.
        copies = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=4))
        order = data.draw(st.permutations(range(len(base) + len(copies))))
        assert_bleu_bitwise(np.concatenate([base, base[copies]])[order])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=7),
           st.sampled_from([2, 3, 4, 5, 6, 7, 8, 64]))
    def test_all_identical_samples(self, seq, k):
        samples = np.array([seq] * k)
        assert_bleu_bitwise(samples)
        assert bleu(samples) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 6), st.integers(2, 4), st.data())
    def test_equal_length_up_to_64_samples(self, k, depth, branching, data):
        assert_bleu_bitwise(data.draw(blocks(st.integers(0, branching - 1), st.just(k),
                                             st.just(depth))))

    def test_rollout_samples(self):
        # ``evaluate`` passes the (K, D) int64 block rollout returns.
        for seed in range(4):
            tokens = rollout_tokens(seed)
            assert tokens.dtype == np.int64
            assert_bleu_bitwise(tokens)

    @settings(max_examples=100, deadline=None)
    @given(blocks(st.sampled_from([-(2**62), -(2**62) + 1, -1, 0, 2**62 - 1, 2**62]),
                  st.integers(2, 8), st.integers(1, 9)))
    def test_tokens_near_2_62(self, samples):
        # A base-V code of any n-gram of such tokens, n >= 2, would overflow int64.
        assert_bleu_bitwise(samples)

    @pytest.mark.parametrize("case", ["rollouts", "repeats"])
    def test_bleu_runs_once_per_distinct_row(self, monkeypatch, case):
        # Samples with one row of clipped counts share their score, so
        # _bleu scores each distinct row once.
        if case == "rollouts":
            samples = rollout_tokens(0)
        else:
            samples = np.array([[1, 2, 3], [1, 2, 3], [2, 3, 1], [1, 1, 1], [1, 1, 1],
                                [3, 2, 1], [2, 3, 1], [4, 4, 4]])
        distinct = set(map(tuple, metrics._clipped_counts(samples, 1).tolist()))
        calls = []
        bleu = metrics._bleu

        def counted(d, clipped):
            calls.append(tuple(clipped))
            return bleu(d, clipped)

        monkeypatch.setattr(metrics, "_bleu", counted)
        assert_bleu_bitwise(samples)
        assert sorted(calls) == sorted(distinct)
        assert len(calls) < len(samples)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 3), (2, 0)],
                             ids=["no-samples", "one-sample", "empty-samples"])
    def test_rejects_what_it_cannot_score(self, shape):
        with pytest.raises(ValueError):
            bleu(np.zeros(shape, dtype=np.int64))


@st.composite
def stacks(draw):
    """``(cells, tokens)``: a ``(cells*K, D)`` stack of 1-5 cells' blocks
    drawn from one small alphabet, so n-grams recur across cells, or from
    tokens near +-2**62."""
    cells, k, d = draw(st.integers(1, 5)), draw(st.integers(2, 8)), draw(st.integers(1, 6))
    tokens = draw(st.sampled_from([
        st.integers(0, 2),
        st.sampled_from([-(2**62), -(2**62) + 1, -1, 0, 2**62 - 1, 2**62]),
    ]))
    return cells, draw(arrays(np.int64, (cells * k, d), elements=tokens))


class TestStackedSelfBleu:
    """One call scores every cell of a stack with one sort; each cell's
    score is its block's alone, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(stacks())
    def test_each_cell_scores_as_its_block_alone(self, stack):
        cells, tokens = stack
        k = len(tokens) // cells
        scores = self_bleu(tokens, cells)
        assert len(scores) == cells
        for s, score in enumerate(scores):
            block = tokens[s * k:(s + 1) * k]
            assert bits(score) == bits(bleu(block)) == \
                bits(pairwise_self_bleu(block.tolist(), 4)), s

    def test_copies_of_a_block_in_other_cells_do_not_clip_it(self):
        # Disjoint samples score 0; a copy in another cell would score 1.
        block = np.array([(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)])
        assert self_bleu(np.tile(block, (3, 1)), 3) == [0.0, 0.0, 0.0]

    def test_rejects_unequal_blocks(self):
        with pytest.raises(ValueError):
            self_bleu(np.zeros((5, 3), dtype=np.int64), 2)


def loop_support_mass(policy, ref, k, ctxs):
    return float(np.mean(
        [float(policy.dist(c)[list(top_k(ref.dist(c), k))].sum()) for c in ctxs]
    ))


def loop_kl(policy, ref, ctxs):
    return float(np.mean([kl_penalty(policy.dist(c), ref.dist(c))[0] for c in ctxs]))


def loop_entropy_and_maxprob(policy, contexts):
    dists = [policy.dist(c) for c in np.asarray(contexts).ravel().tolist()]
    return float(np.mean([entropy(d) for d in dists])), float(np.mean([d.max() for d in dists]))


@st.composite
def policy_pairs(draw):
    """A policy whose rows have underflowed p == 0 entries (so the count of
    positive entries differs across rows) and a reference with integer
    logits (exact probability ties)."""
    v = draw(st.sampled_from([2, 8, 12]))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(scale=draw(st.sampled_from([0.5, 3.0])), size=(c, v))
    z[rng.random((c, v)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = -800.0
    return LogitTable(z), LogitTable(rng.integers(-2, 3, size=(c, v)).astype(float)), rng


class TestDenseMetricsMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(policy_pairs())
    def test_support_mass_and_kl(self, pair):
        # One value per context, each the loop oracle's at that context
        # alone; their mean is the oracle's over all of them.
        policy, ref, rng = pair
        v, c = policy.vocab_size, len(policy)
        ctxs = sorted(set(rng.integers(0, c, size=c).tolist()))
        P, Q = policy.dist(ctxs), ref.dist(ctxs)
        for k in sorted({1, max(1, v // 2), v - 1 or 1, v, v + 1}):
            mass = support_mass(P, Q, k)
            assert [bits(x) for x in mass] == \
                [bits(loop_support_mass(policy, ref, k, [ctx])) for ctx in ctxs]
            assert bits(metrics._mean(mass)) == bits(loop_support_mass(policy, ref, k, ctxs))
        kl = kl_to_reference(P, Q)
        assert [bits(x) for x in kl] == [bits(loop_kl(policy, ref, [ctx])) for ctx in ctxs]
        assert bits(metrics._mean(kl)) == bits(loop_kl(policy, ref, ctxs))

    @settings(max_examples=200, deadline=None)
    @given(policy_pairs())
    def test_entropy_and_maxprob(self, pair):
        # One pair per visited step, in order, and the means over them,
        # bit for bit (a one-hot row's entropy is +0.0 in both).
        policy, _, rng = pair
        visits = rng.integers(0, len(policy), size=(5, 3))
        ents, maxps = entropy_and_maxprob(policy.dist(visits))
        want = [loop_entropy_and_maxprob(policy, [ctx]) for ctx in visits.ravel().tolist()]
        assert [(bits(e), bits(m)) for e, m in zip(ents, maxps)] == \
            [(bits(e), bits(m)) for e, m in want]
        means = metrics._mean(ents), metrics._mean(maxps)
        assert [bits(x) for x in means] == \
            [bits(x) for x in loop_entropy_and_maxprob(policy, visits)]

    def test_rejections(self):
        rows = LogitTable(np.zeros((2, 4))).dist([0, 1])
        with pytest.raises(ValueError):
            support_mass(rows, rows, 0)
        ref = LogitTable(np.array([[0.0, -800.0, 0.0, 0.0]])).dist([0])  # q == 0 at token 1
        with pytest.raises(ValueError, match="reference assigns zero mass"):
            kl_to_reference(rows[:1], ref)


class TestSupportMass:
    def test_uniform_matches_k_over_v(self):
        rows = LogitTable(np.zeros((1, 8))).dist([0])
        assert support_mass(rows, rows, 2) == pytest.approx([0.25], abs=1e-12)
        assert support_mass(rows, rows, 8) == pytest.approx([1.0], abs=1e-12)

    def test_one_hot_on_manifold_member(self):
        ref = LogitTable(np.array([[2.0, 1.0, 0.0, -1.0]]))
        z = np.full((1, 4), -300.0)
        z[0, 1] = 300.0
        policy = LogitTable(z)
        assert support_mass(policy.dist([0]), ref.dist([0]), 2) == pytest.approx([1.0],
                                                                                 abs=1e-12)


class TestKlToReference:
    def test_zero_iff_equal(self):
        # Per context: moving row 0 leaves row 1's KL at zero.
        z = np.array([[0.5, 0.2, -0.3, 0.0], [1.0, 0.0, 0.0, -1.0]])
        Q = LogitTable(z).dist([0, 1])
        assert kl_to_reference(Q, Q) == pytest.approx([0.0, 0.0], abs=1e-12)
        z[0, 0] += 0.5
        moved, kept = kl_to_reference(LogitTable(z).dist([0, 1]), Q)
        assert moved > 1e-9
        assert kept == pytest.approx(0.0, abs=1e-12)

    def test_entries_zero_in_both_rows_are_skipped(self):
        # A reference that underflows to 0 where the policy does too: the
        # entry adds nothing and is never divided (0/0 would warn).
        z = np.array([[0.0, -800.0, 0.3, 0.0], [0.2, 0.0, -900.0, 0.0]])
        P, Q = LogitTable(z + [0.5, 0.0, 0.0, 0.0]).dist([0, 1]), LogitTable(z).dist([0, 1])
        assert np.count_nonzero(P == 0.0) == np.count_nonzero(Q == 0.0) == 2
        want = [kl_penalty(p, q)[0] for p, q in zip(P, Q)]
        assert [bits(x) for x in kl_to_reference(P, Q)] == [bits(x) for x in want]


class TestEvaluate:
    def test_record_consistency(self):
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=6, seed=3))
        record = evaluate_one(tree.ref_policy.copy(), tree, 7, 32, np.random.default_rng(1))
        assert record.step == 7
        assert record.eval_k == 32
        assert record.pass_at_k >= record.pass_at_1
        assert 0.0 <= record.diversity_score <= 1.0
        assert 0.0 <= record.support_mass <= 1.0
        assert record.kl_to_ref == pytest.approx(0.0, abs=1e-12)
        assert record.mean_entropy > 0

    def test_deterministic_given_rng(self):
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=6, seed=3))
        a = evaluate_one(tree.ref_policy.copy(), tree, 0, 16, np.random.default_rng(5))
        b = evaluate_one(tree.ref_policy.copy(), tree, 0, 16, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("support_k", [None, 1])
    def test_record_matches_loop_oracles_bitwise(self, seed, support_k):
        # The oracles read the same rollout: same policy, same eval stream.
        rng = np.random.default_rng(seed)
        depth, branching = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        tree = generate_tree(EnvConfig(depth=depth, branching=branching, num_valid_leaves=1,
                                       seed=seed))
        policy = LogitTable(rng.normal(0.0, 2.0, (tree.num_contexts(), branching)))
        k = int(rng.integers(2, 65))
        record = evaluate_one(policy, tree, 3, k, np.random.default_rng(seed), support_k)
        tokens, contexts, rewards, _ = rollout(tree, policy,
                                                np.random.default_rng(seed).random((k, tree.depth)))
        visited = sorted(set(contexts.ravel().tolist()))
        top = max(1, branching // 2) if support_k is None else support_k
        ent, maxp = loop_entropy_and_maxprob(policy, contexts)
        want = MetricRecord(
            step=3,
            pass_at_1=float(np.mean(rewards)),
            pass_at_k=float(rewards.max() > 0),
            mean_entropy=ent,
            mean_max_prob=maxp,
            diversity_score=1.0 - pairwise_self_bleu(tokens.tolist(), 4),
            support_mass=loop_support_mass(policy, tree.ref_policy, top, visited),
            kl_to_ref=loop_kl(policy, tree.ref_policy, visited),
            eval_k=k,
        )
        for name, value in vars(want).items():
            assert bits(getattr(record, name)) == bits(value), name

    def test_twin_cells_each_equal_the_cell_evaluated_alone(self):
        # Two cells with one start table and one evaluation seed draw the
        # same samples; neither cell's n-grams may clip the other's.
        tree = generate_tree(EnvConfig(depth=4, branching=8, num_valid_leaves=8, seed=0))
        policy = tree.ref_policy.copy()
        records = evaluate(StackedTable(policy, 2), tree, 0, 64,
                           [np.random.default_rng(5), np.random.default_rng(5)])
        want = evaluate_one(policy, tree, 0, 64, np.random.default_rng(5))
        for record in records:
            assert [bits(v) for v in vars(record).values()] == \
                [bits(v) for v in vars(want).values()]
        assert want.diversity_score > 0.5

    @pytest.mark.parametrize("cells", [1, 7])
    def test_each_helper_runs_once_per_evaluation(self, monkeypatch, cells):
        tree = generate_tree(EnvConfig(depth=3, branching=4, num_valid_leaves=6, seed=3))
        calls = Counter()

        def spy(name):
            def counted(*args, call=getattr(metrics, name)):
                calls[name] += 1
                return call(*args)
            monkeypatch.setattr(metrics, name, counted)

        helpers = ["entropy_and_maxprob", "self_bleu", "support_mass", "kl_to_reference"]
        for name in helpers:
            spy(name)
        rngs = [np.random.default_rng(seed) for seed in range(cells)]
        records = evaluate(StackedTable(tree.ref_policy.copy(), cells), tree, 0, 16, rngs)
        assert len(records) == cells
        assert calls == Counter(helpers)

    def test_train_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma, which costs start-up time and peak
        # memory; nothing a train run calls may pull it in.
        spec = {"name": "ma", "seeds": [0],
                "env": {"depth": 3, "branching": 4, "num_valid_leaves": 2},
                "methods": [{"method": "grpo"}, {"method": "apo", "anchor_k": 2}],
                "train": {"total_steps": 2, "eval_every": 1, "eval_samples_k": 8}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = ("import sys\n"
                "from anchorlab.cli import main\n"
                f"assert main(['train', '--spec', {str(path)!r}, '--out', {str(tmp_path)!r},"
                " '--no-timestamp']) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestMetricsCsv:
    def test_round_trip_and_header(self, tmp_path):
        records = [
            MetricRecord(0, 0.25, 1.0, 1.5, 0.5, 0.75, 0.6, 0.01, 16),
            MetricRecord(10, 1 / 3, 0.5, math.pi / 3, 0.125, 0.9, 2 / 7, 1e-12, 16),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER
        assert read_metrics_csv(path) == records

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_a_non_finite_value_naming_the_row(self, tmp_path, value):
        path = tmp_path / "metrics.csv"
        write_metrics_csv([MetricRecord(0, 0.25, 1.0, 1.5, 0.5, 0.75, 0.6, 0.01, 16)] * 2, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0.6", value)  # support_mass of the second row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="metrics row 2 holds a non-finite value"):
            read_metrics_csv(path)

    def test_timestamp_comment(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv([], path, timestamp="2026-01-01T00:00:00")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert read_metrics_csv(path) == []
