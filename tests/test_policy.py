import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlab.policy import (
    LogitTable,
    StackedTable,
    check_dist,
    distinct,
    dump_logit_table,
    entropy,
    layout_sums,
    load_logit_table,
    sample_token,
    segment_layout,
    segment_sums,
    softmax,
)


class TestSoftmax:
    def test_symmetric_two_tokens(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant_vector(self):
        for c in (-3.0, 0.0, 5.5, 123.0):
            np.testing.assert_allclose(softmax([c] * 4), [0.25] * 4, atol=1e-15)

    def test_log_integer_logits(self):
        # e^{ln k} = k, so softmax([ln 1..ln 4]) = [1,2,3,4]/10 exactly.
        z = [math.log(k) for k in (1, 2, 3, 4)]
        np.testing.assert_allclose(softmax(z), [0.1, 0.2, 0.3, 0.4], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([0.0, float("nan")])
        with pytest.raises(ValueError):
            softmax([0.0, float("inf")])

    @pytest.mark.parametrize("v", [1, 2, 3, 8, 9, 32])
    def test_rows_of_2d_call_equal_1d_call_bitwise(self, v):
        # 4,099 rows: the maxima run across the rows of a transposed copy,
        # so a block of a wide stack's size is checked as well as one row.
        # Rows 0-7 tie at their maximum; rows 8-11 peak at a signed zero,
        # (+0, -0), (-0, +0), (-0, -0) and (+0, +0) in their first entries.
        rng = np.random.default_rng(v)
        z = 5.0 * rng.standard_normal((4099, v))
        z[:8] = rng.integers(-2, 2, (8, v))
        w = min(v, 2)
        z[8:12] = -1.0 - rng.random((4, v))
        z[8:12, :w] = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])[:, :w]
        picked = [3, 0, 3, 9, 4098]
        rows, fancy = softmax(z), softmax(z[picked])
        assert rows.shape == z.shape and fancy.shape == (len(picked), v)
        for i in range(len(z)):
            assert rows[i].tobytes() == softmax(z[i]).tobytes()
        for j, i in enumerate(picked):
            assert fancy[j].tobytes() == softmax(z[i]).tobytes()
        # The same arithmetic with the maxima taken along each row.
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert rows.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    @pytest.mark.parametrize(
        "logits",
        [1.0, np.zeros((2, 2, 2)), [], np.zeros((0, 3)), np.zeros((3, 0)),
         [[0.0, 1.0], [float("nan"), 0.0]], [[0.0, float("-inf")]]],
        ids=["0-D", "3-D", "empty", "no-rows", "no-columns", "nan-row", "inf-row"],
    )
    def test_rejects_bad_shape_and_non_finite(self, logits):
        with pytest.raises(ValueError):
            softmax(logits)

    def test_extreme_logits_stay_valid(self):
        for z in ([700.0, -700.0], [700.0, 700.0], [-700.0, -700.0, 0.0]):
            check_dist(softmax(z))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-300, 300), min_size=2, max_size=16),
        st.floats(-300, 300),
    )
    def test_shift_invariance_property(self, logits, c):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + c)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=33))
    def test_output_is_distribution(self, logits):
        check_dist(softmax(logits))


class TestSampling:
    def test_degenerate_distribution(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert sample_token(np.array([1.0, 0.0, 0.0]), rng) == 0

    def test_zero_probability_never_sampled(self):
        rng = np.random.default_rng(3)
        dist = np.array([0.5, 0.0, 0.5])
        draws = {sample_token(dist, rng) for _ in range(2000)}
        assert 1 not in draws

    def test_empirical_frequency(self):
        rng = np.random.default_rng(42)
        dist = np.array([0.5, 0.5])
        n = 10**5
        hits = sum(sample_token(dist, rng) == 0 for _ in range(n))
        # Binomial 99% interval is well inside +/- 0.01 at n = 1e5.
        assert abs(hits / n - 0.5) < 0.01

    def test_determinism(self):
        dist = np.array([0.2, 0.3, 0.5])
        rng_a = np.random.default_rng(7)
        a = [sample_token(dist, rng_a) for _ in range(50)]
        # Re-create the generator: identical seed, identical call sequence.
        rng_b = np.random.default_rng(7)
        b = [sample_token(dist, rng_b) for _ in range(50)]
        assert a == b

    def test_rejects_invalid_dist(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_token(np.array([0.7, 0.7]), rng)
        with pytest.raises(ValueError):
            sample_token(np.array([1.2, -0.2]), rng)


class TestLogitTable:
    def test_set_and_read(self):
        table = LogitTable(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        np.testing.assert_array_equal(table.logits(0), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table.logits(1), [4.0, 5.0, 6.0])
        assert len(table) == 2 and table.vocab_size == 3
        with pytest.raises(IndexError):
            table.logits(2)

    def test_rejects_wrong_length_and_non_finite(self):
        with pytest.raises(ValueError):
            LogitTable(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LogitTable(np.zeros((2, 0)))
        with pytest.raises(ValueError):
            LogitTable(np.array([[1.0, np.nan, 2.0]]))

    def test_defensive_copy_on_set(self):
        # The constructor copies its array, and a copy never shares rows.
        src = np.array([[1.0, 2.0]])
        table = LogitTable(src)
        src[0, 0] = 99.0
        np.testing.assert_array_equal(table.logits(0), [1.0, 2.0])
        clone = table.copy()
        np.testing.assert_array_equal(clone.logits(0), [1.0, 2.0])
        assert not np.shares_memory(clone.logits(0), table.logits(0))
        with pytest.raises(ValueError):
            table.logits(0)[0] = 3.0


@pytest.mark.parametrize("size, high", [(0, 5), (1, 5), (7, 3), (200, 50), (500, 10**12)])
def test_distinct_equals_np_unique(size, high):
    ids = np.random.default_rng(size).integers(0, high, size)
    got = distinct(ids)
    assert got.dtype == ids.dtype and got.tobytes() == np.unique(ids).tobytes()


def start_and_copy(c=6, v=4, seed=0):
    """A start table and an independent copy of its logits, the oracle."""
    z = 3.0 * np.random.default_rng(seed).standard_normal((c, v))
    return LogitTable(z), z.copy()


class TestStackedTable:
    def test_cells_read_the_start_until_they_write(self):
        start, want = start_and_copy()
        stack = StackedTable(start, 3)
        assert len(stack) == 18 and stack.contexts == 6 and stack.vocab_size == 4
        ctxs = np.arange(6)
        want = LogitTable(want)
        for s in range(3):
            cell = stack.cell(s)
            assert len(cell) == 6 and cell.vocab_size == 4
            assert cell.dist(ctxs).tobytes() == want.dist(ctxs).tobytes()
            assert dump_logit_table(cell) == dump_logit_table(want)
        assert stack.dist(np.arange(18)).tobytes() == want.dist(np.tile(ctxs, 3)).tobytes()

    def test_no_cell_sees_another_cells_update(self):
        start, want = start_and_copy()
        stack = StackedTable(start, 3)
        d1, d2 = np.full((1, 4), 0.5), np.array([[1.0, -1.0, 2.0, 0.0]])
        stack.add_to_logits(np.array([6 + 2]), d1)  # cell 1, context 2
        stack.add_to_logits(np.array([2, 12 + 2, 12 + 5]), np.vstack((d2, d2, d1)))
        expected = np.stack([want] * 3)
        expected[1, 2] += d1[0]
        expected[0, 2] += d2[0]
        expected[2, [2, 5]] += np.vstack((d2, d1))
        stack.add_to_logits(np.array([6 + 2]), d2)  # a private row is written in place
        expected[1, 2] += d2[0]
        for s in range(3):
            assert dump_logit_table(stack.cell(s)) == dump_logit_table(LogitTable(expected[s]))
        # The start table is never written: it reads the stack's copy.
        assert dump_logit_table(start) == dump_logit_table(LogitTable(want))

    def test_room_for_private_rows(self):
        start, want = start_and_copy()
        stack = StackedTable(start, 2, capacity=2)
        stack.add_to_logits(np.array([1, 7]), np.ones((2, 4)))
        stack.add_to_logits(np.array([1, 7]), np.ones((2, 4)))  # no new rows
        before = [dump_logit_table(stack.cell(s)) for s in range(2)]
        with pytest.raises(ValueError, match="no room"):
            stack.add_to_logits(np.array([1, 8]), np.ones((2, 4)))
        assert [dump_logit_table(stack.cell(s)) for s in range(2)] == before

    def test_failed_update_changes_nothing_and_takes_no_row(self):
        start, want = start_and_copy()
        stack = StackedTable(start, 2, capacity=1)
        bad = np.zeros((2, 4))
        bad[1, 3] = np.inf
        with pytest.raises(ValueError, match="key 9"):
            stack.add_to_logits(np.array([3, 9]), bad)
        with pytest.raises(ValueError):
            stack.add_to_logits(np.array([3]), np.zeros((1, 3)))
        for s in range(2):
            assert dump_logit_table(stack.cell(s)) == dump_logit_table(LogitTable(want))
        stack.add_to_logits(np.array([9]), np.ones((1, 4)))  # the one row is still free
        assert stack.cell(1).logits(3).tobytes() == (want[3] + 1.0).tobytes()

    def test_cell_copy_and_logits_are_not_the_stack(self):
        start, want = start_and_copy()
        stack = StackedTable(start, 2)
        cell = stack.cell(1)
        with pytest.raises(ValueError):
            cell.logits(4)[0] = 1.0
        stack.add_to_logits(np.array([6 + 4]), np.ones((1, 4)))
        # The copy keeps the cell as it was; the stack's next copy has the update.
        assert dump_logit_table(cell) == dump_logit_table(LogitTable(want))
        want[4] += 1.0
        assert dump_logit_table(stack.cell(1)) == dump_logit_table(LogitTable(want))


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        z = rng.normal(0, 10, size=(8, 5))
        # Awkward exact values must survive the text format bit-for-bit.
        z[7] = [1 / 3, math.pi, -1e-17, 2**-40, 1e300]
        z[6, 0] = -0.0
        table = LogitTable(z)
        text = dump_logit_table(table)
        loaded = load_logit_table(text)
        assert loaded.vocab_size == 5
        assert len(loaded) == len(table)
        for ctx in range(len(table)):
            np.testing.assert_array_equal(loaded.logits(ctx), table.logits(ctx))
        assert dump_logit_table(loaded) == text

    def test_header_format(self):
        table = LogitTable(np.array([[0.0, 1.0], [2.0, 3.0]]))
        lines = dump_logit_table(table).strip().splitlines()
        assert lines[0] == "V=2"
        assert lines[1].startswith("ctx=0 z=")
        assert lines[2].startswith("ctx=1 z=")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_logit_table("not a table")

    @pytest.mark.parametrize(
        "rows",
        [
            ["ctx=1 z=0.0,1.0"],                                   # ctx=0 missing
            ["ctx=0 z=0.0,1.0", "ctx=2 z=0.0,1.0"],                # ctx=1 missing
            ["ctx=0 z=0.0,1.0", "ctx=0 z=0.0,1.0"],                # duplicated
            ["ctx=1 z=0.0,1.0", "ctx=0 z=0.0,1.0"],                # out of order
            ["ctx=0 z=0.0,1.0", "ctx=1 z=0.0,1.0,2.0"],            # too long
            ["ctx=0 z=0.0"],                                       # too short
        ],
        ids=["missing-first", "missing-middle", "duplicated", "out-of-order",
             "row-too-long", "row-too-short"],
    )
    def test_rejects_rows_not_dense_in_order(self, rows):
        assert load_logit_table("V=2\nctx=0 z=0.0,1.0\n").vocab_size == 2
        with pytest.raises(ValueError, match="expected"):
            load_logit_table("\n".join(["V=2"] + rows) + "\n")


class TestSegmentSums:
    """Every output is bitwise the 1-D ``.sum()`` of its segment."""

    @pytest.mark.parametrize(
        "counts",
        [[0, 3, 9, 0, 12, 1, 7, 30, 9, 3], [9] * 6, [4] * 5, [0] * 4, [], [130, 5, 0]],
        ids=["mixed", "all-9", "all-4", "all-empty", "none", "long"],
    )
    def test_each_sum_is_the_1d_sum_of_its_segment(self, counts):
        counts = np.array(counts, dtype=np.intp)
        rng = np.random.default_rng(counts.size)
        flat = rng.random(counts.sum()) * 10.0 ** rng.integers(-8, 8, counts.sum())
        ends = np.cumsum(counts)
        got = segment_sums(flat, counts)
        assert got.shape == (counts.size,)
        for i, (start, end) in enumerate(zip(ends - counts, ends)):
            assert got[i].tobytes() == flat[start:end].copy().sum().tobytes()

    def test_layout_through_an_index_sums_each_segment_as_its_1d_sum(self):
        # Lengths on both sides of numpy's 8-term pairwise boundary, mixed
        # and repeated in one layout, each segment's terms at the positions
        # a shuffled index array lists, of a 2-D array read flat.
        counts = np.array([17, 0, 8, 1, 15, 7, 9, 16, 8, 0, 17, 1, 9, 7, 16, 15], dtype=np.intp)
        rng = np.random.default_rng(24)
        values = rng.random((4, counts.sum())) * 10.0 ** rng.integers(-8, 8, (4, counts.sum()))
        index = rng.permutation(values.size)[:counts.sum()]
        layout = segment_layout(counts, index)
        assert sorted(table.shape[1] for _, table in layout) == [0, 1, 7, 8, 9, 15, 16, 17]
        got = layout_sums(values, layout)
        assert got.shape == (counts.size,)
        ends = np.cumsum(counts)
        for i, (start, end) in enumerate(zip(ends - counts, ends)):
            want = values.ravel()[index[start:end]].sum()
            assert got[i].tobytes() == want.tobytes()


def test_entropy_reference_values():
    assert entropy(np.ones(8) / 8) == pytest.approx(math.log(8), abs=1e-12)
    # +0.0 bit for bit: the sum 1*log(1) is +0.0, and its negation -0.0.
    for dist in (np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0])):
        assert np.float64(entropy(dist)).tobytes() == np.float64(0.0).tobytes()
