import math
import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    choice_weighted_reference,
    mapping_of,
    pack_arrays,
    relative_error,
    unpack_arrays,
)
from transducer_workbench.errors import ContractViolation, OracleFailure
from transducer_workbench.numerics import (
    NEG_INF,
    CumulativeTable,
    RandomStream,
    finite_difference_gradient,
    log_softmax,
    log_sum_exp,
    mapped_copy,
    mapped_zeros,
)


class TestLogSumExp:
    def test_two_halves(self):
        assert log_sum_exp([math.log(0.5), math.log(0.5)]) == pytest.approx(0.0, abs=1e-15)

    def test_single_element_identity(self):
        assert log_sum_exp([-3.7]) == -3.7

    def test_neg_inf_contributes_nothing(self):
        assert log_sum_exp([NEG_INF, -1.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_all_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            log_sum_exp([])

    def test_permutation_invariance_and_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(0, 5, size=rng.integers(2, 12))
            direct = log_sum_exp(v)
            assert log_sum_exp(v[::-1]) == pytest.approx(direct, abs=1e-12)
            k = rng.integers(1, v.size)
            split = log_sum_exp([log_sum_exp(v[:k]), log_sum_exp(v[k:])])
            assert split == pytest.approx(direct, abs=1e-12)


def softmax(logits):
    """The distribution of `log_softmax`, exp(log_softmax(z))."""
    return np.exp(log_softmax(np.asarray(logits, dtype=np.float64)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        for c in (-100.0, 0.0, 3.25, 1e5):
            np.testing.assert_allclose(softmax([c] * 4), [0.25] * 4, atol=1e-15)

    def test_exact_ratio(self):
        np.testing.assert_allclose(
            softmax([math.log(1.0), math.log(3.0)]), [0.25, 0.75], atol=1e-14
        )

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation):
            softmax([0.0, float("nan")])

    def test_probability_vector_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            z = rng.normal(0, 10, size=rng.integers(2, 9))
            p = softmax(z)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_log_softmax_consistent(self):
        # Against the direct formula exp(z - max z) / sum(exp(z - max z)).
        rng = np.random.default_rng(3)
        z = rng.normal(0, 4, size=(5, 7))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(softmax(z), e / e.sum(axis=-1, keepdims=True), atol=1e-12)


    @pytest.mark.parametrize("K", [2, 9, 17, 40])
    def test_log_softmax_block_equals_row_calls_bitwise(self, K):
        # A decoder's beam step normalises a (B, K) block in one call.
        rng = RandomStream(K)
        block = rng.normal(0, 3, size=(7, K))
        block[1, 0] = NEG_INF
        block[2, : K // 2] = NEG_INF
        block[3] *= 1e3
        block[4, -1] = 800.0
        block[5] = 1e300 * np.sign(block[5])
        out = log_softmax(block)
        assert np.isfinite(out[0]).all() and np.isneginf(out[1, 0])
        assert np.array_equal(out, np.stack([log_softmax(row) for row in block]))

    @pytest.mark.parametrize("shape", [(9,), (8, 9), (8, 17, 9)])
    def test_log_softmax_equals_the_np_max_sum_formula_bitwise(self, shape):
        def formula(z):
            shifted = z - np.max(z, axis=-1, keepdims=True)
            return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))

        for seed in range(20):
            rng = RandomStream(seed)
            z = rng.normal(0, 10 ** rng.uniform(-2, 3), size=shape)
            z[rng.random(shape) < 0.2] = NEG_INF
            z.reshape(-1, shape[-1])[0, 0] = max(z.max(), 0.0)  # one finite row at least
            assert np.array_equal(log_softmax(z), formula(z))

    @pytest.mark.parametrize("where", [(0, 0), (3, 8), (7, 4)])
    def test_log_softmax_nan_anywhere_rejected(self, where):
        z = RandomStream(1).normal(size=(8, 9))
        z[3, :8] = NEG_INF
        z[where] = np.nan
        with pytest.raises(ContractViolation, match="NaN"):
            log_softmax(z)
        with pytest.raises(ContractViolation, match="NaN"):
            log_softmax(z[where[0]])


class TestFiniteDifference:
    def test_quadratic(self):
        g = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-3)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_difference_gradient(lambda x: 1.25, np.ones(4), eps=1e-4)
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_nonfinite_names_coordinate(self):
        def f(x):
            return float("inf") if x[1] > 0.5 else 0.0

        with pytest.raises(OracleFailure, match="coordinate 1"):
            finite_difference_gradient(f, np.array([0.0, 0.5, 0.0]), eps=1e-2)


class TestRandomStream:
    def test_repeatable_draws(self):
        a = RandomStream(123, 5).random(10)
        b = RandomStream(123, 5).random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomStream(123, 5).random(10)
        b = RandomStream(123, 6).random(10)
        assert not np.array_equal(a, b)

    def test_child_streams_deterministic_and_distinct(self):
        base = RandomStream(9)
        c1 = base.child(4, 2)
        c2 = base.child(4, 3)
        again = RandomStream(9).child(4, 2)
        np.testing.assert_array_equal(c1.random(5), again.random(5))
        assert not np.array_equal(RandomStream(9).child(4, 2).random(5), c2.random(5))

    def test_choice_weighted_distribution(self):
        rs = RandomStream(77)
        counts = np.zeros(3)
        for _ in range(30_000):
            counts[rs.choice_weighted([1.0, 2.0, 1.0])] += 1
        np.testing.assert_allclose(counts / counts.sum(), [0.25, 0.5, 0.25], atol=0.01)

    @pytest.mark.parametrize("weights, entry", [
        ([2.0, -1.0, 0.5], 1),
        ([-1.0, 3.0], 0),
        ([1.0, -0.0, -1e-300], 2),
        ([1.0, math.nan], 1),
        ([math.inf, 1.0], 0),
        ([1.0, 2.0, -math.inf], 2),
    ])
    def test_negative_or_non_finite_entry_refused(self, weights, entry):
        # The total alone would pass [2, -1, 0.5] and [-1, 3], whose draws
        # land on the entries next to the negative one.
        with pytest.raises(ContractViolation, match=f"^weight {entry} is "):
            RandomStream(3).choice_weighted(weights)

    @pytest.mark.parametrize("weights", [[], [0.0], [0.0, 0.0, -0.0], [1e308, 1e308]])
    def test_total_must_be_positive_and_finite(self, weights):
        with pytest.raises(ContractViolation, match="positive finite weights"):
            RandomStream(3).choice_weighted(weights)


def fixed_uniform(u: float) -> RandomStream:
    """A stream whose `gen.random()` returns `u` at every call."""
    stream = RandomStream(0)
    stream._gen = type("FixedUniform", (), {"random": staticmethod(lambda: u)})()
    return stream


@st.composite
def weight_rows(draw):
    """Nonnegative rows with a positive total, with runs of zero weights at
    either end, and single-entry rows."""
    middle = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=10).filter(any))
    return [0.0] * draw(st.integers(0, 3)) + middle + [0.0] * draw(st.integers(0, 3))


@st.composite
def dyadic_hits(draw):
    """A row of dyadic weights whose total is a power of two, and a uniform
    u for which u * total is exactly one of the row's running sums."""
    counts = draw(st.lists(st.integers(0, 16), min_size=1, max_size=10).filter(any))
    total = 1 << (sum(counts) - 1).bit_length()
    counts.append(total - sum(counts))  # 0 when the sum is a power of two
    scale = 2.0 ** draw(st.integers(-20, 20))
    running = np.cumsum(counts)
    k = draw(st.sampled_from([i for i, c in enumerate(running) if c < total] or [0]))
    u = float(running[k]) / total if running[k] < total else 0.0
    return [c * scale for c in counts], u


@st.composite
def overshooting_rows(draw):
    """One weight and 8 or more below half its last bit: every running sum
    after the first rounds back to it, but numpy's pairwise total (eight
    accumulators from 8 entries on) does not, so a uniform close enough to
    1 lands past the last running sum and the draw is clipped."""
    head = 2.0 ** draw(st.integers(-20, 20))
    row = [head] + [head * 2.0**-53] * draw(st.integers(8, 40))
    return row, draw(st.sampled_from([1.0 - 2.0**-53, 1.0 - 2.0**-51, 0.5]))


class TestCumulativeTable:
    """A draw from a table built once equals the per-draw sum, cumsum and
    searchsorted of `choice_weighted_reference`, index for index."""

    draw_settings = settings(max_examples=400, deadline=None, derandomize=True, database=None)

    @draw_settings
    @given(weight_rows() | st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=1),
           st.integers(0, 2**63))
    def test_stream_draws_equal_the_reference(self, weights, seed):
        table = CumulativeTable(weights)
        new, old = RandomStream(seed), RandomStream(seed)
        assert [new.draw(table) for _ in range(20)] == [
            choice_weighted_reference(old, weights) for _ in range(20)
        ]
        assert RandomStream(seed).choice_weighted(weights) == choice_weighted_reference(
            RandomStream(seed), weights)

    @draw_settings
    @given(dyadic_hits() | overshooting_rows()
           | st.tuples(weight_rows(), st.sampled_from([0.0, 1.0 - 2.0**-53])))
    def test_uniforms_on_a_running_sum_equal_the_reference(self, row):
        # u * total equals a running sum exactly, so the draw rests on the
        # comparison at the boundary; or u * total passes the last running
        # sum, and the draw is clipped to the last entry.
        weights, u = row
        expected = choice_weighted_reference(fixed_uniform(u), weights)
        assert fixed_uniform(u).draw(CumulativeTable(weights)) == expected
        assert fixed_uniform(u).choice_weighted(weights) == expected

    def test_a_uniform_past_the_last_running_sum_draws_the_last_entry(self):
        weights = [1.0] + [2.0**-53] * 15
        table = CumulativeTable(weights)
        assert table.cumulative[-1] == 1.0 < table.total
        u = 1.0 - 2.0**-53
        assert u * table.total > table.cumulative[-1]
        assert fixed_uniform(u).draw(table) == 15
        assert choice_weighted_reference(fixed_uniform(u), weights) == 15


def test_pack_unpack_roundtrip():
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([1.5, -2.0])}
    vec = pack_arrays(arrays)
    back = unpack_arrays(vec, arrays)
    for k in arrays:
        np.testing.assert_array_equal(back[k], arrays[k])


def test_relative_error_scalarizes():
    assert relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert relative_error(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)



class TestMappedArrays:
    SHAPES = {"W": (3, 5), "b": (7,), "scalar": (), "empty": (0, 4), "v": (9,)}

    def test_zeros_of_each_shape_in_order_aligned_and_disjoint(self):
        arrays = mapped_zeros(self.SHAPES)
        assert list(arrays) == list(self.SHAPES)
        for name, shape in self.SHAPES.items():
            arr = arrays[name]
            assert arr.shape == shape and arr.dtype == np.float64 and arr.flags.writeable
            assert arr.flags.c_contiguous and arr.ctypes.data % 64 == 0
            assert not arr.any()
        for k, arr in enumerate(arrays.values()):
            arr[...] = k + 1.0
        for k, arr in enumerate(arrays.values()):
            assert (arr == k + 1.0).all()

    def test_all_views_of_one_anonymous_mapping(self):
        arrays = mapped_zeros(self.SHAPES)
        mappings = {id(mapping_of(arr)) for arr in arrays.values()}
        assert len(mappings) == 1
        assert isinstance(mapping_of(arrays["W"]), mmap.mmap)

    def test_no_shapes_and_zero_sizes_still_map(self):
        assert mapped_zeros({}) == {}
        assert mapped_zeros({"e": (0,)})["e"].shape == (0,)

    def test_copy_holds_every_bit(self):
        source = {"a": np.arange(6.0).reshape(2, 3),
                  "b": np.array([-0.0, np.inf, -np.inf, 5e-324])}
        copy = mapped_copy(source)
        assert list(copy) == list(source)
        for name, arr in source.items():
            assert copy[name].tobytes() == arr.tobytes()
            assert not np.shares_memory(copy[name], arr)
            assert isinstance(mapping_of(copy[name]), mmap.mmap)
