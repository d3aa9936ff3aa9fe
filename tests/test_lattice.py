import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    collapse_alignment,
    random_logprob_lattice,
    relative_error,
    rnnt_backward_reference,
    rnnt_forward_reference,
    rnnt_loss_from_logits,
)
from transducer_workbench.errors import (
    ContractViolation,
    DimensionError,
    EnumerationCapExceeded,
)
from transducer_workbench.lattice import (
    BLANK_ID,
    _logaddexp,
    alignment_log_prob,
    brute_force_nll,
    enumerate_alignments,
    rnnt_backward,
    rnnt_forward,
)
from transducer_workbench.numerics import finite_difference_gradient, log_softmax, log_sum_exp


def uniform_lattice(T, U, K):
    return np.full((T, U + 1, K), -math.log(K))


class TestEnumeration:
    def test_cat_example(self):
        # y = (C, A, T) as ids (0, 1, 2); T = 4 frames.
        aligns = enumerate_alignments(4, 3, [0, 1, 2])
        assert len(aligns) == 35
        # Augmented-vocabulary ids: blank = 0, labels shift by one.
        assert (0, 1, 0, 2, 0, 3, 0) in aligns
        assert (0, 0, 0, 0, 1, 2, 3) in aligns
        assert (1, 2, 3, 0, 0, 0, 0) in aligns
        for a in aligns:
            assert len(a) == 7
            assert sum(1 for s in a if s == BLANK_ID) == 4
            assert collapse_alignment(a) == (0, 1, 2)

    def test_t1_u1(self):
        assert enumerate_alignments(1, 1, [0]) == [(1, 0), (0, 1)]

    def test_binomial_counts(self):
        for T in range(11):
            for U in range(7):
                if T + U < 1:
                    continue
                n = len(enumerate_alignments(T, U, list(range(U)) if U else []))
                assert n == math.comb(T + U, U)

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_alignments(20, 3, [0, 1, 2])

    def test_enumeration_order(self):
        aligns = enumerate_alignments(2, 1, [0])
        assert aligns == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestForward:
    def test_uniform_t2_u1(self):
        # 3 alignments, each probability (1/2)^3 -> nll = -ln(3/8).
        lat = uniform_lattice(2, 1, 2)
        nll, alpha = rnnt_forward(lat, [0])
        assert nll == pytest.approx(-math.log(3.0 / 8.0), abs=1e-12)
        assert nll == pytest.approx(0.980829, abs=1e-6)
        assert alpha[2, 1] == pytest.approx(-nll)

    def test_single_blank(self):
        lat = np.log(np.array([[[0.5, 0.5]]]))
        nll, _ = rnnt_forward(lat, [])
        assert nll == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            T = int(rng.integers(1, 6))
            U = int(rng.integers(0, 5))
            K = int(rng.integers(2, 5))
            y = [int(v) for v in rng.integers(0, K - 1, size=U)]
            lat = random_logprob_lattice(T, U, K, rng)
            nll, _ = rnnt_forward(lat, y)
            assert abs(nll - brute_force_nll(lat, y)) <= 1e-10

    def test_t4_u3_agreement(self):
        rng = np.random.default_rng(5)
        lat = random_logprob_lattice(4, 3, 4, rng)
        y = [0, 2, 1]
        nll, _ = rnnt_forward(lat, y)
        assert abs(nll - brute_force_nll(lat, y)) <= 1e-10

    def test_shape_mismatch(self):
        lat = uniform_lattice(2, 1, 2)
        with pytest.raises(DimensionError):
            rnnt_forward(lat, [0, 0])
        with pytest.raises(DimensionError):
            rnnt_forward(lat, [5])

    def test_impossible_label_gives_inf(self):
        lat = log_softmax(np.zeros((2, 2, 3)))
        lat[:, 0, 1] = -np.inf  # label 0 can never be emitted
        nll = brute_force_nll(lat, [0])
        assert nll == np.inf
        fwd, _ = rnnt_forward(lat, [0])
        assert fwd == np.inf

    def test_relabeling_symmetry(self):
        # Permuting label identities together with lattice slices keeps nll.
        rng = np.random.default_rng(17)
        lat = random_logprob_lattice(3, 2, 4, rng)
        y = [0, 2]
        nll, _ = rnnt_forward(lat, y)
        perm = [2, 0, 1]  # permutation of label ids in Y
        lat_p = lat.copy()
        for old, new in enumerate(perm):
            lat_p[:, :, new + 1] = lat[:, :, old + 1]
        y_p = [perm[lab] for lab in y]
        nll_p, _ = rnnt_forward(lat_p, y_p)
        assert nll_p == nll


class TestBackward:
    def test_finite_difference_uniform_t2_u1(self):
        rng = np.random.default_rng(0)
        logits = np.zeros((2, 2, 2))
        y = [0]
        _, analytic = rnnt_loss_from_logits(logits, y)
        numeric = finite_difference_gradient(
            lambda z: rnnt_loss_from_logits(z.reshape(2, 2, 2), y)[0],
            logits.ravel().copy(),
        ).reshape(2, 2, 2)
        assert relative_error(analytic, numeric) <= 1e-4

    def test_finite_difference_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            T = int(rng.integers(1, 5))
            U = int(rng.integers(0, 4))
            K = int(rng.integers(2, 5))
            y = [int(v) for v in rng.integers(0, K - 1, size=U)]
            logits = rng.normal(0, 1, size=(T, U + 1, K))
            _, analytic = rnnt_loss_from_logits(logits, y)
            numeric = finite_difference_gradient(
                lambda z: rnnt_loss_from_logits(z.reshape(T, U + 1, K), y)[0],
                logits.ravel().copy(),
            ).reshape(T, U + 1, K)
            assert relative_error(analytic, numeric) <= 1e-4

    def test_u0_gradient_blank_only(self):
        rng = np.random.default_rng(9)
        lat = random_logprob_lattice(3, 0, 4, rng)
        _, grad = rnnt_backward(lat, [], rnnt_forward(lat, [])[1])
        nonblank = np.delete(grad, BLANK_ID, axis=2)
        assert np.all(nonblank == 0)
        assert np.all(grad[:, :, BLANK_ID] < 0)

    def test_node_occupancy_consistency(self):
        # Sum over outgoing-edge occupancies at a node equals
        # exp(alpha + beta - log p), within 1e-9.
        rng = np.random.default_rng(31)
        lat = random_logprob_lattice(3, 2, 3, rng)
        y = [1, 0]
        nll, alpha = rnnt_forward(lat, y)
        beta, _ = rnnt_backward(lat, y, alpha)
        T, U = 3, 2
        for t in range(T):
            for u in range(U + 1):
                occ = np.exp(lat[t, u, BLANK_ID] + beta[t + 1, u] - beta[t, u])
                if u < U:
                    occ += np.exp(lat[t, u, y[u] + 1] + beta[t, u + 1] - beta[t, u])
                assert occ == pytest.approx(1.0, abs=1e-9)
                node = np.exp(alpha[t, u] + beta[t, u] + nll)
                assert node <= 1.0 + 1e-9

    def test_stale_alpha_rejected(self):
        lat = uniform_lattice(2, 1, 2)
        with pytest.raises(DimensionError):
            rnnt_backward(lat, [0], np.zeros((5, 5)))

    def test_zero_probability_rejected(self):
        lat = log_softmax(np.zeros((2, 2, 3)))
        lat[:, 0, 1] = -np.inf
        _, alpha = rnnt_forward(lat, [0])
        with pytest.raises(ContractViolation):
            rnnt_backward(lat, [0], alpha)


class TestGridConsistency:
    def test_cut_consistency(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            T = int(rng.integers(1, 6))
            U = int(rng.integers(0, 5))
            y = [int(v) for v in rng.integers(0, 2, size=U)]
            lat = random_logprob_lattice(T, U, 3, rng)
            nll, alpha = rnnt_forward(lat, y)
            beta, _ = rnnt_backward(lat, y, alpha)
            for d in range(T + U + 1):
                cells = [
                    alpha[t, d - t] + beta[t, d - t]
                    for t in range(max(0, d - U), min(T, d) + 1)
                ]
                assert log_sum_exp(cells) == pytest.approx(-nll, abs=1e-9)


def test_alignment_log_prob_requires_all_blanks():
    lat = uniform_lattice(2, 1, 2)
    with pytest.raises(ContractViolation):
        alignment_log_prob(lat, (0, 1))  # only one blank for T=2


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def lattices(draw):
    """(lattice, y) with T in 1..6 and U in 0..5: log-softmax rows or a
    uniform lattice (whose cells add equal terms), with -inf entries, a -inf
    time step or a -inf label row drawn on top."""
    T, U, K = draw(st.integers(1, 6)), draw(st.integers(0, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = [int(v) for v in rng.integers(0, K - 1, size=U)]
    if draw(st.booleans()):
        lat = log_softmax(rng.normal(0, 2, size=(T, U + 1, K)))
    else:
        lat = uniform_lattice(T, U, K)
    lat[rng.random(lat.shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = -np.inf
    if draw(st.booleans()):
        lat[rng.integers(T)] = -np.inf
    if draw(st.booleans()):
        lat[:, rng.integers(U + 1)] = -np.inf
    return lat, y


class TestForwardAgainstEnumeration:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(lattices())
    def test_nll_equals_the_enumeration_oracle(self, case):
        # The NLL is infinite exactly when no alignment has probability;
        # otherwise the recursion and the sum over every alignment differ
        # only by rounding.
        lat, y = case
        nll, oracle = rnnt_forward(lat, y)[0], brute_force_nll(lat, y)
        assert math.isinf(nll) == math.isinf(oracle), (nll, oracle)
        if math.isfinite(oracle):
            assert abs(nll - oracle) <= 1e-12 * max(1.0, abs(oracle)), (nll, oracle)


class TestFloatRecursions:
    """The alpha and beta recursions run over Python floats with the private
    `_logaddexp`; they must equal the numpy-scalar recursions they replaced
    (kept in helpers) bit for bit, and so must the gradient."""

    @settings(max_examples=300, deadline=None)
    @given(lattices())
    def test_equal_the_numpy_scalar_recursions(self, case):
        lat, y = case
        nll, alpha = rnnt_forward(lat, y)
        ref_nll, ref_alpha = rnnt_forward_reference(lat, y)
        assert same_bits(nll, ref_nll) and same_bits(alpha, ref_alpha)
        if not np.isfinite(ref_alpha[-1, -1]):
            with pytest.raises(ContractViolation):
                rnnt_backward(lat, y, alpha)
            return
        beta, grad = rnnt_backward(lat, y, alpha)
        ref_beta, ref_grad = rnnt_backward_reference(lat, y, ref_alpha)
        assert same_bits(beta, ref_beta) and same_bits(grad, ref_grad)

    @staticmethod
    def numpy_logaddexp(x, y):
        with np.errstate(all="ignore"):  # x - y may overflow to inf
            return np.logaddexp(x, y)

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_logaddexp_equals_numpy_bitwise(self, x, y):
        for a, b in ((x, y), (y, x), (x, x), (x, -x)):
            assert same_bits(_logaddexp(a, b), self.numpy_logaddexp(a, b)), (a, b)

    def test_logaddexp_edge_cases_and_bulk(self):
        specials = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 5e-324, -745.2, 709.8]
        pairs = [(a, b) for a in specials for b in specials]
        rng = np.random.default_rng(7)
        for scale in (1e-8, 1.0, 30.0, 1e3):
            x, y = rng.normal(0, scale, size=(2, 25_000))
            pairs += zip(x.tolist(), (x + rng.normal(0, 1e-3, size=x.size)).tolist())
            pairs += zip(x.tolist(), y.tolist())
        xs, ys = np.array(pairs).T
        want = self.numpy_logaddexp(xs, ys)
        got = np.array([_logaddexp(a, b) for a, b in pairs])
        assert same_bits(got, want)
