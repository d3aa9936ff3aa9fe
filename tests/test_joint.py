import numpy as np
import pytest

from helpers import pack_arrays, relative_error, unpack_arrays
from transducer_workbench.errors import ContractViolation, DimensionError
from transducer_workbench.joint import (
    ADDITIVE,
    MULTIPLICATIVE,
    JointParams,
    hadamard_backward,
    init_joint_params,
    joint_backward,
    joint_backward_lattice,
    joint_forward,
    joint_forward_cached,
    joint_forward_lattice,
)
from transducer_workbench.numerics import RandomStream, finite_difference_gradient


def make_params(mode, rng, E=5, P=4, J=8, K=3):
    return init_joint_params(E, P, J, K, mode, rng)


def count_parameters(params: JointParams) -> int:
    return sum(a.size for a in params.arrays().values())


class TestForward:
    def test_multiplicative_zero_encoder_branch(self):
        rng = RandomStream(1)
        params = make_params(MULTIPLICATIVE, rng)
        params.W_enc[:] = 0.0  # forces h_tilde = 0: pre-activation is just b
        h = rng.normal(size=5)
        out1 = joint_forward(h, rng.normal(size=4), params)
        out2 = joint_forward(h, rng.normal(size=4), params)
        np.testing.assert_array_equal(out1, out2)

    def test_additive_zero_pred_branch(self):
        rng = RandomStream(2)
        params = make_params(ADDITIVE, rng)
        params.W_pred[:] = 0.0
        params.b[:] = 0.0
        h = rng.normal(size=5)
        _, cache = joint_forward_cached(h, rng.normal(size=4), params)
        np.testing.assert_allclose(cache.act, np.tanh(params.W_enc @ h), atol=1e-15)

    def test_forward_determinism_bitwise(self):
        rng = RandomStream(3)
        params = make_params(MULTIPLICATIVE, rng)
        h = rng.normal(size=5)
        g = rng.normal(size=4)
        np.testing.assert_array_equal(joint_forward(h, g, params), joint_forward(h, g, params))

    def test_output_normalizes(self):
        rng = RandomStream(4)
        for mode in (ADDITIVE, MULTIPLICATIVE):
            params = make_params(mode, rng)
            out = joint_forward(rng.normal(size=5), rng.normal(size=4), params)
            assert abs(np.exp(out).sum() - 1.0) <= 1e-12

    def test_dimension_errors_name_matrix(self):
        rng = RandomStream(5)
        params = make_params(ADDITIVE, rng)
        with pytest.raises(DimensionError, match="W_enc"):
            joint_forward(np.zeros(7), np.zeros(4), params)
        with pytest.raises(DimensionError, match="W_pred"):
            joint_forward(np.zeros(5), np.zeros(9), params)
        with pytest.raises(DimensionError, match="W_pred"):
            joint_forward(np.zeros((2, 5)), np.zeros((3, 4)), params)

    def test_backward_refuses_block_cache(self):
        rng = RandomStream(6)
        params = make_params(ADDITIVE, rng)
        logprob, cache = joint_forward_cached(rng.normal(size=(2, 5)), rng.normal(size=(2, 4)), params)
        assert logprob.shape == (2, 3)
        with pytest.raises(DimensionError, match="one-node"):
            joint_backward(np.ones_like(logprob), cache, params)


class TestBackward:
    def test_identity_head_gating(self):
        # For L = sum(h_tilde * g_tilde), the branch gradient is the other branch.
        rng = RandomStream(6)
        h_t = rng.normal(size=8)
        g_t = rng.normal(size=8)
        d_h, d_g = hadamard_backward(np.ones(8), h_t, g_t)
        np.testing.assert_array_equal(d_h, g_t)
        np.testing.assert_array_equal(d_g, h_t)

    def test_zero_branch_zeroes_gradient(self):
        rng = RandomStream(7)
        params = make_params(MULTIPLICATIVE, rng)
        params.W_pred[:] = 0.0  # g_tilde = 0 gates the encoder branch to zero
        g = rng.normal(size=4)
        _, cache = joint_forward_cached(rng.normal(size=5), g, params)
        grads = joint_backward(rng.normal(size=3), cache, params)
        np.testing.assert_array_equal(grads["h"], np.zeros(5))
        np.testing.assert_array_equal(grads["W_enc"], np.zeros_like(params.W_enc))

    def test_gating_identity_instrumented(self):
        rng = RandomStream(8)
        params = make_params(MULTIPLICATIVE, rng)
        h = rng.normal(size=5)
        g = rng.normal(size=4)
        _, cache = joint_forward_cached(h, g, params)
        grads = joint_backward(rng.normal(size=3), cache, params)
        gated = cache.g_tilde * grads["d_pre"]
        # The encoder-branch gradient is the upstream product-node gradient
        # gated by g_tilde; visible through the input and W_enc gradients.
        np.testing.assert_allclose(grads["h"], params.W_enc.T @ gated, atol=1e-12)
        np.testing.assert_allclose(grads["W_enc"], np.outer(gated, h), atol=1e-15)

    def test_missing_cache_rejected(self):
        rng = RandomStream(9)
        params = make_params(ADDITIVE, rng)
        with pytest.raises(ContractViolation):
            joint_backward(np.zeros(3), None, params)

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_finite_differences(self, mode):
        rng = RandomStream(10)
        params = make_params(mode, rng, J=8)
        h = rng.normal(size=5)
        g = rng.normal(size=4)
        w = rng.normal(size=3)  # fixed projection makes the loss scalar

        template = dict(params.arrays())
        template["h"] = h
        template["g"] = g

        def loss(vec):
            a = unpack_arrays(vec, template)
            p = JointParams(a["W_enc"], a["W_pred"], a["b"], a["W_out"], mode)
            return float(w @ joint_forward(a["h"], a["g"], p))

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)

        _, cache = joint_forward_cached(h, g, params)
        grads = joint_backward(w.copy(), cache, params)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-6, name


class TestParameterCount:
    def test_additive_example(self):
        rng = RandomStream(11)
        params = make_params(ADDITIVE, rng, E=4, P=4, J=4, K=3)
        # No bias after W_out: 4*4 + 4*4 + 4 + 3*4 = 48.
        assert count_parameters(params) == 48

    def test_parity_across_modes(self):
        rng = RandomStream(12)
        for dims in [(4, 4, 4, 3), (5, 7, 2, 9), (32, 24, 16, 10)]:
            E, P, J, K = dims
            add = make_params(ADDITIVE, rng, E=E, P=P, J=J, K=K)
            mul = make_params(MULTIPLICATIVE, rng, E=E, P=P, J=J, K=K)
            assert count_parameters(add) == count_parameters(mul)


class TestAlgebraicIdentities:
    def test_gating_identity_random(self):
        rng = RandomStream(15)
        for _ in range(100):
            params = make_params(MULTIPLICATIVE, rng)
            h = rng.normal(size=5)
            g = rng.normal(size=4)
            _, cache = joint_forward_cached(h, g, params)
            grads = joint_backward(rng.normal(size=3), cache, params)
            gated = cache.g_tilde * grads["d_pre"]
            np.testing.assert_allclose(np.outer(gated, h), grads["W_enc"], atol=1e-12)


class TestLatticeVectorization:
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_matches_per_node(self, mode):
        rng = RandomStream(16)
        params = make_params(mode, rng)
        T, U1 = 4, 3
        H = rng.normal(size=(T, 5))
        G = rng.normal(size=(U1, 4))
        lattice, cache = joint_forward_lattice(H, G, params)
        grad_lp = rng.normal(size=lattice.shape)

        grads, d_H, d_G = joint_backward_lattice(grad_lp, cache, params)
        acc = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        dH_ref = np.zeros_like(H)
        dG_ref = np.zeros_like(G)
        for t in range(T):
            for u in range(U1):
                lp, node_cache = joint_forward_cached(H[t], G[u], params)
                np.testing.assert_allclose(lp, lattice[t, u], atol=1e-12)
                node = joint_backward(grad_lp[t, u], node_cache, params)
                for k in acc:
                    acc[k] += node[k]
                dH_ref[t] += node["h"]
                dG_ref[u] += node["g"]
        for k in acc:
            np.testing.assert_allclose(grads[k], acc[k], atol=1e-10, err_msg=k)
        np.testing.assert_allclose(d_H, dH_ref, atol=1e-10)
        np.testing.assert_allclose(d_G, dG_ref, atol=1e-10)
