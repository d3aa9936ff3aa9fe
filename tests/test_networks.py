import math
import warnings

import numpy as np
import pytest
from helpers import (
    lstm_backward_reference,
    lstm_forward_reference,
    stack_and_skip_backward_loop,
    stack_and_skip_loop,
)

from transducer_workbench.errors import ContractViolation, DimensionError
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    LSTMParams,
    advance_prediction_state,
    append_aux,
    encode,
    encode_backward,
    init_char_lm_params,
    init_encoder_params,
    init_lstm_params,
    init_prediction_params,
    init_prediction_state,
    lm_end_increment,
    lm_init_state,
    lm_loss_and_grads,
    lm_score,
    lm_score_next,
    lstm_backward,
    lstm_forward,
    predict_backward,
    predict_embed,
    PredictionConfig,
    sample_dropconnect_mask,
    stack_and_skip,
    stack_and_skip_backward,
    zero_state,
)
from transducer_workbench.numerics import (
    RandomStream,
    finite_difference_gradient,
    pack_arrays,
    relative_error,
    unpack_arrays,
)


def one_row_step(x, state, params, hh_mask=None):
    """One decoder step as a one-row lstm_forward call: ((h, c), output)."""
    outs, state, _ = lstm_forward(x[None, :], params, hh_mask, state)
    return state, outs[0]


class TestLSTMStep:
    def test_all_zero_weights(self):
        params = LSTMParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        (h, c), out = one_row_step(np.ones(3), zero_state(2), params)
        np.testing.assert_array_equal(c, np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_all_ones_mask_is_identity(self):
        rng = RandomStream(1)
        params = init_lstm_params(3, 4, rng)
        x = rng.normal(size=3)
        state = (rng.normal(size=4), rng.normal(size=4))
        _, out_plain = one_row_step(x, state, params)
        _, out_masked = one_row_step(x, state, params, hh_mask=np.ones((16, 4)))
        np.testing.assert_array_equal(out_plain, out_masked)

    def test_shape_mismatch(self):
        rng = RandomStream(2)
        params = init_lstm_params(3, 4, rng)
        with pytest.raises(DimensionError):
            one_row_step(np.zeros(5), zero_state(4), params)
        with pytest.raises(DimensionError):
            one_row_step(np.zeros(3), zero_state(4), params, hh_mask=np.ones((2, 2)))

    @pytest.mark.parametrize("rows", [1, 4])
    def test_shape_mismatch_any_row_count(self, rows):
        params = init_lstm_params(3, 4, RandomStream(2))
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((rows, 5)), params)
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((rows, 3)), params, hh_mask=np.ones((2, 2)))
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros(3), params)

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_sequence_equals_chained_one_row_calls(self, use_mask):
        rng = RandomStream(4)
        params = init_lstm_params(3, 4, rng)
        mask = (
            sample_dropconnect_mask(params.W_h.shape, 0.25, rng.child(9))
            if use_mask
            else None
        )
        xs = rng.normal(size=(6, 3))
        start = (rng.normal(size=4), rng.normal(size=4))
        outs, (h_seq, c_seq), _ = lstm_forward(xs, params, mask, start)
        state = start
        for t in range(xs.shape[0]):
            row_out, state, _ = lstm_forward(xs[t : t + 1], params, mask, state)
            assert (row_out[0] == outs[t]).all()
        assert (state[0] == h_seq).all() and (state[1] == c_seq).all()

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_backward_finite_differences(self, use_mask):
        rng = RandomStream(3)
        params = init_lstm_params(3, 4, rng)
        mask = (
            sample_dropconnect_mask(params.W_h.shape, 0.25, rng.child(9))
            if use_mask
            else None
        )
        xs = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 4))
        template = params.arrays()

        def loss(vec):
            a = unpack_arrays(vec, template)
            p = LSTMParams(a["W_x"], a["W_h"], a["b"])
            outs, _, _ = lstm_forward(xs, p, mask)
            return float((w * outs).sum())

        numeric = unpack_arrays(
            finite_difference_gradient(loss, pack_arrays(template)), template
        )
        outs, _, cache = lstm_forward(xs, params, mask)
        d_xs, grads, _, _ = lstm_backward(w.copy(), cache, params)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name

        def loss_x(vec):
            outs, _, _ = lstm_forward(vec.reshape(5, 3), params, mask)
            return float((w * outs).sum())

        numeric_x = finite_difference_gradient(loss_x, xs.ravel().copy()).reshape(5, 3)
        assert relative_error(d_xs, numeric_x) <= 1e-4


class TestLSTMKernelOracle:
    """lstm_forward/lstm_backward against the step-by-step reference in
    helpers (gates from exp-based sigmoids, per-step outer products). The
    two round differently in the last bits; over 40 random cases with D up
    to 128, H up to 64 and T up to 60 the largest differences measured were
    7.1e-15 absolute on outputs and states (|c| up to 5) and 1.3e-15 of a
    gradient tensor's max-abs. The bounds below sit a decade and more above
    that, and far below any formula error."""

    ATOL = 1e-13
    GRAD_RTOL = 1e-13

    @pytest.mark.parametrize("use_mask", [False, True])
    @pytest.mark.parametrize("dims", [(3, 4, 7), (20, 16, 30)])
    def test_matches_step_reference(self, use_mask, dims):
        D, H, T = dims
        rng = RandomStream(31)
        params = init_lstm_params(D, H, rng)
        params.b[:] = rng.normal(size=4 * H)
        mask = (
            sample_dropconnect_mask(params.W_h.shape, 0.25, rng.child(9))
            if use_mask
            else None
        )
        xs = 2.0 * rng.normal(size=(T, D))
        start = (rng.normal(size=H), rng.normal(size=H))
        outs, (h, c), cache = lstm_forward(xs, params, mask, start)
        ref_outs, (ref_h, ref_c), steps = lstm_forward_reference(xs, params, mask, start)
        for got, want in [(outs, ref_outs), (h, ref_h), (c, ref_c)]:
            np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)

        d_outs = rng.normal(size=(T, H))
        d_xs, grads, d_h0, d_c0 = lstm_backward(d_outs, cache, params)
        ref_xs, ref_grads, ref_h0, ref_c0 = lstm_backward_reference(d_outs, steps, params, mask)
        pairs = {"d_xs": (d_xs, ref_xs), "d_h0": (d_h0, ref_h0), "d_c0": (d_c0, ref_c0)}
        pairs.update((name, (grads[name], ref_grads[name])) for name in ref_grads)
        for name, (got, want) in pairs.items():
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= self.GRAD_RTOL * scale, name

    def test_saturated_gates_are_exact_and_silent(self):
        # Pre-activations of magnitude >= 1e3 on every gate and both signs.
        H, D, T = 3, 2, 4
        W_x = np.zeros((4 * H, D))
        W_x[:, 0] = 1e3 * np.tile([1.0, -1.0, 1.0], 4)
        params = LSTMParams(W_x, np.zeros((4 * H, H)), np.zeros(4 * H))
        xs = np.tile([[1.0, 0.0], [-2.0, 0.0]], (T // 2, 1))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            outs, (h, c), cache = lstm_forward(xs, params)
            d_xs, grads, d_h0, d_c0 = lstm_backward(np.ones((T, H)), cache, params)
        i, f, g, o = np.split(cache.gates, 4, axis=1)
        for sigmoid_gate in (i, f, o):
            assert set(np.unique(sigmoid_gate)) == {0.0, 1.0}
        assert set(np.unique(g)) == {-1.0, 1.0}
        for arr in (outs, h, c, d_xs, d_h0, d_c0, *grads.values()):
            assert np.isfinite(arr).all()
        ref_outs, (ref_h, ref_c), _ = lstm_forward_reference(xs, params)
        np.testing.assert_array_equal(outs, ref_outs)
        np.testing.assert_array_equal(c, ref_c)


class TestStackAndSkip:
    def test_paper_shape(self):
        out = stack_and_skip(np.zeros((10, 120)))
        assert out.shape == (5, 240)

    def test_single_frame_duplicated(self):
        f = np.array([[1.0, 2.0]])
        out = stack_and_skip(f)
        np.testing.assert_array_equal(out, [[1.0, 2.0, 1.0, 2.0]])

    def test_identity(self):
        f = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(stack_and_skip(f, 1, 1), f)

    def test_pairs_concatenated(self):
        f = np.arange(8.0).reshape(4, 2)
        out = stack_and_skip(f)
        np.testing.assert_array_equal(out[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(out[1], [4, 5, 6, 7])

    def test_backward_scatter(self):
        rng = RandomStream(4)
        f = rng.normal(size=(5, 2))
        d_out = rng.normal(size=(3, 4))

        def loss(vec):
            return float((d_out * stack_and_skip(vec.reshape(5, 2))).sum())

        numeric = finite_difference_gradient(loss, f.ravel().copy()).reshape(5, 2)
        analytic = stack_and_skip_backward(d_out, 5, 2)
        assert relative_error(analytic, numeric) <= 1e-6

    def test_matches_loop_oracle_bitwise(self):
        rng = RandomStream(41)
        for T in range(1, 40):
            features = rng.normal(size=(T, 3))
            for stacking in (1, 2, 3):
                for skip in (1, 2, 3):
                    out = stack_and_skip(features, stacking, skip)
                    np.testing.assert_array_equal(
                        out, stack_and_skip_loop(features, stacking, skip)
                    )
                    d_out = rng.normal(size=out.shape)
                    np.testing.assert_array_equal(
                        stack_and_skip_backward(d_out, T, 3, stacking, skip),
                        stack_and_skip_backward_loop(d_out, T, 3, stacking, skip),
                    )


class TestEncoder:
    def _config(self, **kw):
        defaults = dict(layers=2, cells=5, bidirectional=True, stacking=2, skip=2,
                        lookahead=0, aux_dim=0, input_dim=3)
        defaults.update(kw)
        return EncoderConfig(**defaults)

    def test_zero_weight_network_outputs_zero(self):
        config = self._config(layers=1)
        params = init_encoder_params(config, RandomStream(5))
        for layer in params.layers:
            for arr in layer.fwd.arrays().values():
                arr[:] = 0.0
            for arr in layer.bwd.arrays().values():
                arr[:] = 0.0
        h, _ = encode(np.ones((6, 3)), config, params)
        np.testing.assert_array_equal(h, np.zeros_like(h))

    def test_reversal_symmetry(self):
        # Reversing the input reverses h and swaps the direction halves,
        # when forward and backward layers share weights.
        config = self._config(layers=1, stacking=1, skip=1)
        params = init_encoder_params(config, RandomStream(6))
        shared = params.layers[0].fwd
        params.layers[0].bwd = LSTMParams(
            shared.W_x.copy(), shared.W_h.copy(), shared.b.copy()
        )
        x = RandomStream(7).normal(size=(6, 3))
        h_fwd, _ = encode(x, config, params)
        h_rev, _ = encode(x[::-1], config, params)
        C = config.cells
        np.testing.assert_allclose(h_rev[::-1, :C], h_fwd[:, C:], atol=1e-12)
        np.testing.assert_allclose(h_rev[::-1, C:], h_fwd[:, :C], atol=1e-12)

    def test_lookahead_causality(self):
        # Output frame t must be invariant to changes at frames > t+L.
        L = 2
        config = self._config(layers=2, bidirectional=False, lookahead=L,
                              stacking=1, skip=1)
        params = init_encoder_params(config, RandomStream(8))
        rng = RandomStream(9)
        x = rng.normal(size=(8, 3))
        h, _ = encode(x, config, params)
        for t in range(8):
            for tp in range(t + L + 1, 8):
                xp = x.copy()
                xp[tp] += 10.0
                hp, _ = encode(xp, config, params)
                np.testing.assert_array_equal(h[t], hp[t])
        # And the lookahead frames genuinely matter: perturbing t+L changes t.
        xp = x.copy()
        xp[0 + L] += 10.0
        hp, _ = encode(xp, config, params)
        assert not np.array_equal(h[0], hp[0])

    def test_aux_vector_appended(self):
        config = self._config(layers=1, aux_dim=2, stacking=1, skip=1)
        params = init_encoder_params(config, RandomStream(10))
        x = RandomStream(11).normal(size=(4, 3))
        aux = np.array([0.5, -0.5])
        h, _ = encode(x, config, params, aux=aux)
        h2, _ = encode(append_aux(x, aux)[:, :], self._config(layers=1, input_dim=5, stacking=1, skip=1), params)
        np.testing.assert_array_equal(h, h2)

    def test_dimension_check(self):
        config = self._config()
        params = init_encoder_params(config, RandomStream(12))
        with pytest.raises(DimensionError):
            encode(np.zeros((4, 7)), config, params)

    def test_bidirectional_lookahead_rejected(self):
        with pytest.raises(ContractViolation):
            self._config(lookahead=3)

    @pytest.mark.parametrize("bidirectional,lookahead", [(True, 0), (False, 0), (False, 2)])
    def test_backward_finite_differences(self, bidirectional, lookahead):
        config = self._config(
            layers=2, cells=3, bidirectional=bidirectional, lookahead=lookahead
        )
        params = init_encoder_params(config, RandomStream(13))
        rng = RandomStream(14)
        x = rng.normal(size=(5, 3))
        template = params.arrays()
        h0, _ = encode(x, config, params)
        w = rng.normal(size=h0.shape)

        def loss(vec):
            a = unpack_arrays(vec, template)
            for name, arr in params.arrays().items():
                arr[:] = a[name]
            h, _ = encode(x, config, params)
            return float((w * h).sum())

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)
        loss(x0)  # restore parameters
        h, cache = encode(x, config, params)
        grads, _ = encode_backward(w.copy(), config, params, cache)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name

    @pytest.mark.parametrize("bidirectional,lookahead", [(True, 0), (False, 0), (False, 2)])
    def test_feature_gradient_finite_differences(self, bidirectional, lookahead):
        config = self._config(
            layers=2, cells=3, bidirectional=bidirectional, lookahead=lookahead
        )
        params = init_encoder_params(config, RandomStream(15))
        rng = RandomStream(16)
        x = rng.normal(size=(5, 3))
        h0, cache = encode(x, config, params)
        w = rng.normal(size=h0.shape)

        def loss(vec):
            h, _ = encode(vec.reshape(x.shape), config, params)
            return float((w * h).sum())

        numeric = finite_difference_gradient(loss, x.ravel().copy()).reshape(x.shape)
        _, d_features = encode_backward(w.copy(), config, params, cache)
        assert relative_error(d_features, numeric) <= 1e-4


class TestPrediction:
    def test_empty_prefix_is_zero_vector(self):
        params = init_prediction_params(4, PredictionConfig(cells=6, embed_dim=3), RandomStream(15))
        G, _ = predict_embed([], params)
        np.testing.assert_array_equal(G, np.zeros((1, 6)))

    def test_incremental_matches_recompute_bitwise(self):
        params = init_prediction_params(4, PredictionConfig(cells=6, embed_dim=3), RandomStream(16))
        prefix = [2, 0, 3, 1]
        G, _ = predict_embed(prefix, params)
        state = init_prediction_state(params)
        np.testing.assert_array_equal(state.g, G[0])
        for u, lab in enumerate(prefix):
            state = advance_prediction_state(state, lab, params)
            np.testing.assert_array_equal(state.g, G[u + 1])

    def test_out_of_vocabulary(self):
        params = init_prediction_params(4, PredictionConfig(cells=6, embed_dim=3), RandomStream(17))
        with pytest.raises(ContractViolation):
            predict_embed([4], params)
        with pytest.raises(ContractViolation):
            advance_prediction_state(init_prediction_state(params), -1, params)

    def test_backward_finite_differences(self):
        params = init_prediction_params(3, PredictionConfig(cells=4, embed_dim=3), RandomStream(18))
        prefix = [0, 2, 1, 2]
        rng = RandomStream(19)
        w = rng.normal(size=(5, 4))
        template = params.arrays()

        def loss(vec):
            a = unpack_arrays(vec, template)
            for name, arr in params.arrays().items():
                arr[:] = a[name]
            G, _ = predict_embed(prefix, params)
            return float((w * G).sum())

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)
        loss(x0)
        G, cache = predict_embed(prefix, params)
        grads = predict_backward(w.copy(), prefix, cache, params)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name


class TestCharLM:
    def _params(self, num_labels=3, layers=1):
        return init_char_lm_params(
            num_labels, CharLMConfig(layers=layers, cells=5, embed_dim=4), RandomStream(20)
        )

    def test_uniform_lm_scores(self):
        params = self._params(num_labels=3)
        for arr in params.arrays().values():
            arr[:] = 0.0
        V = params.vocab
        total, incs = lm_score([0, 1, 2], params)
        assert total == pytest.approx(-4 * math.log(V), abs=1e-12)
        assert len(incs) == 4

    def test_empty_sequence(self):
        params = self._params()
        total, incs = lm_score([], params)
        state = lm_init_state(params)
        assert total == pytest.approx(lm_end_increment(state, params), abs=1e-12)
        assert len(incs) == 1

    def test_incremental_matches_batch(self):
        params = self._params(num_labels=4, layers=2)
        rng = RandomStream(21)
        for _ in range(10):
            seq = [int(v) for v in rng.integers(0, 4, size=rng.integers(0, 7))]
            total, incs = lm_score(seq, params)
            state = lm_init_state(params)
            inc_sum = 0.0
            for i, lab in enumerate(seq):
                inc, state = lm_score_next(state, lab, params)
                assert inc == pytest.approx(incs[i], abs=1e-12)
                inc_sum += inc
            inc_sum += lm_end_increment(state, params)
            assert inc_sum == pytest.approx(total, abs=1e-12)

    def test_out_of_vocabulary(self):
        params = self._params()
        with pytest.raises(ContractViolation):
            lm_score([7], params)

    def test_loss_grads_finite_differences(self):
        params = self._params(num_labels=3)
        seq = [0, 2, 1]
        template = params.arrays()

        def loss(vec):
            a = unpack_arrays(vec, template)
            for name, arr in params.arrays().items():
                arr[:] = a[name]
            return lm_loss_and_grads(seq, params)[0]

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)
        loss(x0)
        _, grads = lm_loss_and_grads(seq, params)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name


class TestDropConnect:
    def test_rate_zero_identity(self):
        np.testing.assert_array_equal(
            sample_dropconnect_mask((4, 4), 0.0, RandomStream(22)), np.ones((4, 4))
        )

    def test_rate_one_zero(self):
        np.testing.assert_array_equal(
            sample_dropconnect_mask((4, 4), 1.0, RandomStream(23)), np.zeros((4, 4))
        )

    def test_rate_out_of_range(self):
        with pytest.raises(ContractViolation):
            sample_dropconnect_mask((2, 2), 1.5, RandomStream(24))

    def test_survivor_fraction(self):
        mask = sample_dropconnect_mask((1000, 1000), 0.25, RandomStream(25))
        frac = np.count_nonzero(mask) / mask.size
        assert abs(frac - 0.75) <= 0.002
        survivors = mask[mask > 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, atol=1e-12)

    def test_identical_stream_identical_mask(self):
        a = sample_dropconnect_mask((10, 10), 0.5, RandomStream(26, 3))
        b = sample_dropconnect_mask((10, 10), 0.5, RandomStream(26, 3))
        np.testing.assert_array_equal(a, b)
