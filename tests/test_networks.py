import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    lstm_backward_reference,
    lstm_forward_reference,
    pack_arrays,
    relative_error,
    stack_and_skip_loop,
    stepwise_lm_score,
    unpack_arrays,
    zero_state,
)

from transducer_workbench import networks
from transducer_workbench.errors import ContractViolation, DimensionError
from transducer_workbench.model import ModelConfig, init_model
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    LSTMParams,
    PrefixStates,
    append_aux,
    drop_connect,
    encode,
    encode_backward,
    init_char_lm_params,
    init_encoder_params,
    init_lstm_params,
    init_prediction_params,
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
)
from transducer_workbench.numerics import RandomStream, finite_difference_gradient, log_softmax


def one_row_step(x, state, params, hh_mask=None):
    """One decoder step as a one-row lstm_forward call: ((h, c), output)."""
    outs, state, _ = lstm_forward(x[None, :], params, hh_mask, state)
    return state, outs[0]


def sample_mask(params, rng, use_mask):
    """A rate-0.25 DropConnect mask of `params`' hidden-to-hidden matrix,
    or None."""
    return sample_dropconnect_mask(params.W_h.shape, 0.25, rng.child(9)) if use_mask else None


def draw_of(params, mask):
    """The `DropConnect` draw of `mask` on `params`, or None."""
    return None if mask is None else drop_connect(params, mask)


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
        _, out_masked = one_row_step(x, state, params, drop_connect(params, np.ones((16, 4))))
        np.testing.assert_array_equal(out_plain, out_masked)

    def test_shape_mismatch(self):
        rng = RandomStream(2)
        params = init_lstm_params(3, 4, rng)
        with pytest.raises(DimensionError):
            one_row_step(np.zeros(5), zero_state(4), params)
        with pytest.raises(DimensionError):
            one_row_step(np.zeros(3), zero_state(4), params, drop_connect(params, np.ones((2, 2))))

    @pytest.mark.parametrize("rows", [1, 4])
    def test_shape_mismatch_any_row_count(self, rows):
        params = init_lstm_params(3, 4, RandomStream(2))
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((rows, 5)), params)
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((rows, 3)), params, drop_connect(params, np.ones((2, 2))))
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros(3), params)

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_sequence_equals_chained_one_row_calls(self, use_mask):
        rng = RandomStream(4)
        params = init_lstm_params(3, 4, rng)
        mask = draw_of(params, sample_mask(params, rng, use_mask))
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
        mask = sample_mask(params, rng, use_mask)
        xs = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 4))
        template = params.arrays()

        def loss(vec):
            a = unpack_arrays(vec, template)
            p = LSTMParams(a["W_x"], a["W_h"], a["b"])
            outs, _, _ = lstm_forward(xs, p, draw_of(p, mask))  # the product follows W_h
            return float((w * outs).sum())

        numeric = unpack_arrays(
            finite_difference_gradient(loss, pack_arrays(template)), template
        )
        outs, _, cache = lstm_forward(xs, params, draw_of(params, mask))
        d_xs, grads = lstm_backward(w.copy(), cache, params)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name

        def loss_x(vec):
            outs, _, _ = lstm_forward(vec.reshape(5, 3), params, draw_of(params, mask))
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
        mask = sample_mask(params, rng, use_mask)
        xs = 2.0 * rng.normal(size=(T, D))
        start = (rng.normal(size=H), rng.normal(size=H))
        outs, (h, c), cache = lstm_forward(xs, params, draw_of(params, mask), start)
        ref_outs, (ref_h, ref_c), steps = lstm_forward_reference(xs, params, mask, start)
        for got, want in [(outs, ref_outs), (h, ref_h), (c, ref_c)]:
            np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)

        d_outs = rng.normal(size=(T, H))
        d_xs, grads = lstm_backward(d_outs, cache, params)
        ref_xs, ref_grads = lstm_backward_reference(d_outs, steps, params, mask)
        pairs = {"d_xs": (d_xs, ref_xs)}
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
            d_xs, grads = lstm_backward(np.ones((T, H)), cache, params)
        i, f, g, o = np.split(cache.gates, 4, axis=1)
        for sigmoid_gate in (i, f, o):
            assert set(np.unique(sigmoid_gate)) == {0.0, 1.0}
        assert set(np.unique(g)) == {-1.0, 1.0}
        for arr in (outs, h, c, d_xs, *grads.values()):
            assert np.isfinite(arr).all()
        ref_outs, (ref_h, ref_c), _ = lstm_forward_reference(xs, params)
        np.testing.assert_array_equal(outs, ref_outs)
        np.testing.assert_array_equal(c, ref_c)


class TestStackedRowProducts:
    """The numpy/BLAS property the LSTM kernel relies on: one stacked
    product np.matmul(W, X[..., None])[..., 0] equals a W @ x per row bit
    for bit (a (rows, D) @ (D, M) GEMM would not). Shapes are the
    workbench's: 4H x D gate weights (prediction H = 48, encoder and LM
    H = 64) and the joint's J x E, J x P and K x J products (J = 16, E = 128
    bidirectional or 64, P = 48, K = 9), and the character LMs' V x H output
    heads (V = 10, H = 64 or 16)."""

    SHAPES = [(4 * H, D) for H in (48, 64) for D in (16, 20, 48, 64, 128)]
    SHAPES += [(16, 128), (16, 64), (16, 48), (9, 16), (10, 64), (10, 16)]

    @staticmethod
    def views(rng, T, D):
        wide = rng.normal(size=(T, 2 * D))
        yield "contiguous", rng.normal(size=(T, D))
        yield "reversed", rng.normal(size=(T, D))[::-1]  # backward encoder direction
        yield "first-columns", wide[:, :D]
        yield "last-columns", wide[:, D:]

    @staticmethod
    def stacked(W, X):
        return np.matmul(W, X[..., None])[..., 0]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_equals_one_row_products_bitwise(self, shape):
        rng = RandomStream(41)
        W = rng.normal(size=shape)
        for T in (1, 2, 7, 60):
            for name, X in self.views(rng, T, shape[1]):
                assert np.array_equal(self.stacked(W, X), np.stack([W @ x for x in X])), (name, T)
            block = rng.normal(size=(T, 5, shape[1]))
            expected = np.array([[W @ x for x in rows] for rows in block])
            assert np.array_equal(self.stacked(W, block), expected), T
            assert np.array_equal(self.stacked(W, block[:, ::-1]), expected[:, ::-1]), T
        x = rng.normal(size=shape[1])
        assert np.array_equal(self.stacked(W, x), W @ x)


class TestLSTMBlockRows:
    """A (T, B, D) call steps B independent rows together; it must equal B
    separate (T, D) calls bit for bit."""

    @pytest.mark.parametrize("use_mask", [False, True])
    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("dims", [(3, 4, 6, 5), (16, 48, 4, 9), (20, 64, 1, 3)])
    def test_block_equals_separate_calls(self, use_mask, start, dims):
        D, H, T, B = dims
        rng = RandomStream(43)
        params = init_lstm_params(D, H, rng)
        params.b[:] = rng.normal(size=4 * H)
        mask = draw_of(params, sample_mask(params, rng, use_mask))
        xs = 2.0 * rng.normal(size=(T, B, D))
        state = (rng.normal(size=(B, H)), rng.normal(size=(B, H))) if start == "random" else None
        outs, (h, c), cache = lstm_forward(xs, params, mask, state)
        assert outs.shape == (T, B, H) and h.shape == c.shape == (B, H)
        for b in range(B):
            row_state = None if state is None else (state[0][b], state[1][b])
            row_outs, (row_h, row_c), row_cache = lstm_forward(xs[:, b], params, mask, row_state)
            assert np.array_equal(outs[:, b], row_outs), b
            assert np.array_equal(h[b], row_h) and np.array_equal(c[b], row_c), b
            assert np.array_equal(cache.gates[:, b], row_cache.gates), b

    def test_block_rejects_wrong_input_dim(self):
        params = init_lstm_params(3, 4, RandomStream(44))
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((2, 5, 4)), params)
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((2, 5, 3, 3)), params)

    def test_backward_refuses_block_cache(self):
        rng = RandomStream(45)
        params = init_lstm_params(3, 4, rng)
        _, _, cache = lstm_forward(rng.normal(size=(2, 5, 3)), params)
        with pytest.raises(DimensionError, match=r"\(T, D\) caches"):
            lstm_backward(np.ones((2, 5, 4)), cache, params)


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
        grads = encode_backward(w.copy(), config, params, cache)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name


class TestPrediction:
    def test_empty_prefix_is_the_begin_step(self):
        # Row 0 is one LSTM step of the begin row (id num_labels) from the
        # zero state, so it moves with that row.
        params = init_prediction_params(4, PredictionConfig(cells=6, embed_dim=3), RandomStream(15))
        assert params.bos == 4 and params.embedding.shape == (5, 3)
        G, _ = predict_embed([], params)
        step, _, _ = lstm_forward(params.embedding[[params.bos]], params.layers[0])
        np.testing.assert_array_equal(G, step)
        assert np.abs(G).max() > 0
        params.embedding[params.bos] += 1.0
        assert not np.array_equal(predict_embed([], params)[0], G)

    def test_begin_row_gradient_finite_differences(self):
        # The empty prefix reads the begin row only; the begin row under a
        # longer prefix is covered by test_backward_finite_differences.
        params = init_prediction_params(3, PredictionConfig(cells=4, embed_dim=3), RandomStream(20))
        w = RandomStream(21).normal(size=(1, 4))
        begin = params.embedding[params.bos]

        def loss(vec):
            begin[:] = vec
            return float((w * predict_embed([], params)[0]).sum())

        x0 = begin.copy()
        numeric = finite_difference_gradient(loss, x0.copy())
        loss(x0)
        _, cache = predict_embed([], params)
        grads = predict_backward(w.copy(), [], cache, params)["embedding"]
        assert np.abs(grads[params.bos]).max() > 0 and not grads[: params.bos].any()
        assert relative_error(grads[params.bos], numeric) <= 1e-4

    @staticmethod
    def decoder_model(seed):
        config = ModelConfig(
            num_labels=4,
            encoder=EncoderConfig(layers=1, cells=2, stacking=1, skip=1, input_dim=3),
            prediction=PredictionConfig(cells=6, embed_dim=3),
        )
        return init_model(config, RandomStream(seed))

    @staticmethod
    def rows(state):
        return state.table.outputs[state.rows]

    def test_incremental_matches_recompute_bitwise(self):
        # The decoder's prefix-table rows, made one prefix per call and as a
        # block of siblings, are predict_embed's rows bit for bit.
        model = self.decoder_model(16)
        prefix = (2, 0, 3, 1)
        G, _ = predict_embed(list(prefix), model.prediction)
        state = model.init_decode_state()
        np.testing.assert_array_equal(self.rows(state), G[:1])
        for u in range(1, len(prefix) + 1):
            state = model.extend_decode_state(state, [prefix[:u]])
            np.testing.assert_array_equal(self.rows(state), G[u : u + 1])
        every = [prefix[:u] for u in range(len(prefix) + 1)]
        np.testing.assert_array_equal(self.rows(model.extend_decode_state(state, every)), G)
        siblings = [prefix[:2] + (k,) for k in range(4)]
        block = self.rows(model.extend_decode_state(state, siblings))
        for row, sibling in zip(block, siblings):
            np.testing.assert_array_equal(row, predict_embed(list(sibling), model.prediction)[0][-1])

    def test_out_of_vocabulary(self):
        model = self.decoder_model(17)
        with pytest.raises(ContractViolation):
            predict_embed([4], model.prediction)
        for label in (-1, 4):
            with pytest.raises(ContractViolation, match="outside vocabulary"):
                model.extend_decode_state(model.init_decode_state(), [(label,)])

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


def next_logprobs(sequences, table):
    """An LM table's next-symbol log-probabilities (n, V) after each label
    tuple of `sequences`, adding the rows it lacks."""
    rows = table.rows(sequences)
    return table.columns()[0][rows]


def sequence_increments(sequence, params):
    """LM training's computation of `sequence`'s increments: one label-network
    call (`predict_embed`), then the head as one GEMM."""
    hs, _ = predict_embed(sequence, params)
    W_out, b_out = params.head
    logprobs = log_softmax(hs @ W_out.T + b_out)
    return logprobs[np.arange(len(sequence) + 1), [*sequence, params.eos]]


def chain_increments(sequence, table):
    """An LM table's entries along `sequence`'s prefix chain: each prefix's
    log-probability of its next label, then the end marker's."""
    sequence = tuple(sequence)
    logprobs = next_logprobs([sequence[:u] for u in range(len(sequence) + 1)], table)
    return logprobs[np.arange(len(sequence) + 1), [*sequence, table.params.eos]]


class TestPrefixStates:
    """One table of label-prefix states serves the decoder, trie
    cross-scoring and LM scoring. However prefixes arrive (in any order,
    split across calls, with or without their ancestors), every row must be
    bitwise the row of a one-call computation of its prefix."""

    sequence_sets = st.lists(st.lists(st.integers(0, 3), max_size=8).map(tuple), max_size=20)
    table_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    @staticmethod
    def _fill(table, sequences, seed):
        """`sequences` in a random order, split into up to four calls."""
        rng = RandomStream(seed)
        order = [sequences[i] for i in rng.permutation(len(sequences))]
        cuts = sorted(int(c) for c in rng.integers(0, len(order) + 1, size=3))
        for lo, hi in itertools.pairwise([0, *cuts, len(order)]):
            table.rows(order[lo:hi])

    @table_settings
    @given(sequence_sets, st.integers(0, 2**16))
    def test_prediction_rows_equal_predict_embed(self, sequences, seed):
        params = init_prediction_params(4, PredictionConfig(cells=5, embed_dim=3), RandomStream(seed))
        table = PrefixStates(params)
        self._fill(table, sequences, seed)
        prefixes = sorted({seq[:u] for seq in sequences for u in range(len(seq) + 1)} | {()})
        assert sorted(table.index) == prefixes
        rows = table.rows(prefixes)
        assert len(table.parents) == len(table.labels) == len(prefixes)  # nothing new
        for prefix, row in zip(prefixes, rows):
            parent, label = (table.index[prefix[:-1]], prefix[-1]) if prefix else (-1, -1)
            assert (table.parents[row], table.labels[row]) == (parent, label)
            G, _ = predict_embed(list(prefix), params)
            assert np.array_equal(table.outputs[row], G[-1]), prefix

    @pytest.mark.parametrize("layers", [1, 2])
    @table_settings
    @given(sequence_sets, st.integers(0, 2**16))
    def test_lm_scores_equal_the_stepwise_oracle(self, layers, sequences, seed):
        # The table's columns along each prefix chain are the oracle's
        # next-symbol rows and increments, and lm_score's total the oracle's
        # left-to-right sum, bit for bit, on a shared and on a fresh table.
        # LM training's one-call forward runs its head as one GEMM, which may
        # round differently from one-row products, so it is bounded within
        # 1e-12.
        config = CharLMConfig(layers=layers, cells=5, embed_dim=3)
        params = init_char_lm_params(4, config, RandomStream(seed))
        table = PrefixStates(params)
        self._fill(table, sequences, seed)
        made = len(table.parents)
        for seq in sequences:
            oracle_total, oracle, expected = stepwise_lm_score(seq, params)
            prefixes = [seq[:u] for u in range(len(seq) + 1)]
            np.testing.assert_array_equal(next_logprobs(prefixes, table), np.stack(expected))
            increments = chain_increments(seq, table)
            fresh_increments = chain_increments(seq, PrefixStates(params))
            assert lm_score(seq, params, table) == lm_score(seq, params) == oracle_total
            np.testing.assert_array_equal(increments, oracle)
            np.testing.assert_array_equal(fresh_increments, oracle)
            reference = sequence_increments(seq, params)
            np.testing.assert_allclose(increments, reference, rtol=0, atol=1e-12)
        assert len(table.parents) == made  # scoring filled prefixes adds no row

    @pytest.mark.parametrize("layers", [1, 2])
    @table_settings
    @given(sequence_sets, st.integers(0, 2**16))
    def test_lm_columns_filled_over_calls_equal_a_fresh_tables(self, layers, sequences, seed):
        # Reads between fills compute the columns in several blocks while the
        # storage grows; every prefix's columns must equal those of a table
        # filled in one call and read once.
        config = CharLMConfig(layers=layers, cells=5, embed_dim=3)
        params = init_char_lm_params(4, config, RandomStream(seed))
        table, rng = PrefixStates(params), RandomStream(seed + 1)
        for seq in [sequences[i] for i in rng.permutation(len(sequences))]:
            table.rows([seq])
            if rng.random() < 0.5:
                lm_score(seq, params, table)
        fresh = PrefixStates(params)
        fresh.rows(sequences)
        assert set(table.index) == set(fresh.index)
        (logprobs, scores), (fresh_logprobs, fresh_scores) = table.columns(), fresh.columns()
        assert len(logprobs) == len(scores) == len(table.parents)
        for prefix, row in table.index.items():
            other = fresh.index[prefix]
            np.testing.assert_array_equal(logprobs[row], fresh_logprobs[other])
            assert scores[row] == fresh_scores[other]
            assert scores[row] + logprobs[row, params.eos] == stepwise_lm_score(prefix, params)[0]

    @pytest.mark.parametrize("layers", [1, 2])
    def test_no_row_head_computed_twice(self, layers, monkeypatch):
        # Every head row goes through the one log_softmax of the column fill;
        # rows read again, as rows or through lm_score, are never recomputed.
        params = init_char_lm_params(4, CharLMConfig(layers=layers, cells=5, embed_dim=3),
                                     RandomStream(9))
        heads = []
        original = networks.log_softmax

        def counted(logits):
            heads.append(logits.shape[0])
            return original(logits)

        monkeypatch.setattr(networks, "log_softmax", counted)
        table, rng = PrefixStates(params), RandomStream(10)
        for _ in range(30):
            seqs = [tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 6))))
                    for _ in range(int(rng.integers(1, 4)))]
            next_logprobs(seqs, table)
            for seq in seqs:
                lm_score(seq, params, table)
        assert len(heads) > 1 and sum(heads) == len(table.parents)

    def test_out_of_vocabulary_label_adds_no_row(self):
        params = init_prediction_params(4, PredictionConfig(cells=5, embed_dim=3), RandomStream(1))
        table = PrefixStates(params)
        table.rows([(0, 1)])
        held = table.outputs.copy()
        for bad in (-1, 4):
            # take() would wrap -1 to the last embedding row.
            with pytest.raises(ContractViolation, match="outside vocabulary"):
                table.rows([(2,), (0, 1, 2, bad)])
            assert list(table.index) == [(), (0,), (0, 1)]
            assert table.parents == [-1, 0, 1] and table.labels == [-1, 0, 1]
            np.testing.assert_array_equal(table.outputs, held)


class TestCharLM:
    def _params(self, num_labels=3, layers=1):
        return init_char_lm_params(
            num_labels, CharLMConfig(layers=layers, cells=5, embed_dim=4), RandomStream(20)
        )

    def test_uniform_lm_scores(self):
        params = self._params(num_labels=3)
        for arr in params.arrays().values():
            arr[:] = 0.0
        V = params.eos + 1  # the head's outputs
        assert lm_score([0, 1, 2], params) == pytest.approx(-4 * math.log(V), abs=1e-12)
        incs = chain_increments([0, 1, 2], PrefixStates(params))
        np.testing.assert_allclose(incs, np.full(4, -math.log(V)), rtol=0, atol=1e-12)

    def test_empty_sequence(self):
        params = self._params()
        state = lm_init_state(params)
        assert lm_score([], params) == lm_end_increment(state, params)
        assert chain_increments([], PrefixStates(params)).tolist() == [
            lm_end_increment(state, params)
        ]

    def test_incremental_matches_batch(self):
        params = self._params(num_labels=4, layers=2)
        rng = RandomStream(21)
        for _ in range(10):
            seq = [int(v) for v in rng.integers(0, 4, size=rng.integers(0, 7))]
            total, incs = lm_score(seq, params), chain_increments(seq, PrefixStates(params))
            state = lm_init_state(params)
            inc_sum = 0.0
            for i, lab in enumerate(seq):
                inc, state = lm_score_next(state, lab, params)
                assert inc == incs[i]
                inc_sum += inc
            inc_sum += lm_end_increment(state, params)
            assert inc_sum == total

    def test_out_of_vocabulary(self):
        params = self._params()
        with pytest.raises(ContractViolation):
            lm_score([7], params)

    @staticmethod
    def _shared_prefix_sequences(rng, num_labels, count=40):
        """Sequences that grow from earlier ones, so many share prefixes,
        in random order, with repeats and the empty sequence."""
        seqs = [()]
        for _ in range(count):
            base = seqs[int(rng.integers(0, len(seqs)))]
            tail = rng.integers(0, num_labels, size=int(rng.integers(0, 4)))
            seqs.append(base[: int(rng.integers(0, len(base) + 1))] + tuple(int(x) for x in tail))
        return [seqs[i] for i in rng.permutation(len(seqs))]

    @pytest.mark.parametrize("layers", [1, 2])
    def test_prefix_table_is_bitwise_the_full_sequence_score(self, layers):
        params = self._params(num_labels=4, layers=layers)
        rng = RandomStream(22 + layers)
        table = PrefixStates(params)
        for seq in self._shared_prefix_sequences(rng, 4):
            total, incs = lm_score(seq, params, table), chain_increments(seq, table)
            fresh_total = lm_score(seq, params)
            fresh_incs = chain_increments(seq, PrefixStates(params))
            oracle_total, oracle, _ = stepwise_lm_score(seq, params)
            assert total == fresh_total == oracle_total
            np.testing.assert_array_equal(incs, fresh_incs)
            np.testing.assert_array_equal(incs, oracle)
            # The full-sequence computation, as one label-network call whose
            # head is one GEMM.
            reference = sequence_increments(seq, params)
            np.testing.assert_allclose(incs, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_one_lstm_row_per_distinct_prefix(self, layers, monkeypatch):
        params = self._params(num_labels=3, layers=layers)
        seqs = self._shared_prefix_sequences(RandomStream(24), 3)
        rows = []
        original = networks.lstm_forward

        def counted(xs, layer, *args):
            if layer is params.layers[0]:
                rows.append(xs.size // xs.shape[-1])
            return original(xs, layer, *args)

        monkeypatch.setattr(networks, "lstm_forward", counted)
        table = PrefixStates(params)
        for seq in seqs:
            lm_score(seq, params, table)
        distinct = {seq[:u] for seq in seqs for u in range(1, len(seq) + 1)}
        assert sum(rows) == len(distinct) + 1  # the begin marker's row
        assert set(table.index) == distinct | {()}

    @pytest.mark.parametrize("layers", [1, 2])
    def test_next_logprobs_equal_the_stepwise_oracle_bitwise(self, layers, monkeypatch):
        # Every prefix of 60 random sequences, read through one shared table
        # (new prefixes step from rows already there) and one fresh table per
        # sequence.
        config = CharLMConfig(layers=layers, cells=64, embed_dim=16)
        params = init_char_lm_params(8, config, RandomStream(25 + layers))
        rng = RandomStream(27)
        rows = []
        original = networks.lstm_forward

        def counted(xs, layer, *args):
            if layer is params.layers[0]:
                rows.append(xs.size // xs.shape[-1])
            return original(xs, layer, *args)

        shared, fresh_rows = PrefixStates(params), 0
        for _ in range(60):
            seq = tuple(int(x) for x in rng.integers(0, 8, size=int(rng.integers(0, 12))))
            state = lm_init_state(params)
            expected = [state.logprobs]
            for lab in seq:
                _, state = lm_score_next(state, lab, params)
                expected.append(state.logprobs)
            prefixes = [seq[:u] for u in range(len(seq) + 1)]
            monkeypatch.setattr(networks, "lstm_forward", counted)
            np.testing.assert_array_equal(next_logprobs(prefixes, shared), np.stack(expected))
            np.testing.assert_array_equal(
                next_logprobs([seq], PrefixStates(params))[0], expected[-1]
            )
            monkeypatch.undo()
            fresh_rows += len(seq) + 1
        # No row computed twice; the shared root was made before counting.
        assert sum(rows) == len(shared.index) - 1 + fresh_rows

    def test_out_of_vocabulary_leaves_the_table_unchanged(self):
        params = self._params()
        table = PrefixStates(params)
        root = table.outputs.copy()
        for bad in (7, -1):
            with pytest.raises(ContractViolation, match="outside vocabulary"):
                lm_score([0, bad], params, table)
            assert list(table.index) == [()] and table.parents == [-1]
        lm_score([0, 1], params, table)
        held = (dict(table.index), list(table.parents), list(table.labels), table.outputs.copy())
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            lm_score([0, 1, 2, 7], params, table)
        assert table.index == held[0] and table.parents == held[1] and table.labels == held[2]
        np.testing.assert_array_equal(table.outputs, held[3])
        np.testing.assert_array_equal(table.outputs[:1], root)

    def test_table_of_another_lm_refused(self):
        with pytest.raises(ContractViolation, match="another LM"):
            lm_score([0], self._params(), PrefixStates(self._params()))

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
