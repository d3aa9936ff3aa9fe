import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pack_arrays, relative_error, unpack_arrays
from transducer_workbench.errors import ContractViolation, DimensionError
from transducer_workbench.joint import ADDITIVE, MULTIPLICATIVE, joint_forward
from transducer_workbench.model import (
    ModelConfig,
    init_model,
    load_char_lm,
    load_checkpoint,
    load_encoder_init,
    sample_model_masks,
    save_char_lm,
    save_checkpoint,
)
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    PredictionConfig,
    init_char_lm_params,
    lm_loss_and_grads,
    predict_embed,
)
from transducer_workbench.numerics import RandomStream, finite_difference_gradient


def tiny_config(mode=ADDITIVE, bidirectional=True, aux_dim=0):
    return ModelConfig(
        num_labels=3,
        encoder=EncoderConfig(
            layers=1,
            cells=4,
            bidirectional=bidirectional,
            stacking=2,
            skip=2,
            lookahead=0 if bidirectional else 1,
            aux_dim=aux_dim,
            input_dim=3,
        ),
        prediction=PredictionConfig(cells=4, embed_dim=3),
        joint_dim=5,
        joint_mode=mode,
    )


class TestLossAndGrads:
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_finite_differences_end_to_end(self, mode, bidirectional):
        model = init_model(tiny_config(mode, bidirectional), RandomStream(1))
        rng = RandomStream(2)
        features = rng.normal(size=(7, 3))
        labels = [0, 2, 1]
        template = model.arrays()

        def loss(vec):
            a = unpack_arrays(vec, template)
            for name, arr in model.arrays().items():
                arr[:] = a[name]
            return model.loss(features, labels)

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)
        loss(x0)
        nll, grads = model.loss_and_grads(features, labels)
        assert np.isfinite(nll)
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name

    def test_empty_transcript_is_legal(self):
        model = init_model(tiny_config(), RandomStream(3))
        nll, grads = model.loss_and_grads(RandomStream(4).normal(size=(5, 3)), [])
        assert np.isfinite(nll)
        g_embedding, bos = grads["prediction.embedding"], model.prediction.bos
        assert np.all(g_embedding[:bos] == 0)  # no label row is read
        assert np.abs(g_embedding[bos]).max() > 0  # the begin row is

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("rate", [0.0, 0.5], ids=["unmasked", "masked"])
    def test_gradient_keys_are_the_parameter_keys(self, mode, rate):
        # Every tensor gets a gradient of its own shape, and nothing else
        # does: the optimizer and the checkpoint read the same names.
        model = init_model(tiny_config(mode), RandomStream(40))
        masks = sample_model_masks(model, rate, RandomStream(41))
        assert (masks.prediction is None) == (rate == 0.0)
        _, grads = model.loss_and_grads(RandomStream(42).normal(size=(6, 3)), [1, 0], masks=masks)
        params = model.arrays()
        assert sorted(grads) == sorted(params)
        assert all(grads[name].shape == arr.shape for name, arr in params.items())
        assert {"prediction.embedding", "prediction.layers.0.W_h"} <= set(params)

    def test_masked_loss_differs_but_is_deterministic(self):
        model = init_model(tiny_config(), RandomStream(5))
        rng = RandomStream(6)
        features = rng.normal(size=(6, 3))
        labels = [1, 0]
        masks = sample_model_masks(model, 0.5, RandomStream(7))
        nll_plain, _ = model.loss_and_grads(features, labels)
        nll_masked, _ = model.loss_and_grads(features, labels, masks=masks)
        nll_masked2, _ = model.loss_and_grads(
            features, labels, masks=sample_model_masks(model, 0.5, RandomStream(7))
        )
        assert nll_masked != nll_plain
        assert nll_masked == nll_masked2

    def test_masked_gradients_finite_differences(self):
        model = init_model(tiny_config(MULTIPLICATIVE), RandomStream(8))
        rng = RandomStream(9)
        features = rng.normal(size=(6, 3))
        labels = [2, 2]
        template = model.arrays()

        def masks():
            # The same masks on every call, drawn after the weights are
            # written, so the masked matrices follow the perturbation.
            return sample_model_masks(model, 0.25, RandomStream(10))

        def loss(vec):
            a = unpack_arrays(vec, template)
            for name, arr in model.arrays().items():
                arr[:] = a[name]
            return model.loss_and_grads(features, labels, masks=masks())[0]

        x0 = pack_arrays(template)
        numeric = unpack_arrays(finite_difference_gradient(loss, x0), template)
        loss(x0)
        _, grads = model.loss_and_grads(features, labels, masks=masks())
        for name in template:
            assert relative_error(grads[name], numeric[name]) <= 1e-4, name

    def test_aux_vector_path(self):
        model = init_model(tiny_config(aux_dim=2), RandomStream(11))
        rng = RandomStream(12)
        nll, _ = model.loss_and_grads(
            rng.normal(size=(6, 3)), [0], aux=np.array([0.3, -0.7])
        )
        assert np.isfinite(nll)


def decoder_model(seed, mode=ADDITIVE):
    model = init_model(tiny_config(mode), RandomStream(seed))
    # The bias starts at zero; a random one makes every term of the joint count.
    model.joint.b[:] = RandomStream(seed + 1).normal(size=model.joint.b.shape)
    return model


def with_rows(model, prefixes):
    """A state over `prefixes`, their ancestors given rows depth by depth."""
    state = model.init_decode_state()
    for u in range(1, max(map(len, prefixes), default=0) + 1):
        state = model.extend_decode_state(state, sorted({p[:u] for p in prefixes if len(p) >= u}))
    return model.extend_decode_state(state, prefixes)


def same_grads(got: dict, want: dict) -> bool:
    """The same names in the same order, each array equal bit for bit."""
    return list(got) == list(want) and all(
        got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes() for k in want
    )


class TestGradientWorkspace:
    """`loss_and_grads(..., out=ws)` writes every gradient into the arrays
    of an earlier call's dict; the values and their order are those of a
    call with new arrays, bit for bit, whatever the workspace held."""

    @staticmethod
    def two_layer_model(mode, bidirectional):
        config = tiny_config(mode, bidirectional)
        encoder = dataclasses.replace(config.encoder, layers=2)
        return init_model(dataclasses.replace(config, encoder=encoder), RandomStream(50))

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("rate", [0.0, 0.25], ids=["unmasked", "dropconnect"])
    @pytest.mark.parametrize("bidirectional", [True, False], ids=["bidirectional", "lookahead"])
    def test_workspace_equals_new_arrays(self, mode, rate, bidirectional):
        model = self.two_layer_model(mode, bidirectional)
        masks = sample_model_masks(model, rate, RandomStream(51))
        rng = RandomStream(52)
        utterances = [(rng.child(0).normal(size=(7, 3)), [0, 2, 1]),
                      (rng.child(1).normal(size=(4, 3)), [1])]
        _, workspace = model.loss_and_grads(*utterances[1], masks=masks)
        for features, labels in utterances:  # one workspace, two utterances
            nll, fresh = model.loss_and_grads(features, labels, masks=masks)
            got_nll, grads = model.loss_and_grads(features, labels, masks=masks, out=workspace)
            assert grads is workspace and got_nll == nll
            assert same_grads(grads, fresh)

    def test_gradient_order(self):
        # Joint, then encoder layers from the top with the reverse
        # direction first, then prediction: the clip norm sums in this order.
        model = self.two_layer_model(MULTIPLICATIVE, True)
        _, grads = model.loss_and_grads(RandomStream(53).normal(size=(5, 3)), [2])
        groups = list(dict.fromkeys(name.rsplit(".", 1)[0] for name in grads))
        assert groups == ["joint", "encoder.layers.1.bwd", "encoder.layers.1.fwd",
                          "encoder.layers.0.bwd", "encoder.layers.0.fwd",
                          "prediction.layers.0", "prediction"]
        assert list(grads)[:4] == ["joint.W_out", "joint.b", "joint.W_enc", "joint.W_pred"]

    @pytest.mark.parametrize("layers", [1, 2])
    def test_lm_workspace_equals_new_arrays(self, layers):
        lm = init_char_lm_params(4, CharLMConfig(layers=layers, cells=5, embed_dim=3),
                                 RandomStream(54))
        _, workspace = lm_loss_and_grads([2, 2], lm)
        for sequence in ([0, 3, 1], [], [1, 1, 0, 2]):
            _, fresh = lm_loss_and_grads(sequence, lm)
            _, grads = lm_loss_and_grads(sequence, lm, out=workspace)
            assert grads is workspace and same_grads(grads, fresh)

    def test_formed_masks_hold_the_draw_of_their_parameters(self):
        # A draw keeps W_h * mask of the parameters it was drawn on; a new
        # draw from the same stream follows later parameter changes.
        model = self.two_layer_model(ADDITIVE, True)
        masks = sample_model_masks(model, 0.5, RandomStream(55))
        fwd = masks.encoder[0][0]
        assert np.array_equal(fwd.W_h, model.encoder.layers[0].fwd.W_h * fwd.mask)
        features = RandomStream(56).normal(size=(6, 3))
        before = model.loss_and_grads(features, [0, 1], masks=masks)[0]
        model.encoder.layers[0].fwd.W_h *= 2.0
        assert model.loss_and_grads(features, [0, 1], masks=masks)[0] == before
        again = sample_model_masks(model, 0.5, RandomStream(55))
        assert np.array_equal(again.encoder[0][0].mask, fwd.mask)
        assert model.loss_and_grads(features, [0, 1], masks=again)[0] != before
        assert sample_model_masks(model, 0.0, RandomStream(55)).encoder is None


class TestDecodeState:
    """The decoder protocol: a state is a block of label-prefix rows in an
    append-only per-utterance table, and the joint scores a block."""

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple), min_size=1, max_size=8),
           st.integers(0, 2**16))
    def test_block_joint_equals_one_node_calls_bitwise(self, mode, prefixes, seed):
        model = decoder_model(seed, mode)
        state = with_rows(model, prefixes)
        E = model.config.encoder.output_dim
        H_rows = RandomStream(seed + 2).normal(size=(len(prefixes), E))
        block = model.joint_log_probs(H_rows, state)
        assert block.shape == (len(prefixes), model.config.vocab_size)
        for h, prefix, row in zip(H_rows, prefixes, block):
            G, _ = predict_embed(list(prefix), model.prediction)
            assert np.array_equal(row, joint_forward(h, G[-1], model.joint)), prefix

    def test_one_row_per_prefix_and_handles_stay_valid(self):
        model = decoder_model(3)
        first = model.extend_decode_state(model.init_decode_state(), [(0,), (1,), (0,)])
        assert first.rows.tolist() == [1, 2, 1]
        seen = first.table.outputs[first.rows].copy()
        chain = [(0,) * u for u in range(1, 200)]
        state = first
        for prefix in chain:  # the table grows by one row a step
            state = model.extend_decode_state(state, [prefix, (1,)])
        assert state.table is first.table and len(first.table.index) == 201
        assert np.array_equal(first.table.outputs[first.rows], seen)
        again = model.extend_decode_state(state, [(1,), (0,)])
        assert again.rows.tolist() == [2, 1] and len(first.table.index) == 201

    def test_out_of_vocabulary_prefix_adds_no_row(self):
        model = decoder_model(4)
        state = model.extend_decode_state(model.init_decode_state(), [(0,)])
        for bad in (-1, model.num_labels):
            # take() would wrap -1 to the last embedding row.
            with pytest.raises(ContractViolation, match="outside vocabulary"):
                model.extend_decode_state(state, [(1,), (0, bad)])
            assert list(state.table.index) == [(), (0,)]
        ok = model.extend_decode_state(state, [(1,), (0, 2)])
        assert list(ok.table.index) == [(), (0,), (1,), (0, 2)]

    def test_missing_ancestors_get_rows(self):
        # A prefix's missing ancestors get rows too. New prefixes are stepped
        # by their depth below the nearest ancestor with a row, one block
        # per depth in first-seen order: (1, 0) extends the known (1,), so
        # it steps with (0,) and (2,). Every row is predict_embed's.
        model = decoder_model(5)
        state = model.extend_decode_state(model.init_decode_state(), [(1,)])
        state = model.extend_decode_state(state, [(0, 1, 2), (2,), (1, 0, 0), (0, 1)])
        table = state.table
        assert list(table.index) == [(), (1,), (0,), (2,), (1, 0), (0, 1), (1, 0, 0), (0, 1, 2)]
        assert table.parents == [-1, 0, 0, 0, 1, 2, 4, 5]
        assert table.labels == [-1, 1, 0, 2, 0, 1, 0, 2]
        assert state.rows.tolist() == [7, 3, 6, 5]
        for prefix, row in table.index.items():
            G, _ = predict_embed(list(prefix), model.prediction)
            assert np.array_equal(table.outputs[row], G[-1]), prefix

    def test_mis_shaped_H_rows_rejected(self):
        model = decoder_model(6)
        state = model.extend_decode_state(model.init_decode_state(), [(), (2,)])
        E = model.config.encoder.output_dim
        for shape in [(3, E), (1, E), (2, E + 1), (E,), (2, 1, E)]:
            with pytest.raises(DimensionError):
                model.joint_log_probs(np.zeros(shape), state)
        assert model.joint_log_probs(np.zeros((2, E)), state).shape == (2, 4)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = init_model(tiny_config(MULTIPLICATIVE), RandomStream(13))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, {"epoch": 3})
        loaded, meta = load_checkpoint(path)
        assert meta["epoch"] == 3
        for name, arr in model.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])
        rng = RandomStream(14)
        features = rng.normal(size=(5, 3))
        assert model.loss(features, [1]) == loaded.loss(features, [1])

    def test_path_without_npz_suffix_gets_it(self, tmp_path):
        # As np.savez(path) does; the file is written through a handle, which
        # np.savez would not suffix itself.
        model = init_model(tiny_config(), RandomStream(13))
        save_checkpoint(tmp_path / "model", model)
        save_checkpoint(tmp_path / "again.npz", model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["again.npz", "model.npz"]
        assert (tmp_path / "model.npz").read_bytes() == (tmp_path / "again.npz").read_bytes()
        loaded, _ = load_checkpoint(tmp_path / "model.npz")
        for name, arr in model.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])

    def test_encoder_init_hook(self, tmp_path):
        donor = init_model(tiny_config(), RandomStream(15))
        path = tmp_path / "donor.npz"
        save_checkpoint(path, donor)
        target = init_model(tiny_config(), RandomStream(16))
        before = target.arrays()["prediction.embedding"].copy()
        load_encoder_init(target, path)
        for name, arr in donor.arrays().items():
            if name.startswith("encoder."):
                np.testing.assert_array_equal(arr, target.arrays()[name])
        np.testing.assert_array_equal(target.arrays()["prediction.embedding"], before)

    def test_encoder_init_ignores_other_tensors(self, tmp_path):
        donor = init_model(tiny_config(), RandomStream(15))
        path = tmp_path / "donor.npz"
        save_checkpoint(path, donor)
        _edit_container(path, lambda a: a.pop("joint.W_out"))
        target = init_model(tiny_config(), RandomStream(16))
        load_encoder_init(target, path)
        for name, arr in donor.arrays().items():
            if name.startswith("encoder."):
                np.testing.assert_array_equal(arr, target.arrays()[name])

    def test_encoder_init_refuses_unknown_and_misshaped(self, tmp_path):
        path = tmp_path / "donor.npz"
        save_checkpoint(path, init_model(tiny_config(), RandomStream(15)))
        target = init_model(tiny_config(), RandomStream(16))
        before = {k: v.copy() for k, v in target.arrays().items()}
        _edit_container(path, lambda a: a.update({"encoder.layers.9.fwd.b": np.zeros(16)}))
        with pytest.raises(ContractViolation, match="unknown"):
            load_encoder_init(target, path)
        _edit_container(path, lambda a: a.pop("encoder.layers.9.fwd.b"))
        _edit_container(path, lambda a: a.update({"encoder.layers.0.fwd.b": np.zeros(15)}))
        with pytest.raises(DimensionError, match="encoder.layers.0.fwd.b"):
            load_encoder_init(target, path)
        for name, arr in target.arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = init_model(tiny_config(), RandomStream(13))
        save_checkpoint(tmp_path / "a.npz", model, {"epoch": 1})
        loaded, meta = load_checkpoint(tmp_path / "a.npz")
        save_checkpoint(tmp_path / "b.npz", loaded, {"epoch": meta["epoch"]})
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("edit, error, match", [
        (lambda a: a.pop("joint.W_out"), ContractViolation, "missing.*joint.W_out"),
        (lambda a: a.update({"joint.extra": np.zeros(2)}), ContractViolation, "unknown.*joint.extra"),
        (lambda a: a.update({"joint.W_out": np.zeros((1, 5))}), DimensionError, "joint.W_out"),
    ], ids=["missing", "unknown", "misshaped"])
    def test_refuses_incomplete_checkpoint(self, tmp_path, edit, error, match):
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_model(tiny_config(), RandomStream(13)))
        _edit_container(path, edit)
        with pytest.raises(error, match=match):
            load_checkpoint(path)

    def test_config_roundtrip(self):
        config = tiny_config(MULTIPLICATIVE, bidirectional=False)
        back = ModelConfig.from_dict(config.to_dict())
        assert back == config

    def test_loads_meta_with_the_removed_branch_bias_flag(self, tmp_path):
        # Checkpoints from before the per-branch joint biases were removed
        # name `joint_branch_biases` in their config; false, their tensors
        # are today's.
        model = init_model(tiny_config(MULTIPLICATIVE), RandomStream(13))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        _edit_container(path, lambda a: _edit_config(a, joint_branch_biases=False))
        loaded, meta = load_checkpoint(path)
        assert meta["config"]["joint_branch_biases"] is False
        assert loaded.config == model.config
        for name, arr in model.arrays().items():
            assert np.array_equal(loaded.arrays()[name], arr), name

    def test_refuses_branch_bias_tensors(self, tmp_path):
        model = init_model(tiny_config(MULTIPLICATIVE), RandomStream(13))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        J = model.config.joint_dim

        def old_biased(arrays):
            _edit_config(arrays, joint_branch_biases=True)
            arrays.update({"joint.b_enc": np.zeros(J), "joint.b_pred": np.zeros(J)})

        _edit_container(path, old_biased)
        with pytest.raises(ContractViolation,
                           match=re.escape("unknown parameters ['joint.b_enc', 'joint.b_pred']")):
            load_checkpoint(path)


def _edit_container(path, edit):
    """Rewrite a saved .npz after applying `edit` to its name -> array dict."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    np.savez(path, **arrays)


def _edit_config(arrays, **values):
    """Set `values` in the model config of a checkpoint's meta record."""
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    meta["config"].update(values)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), np.uint8)


@pytest.mark.parametrize("layers", [1, 2])
def test_lm_gradient_keys_are_the_parameter_keys(layers):
    lm = init_char_lm_params(4, CharLMConfig(layers=layers, cells=5, embed_dim=3), RandomStream(31))
    _, grads = lm_loss_and_grads([0, 3, 1], lm)
    params = lm.arrays()
    assert sorted(grads) == sorted(params)
    assert all(grads[name].shape == arr.shape for name, arr in params.items())


class TestCharLMCheckpoint:
    def _lm(self):
        config = CharLMConfig(layers=2, cells=6, embed_dim=4)
        return init_char_lm_params(8, config, RandomStream(30)), config

    def test_roundtrip_bitwise(self, tmp_path):
        lm, config = self._lm()
        save_char_lm(tmp_path / "a.npz", lm, config, {"role": "source"})
        loaded, meta = load_char_lm(tmp_path / "a.npz")
        assert meta["role"] == "source"
        for name, arr in lm.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])
        save_char_lm(tmp_path / "b.npz", loaded, config, {"role": "source"})
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("edit, error, match", [
        (lambda a: a.pop("layers.1.W_h"), ContractViolation, "missing.*layers.1.W_h"),
        (lambda a: a.update({"layers.2.b": np.zeros(24)}), ContractViolation, "unknown.*layers.2.b"),
        (lambda a: a.update({"W_out": np.zeros((1, 6))}), DimensionError, "W_out"),
    ], ids=["missing", "unknown", "misshaped"])
    def test_refuses_incomplete_checkpoint(self, tmp_path, edit, error, match):
        lm, config = self._lm()
        path = tmp_path / "lm.npz"
        save_char_lm(path, lm, config)
        _edit_container(path, edit)
        with pytest.raises(error, match=match):
            load_char_lm(path)
