"""Full transducer model: encoder + prediction network + joint network,
with end-to-end loss gradients and checkpoint serialization. The prediction
network is a `networks.LabelNetParams` without a head: every lattice row
starts from the step of its learned begin symbol.

Label prefixes reach the prediction network through `PrefixStates`: a
decoder state is a table plus row indices, and `prefix_trie_steps` reads the
nodes of a prefix trie from a table. Tables are shared, never cached: the
decoding stage makes one per model for the stage and passes it to every
utterance (the decoders' `start` state), and cross-scoring one per model per
split, which every union of the split reads.

Parameter tensors live in a flat name -> array mapping ("encoder.layers.0.
fwd.W_x", "prediction.layers.0.W_h", "joint.W_out", ...) used by the
optimizer, the checkpoint format, and the encoder-initialization hook.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write
from .errors import ContractViolation, DimensionError, TrainingDiverged
from .joint import (
    ADDITIVE,
    JointParams,
    init_joint_params,
    joint_backward_lattice,
    joint_forward,
    joint_forward_lattice,
)
from .lattice import prefix_trie_steps, rnnt_backward, rnnt_forward
from .networks import (
    CharLMConfig,
    EncoderConfig,
    EncoderParams,
    LabelNetParams,
    PredictionConfig,
    PrefixStates,
    PrefixTrie,
    drop_connect,
    encode,
    encode_backward,
    init_char_lm_params,
    init_encoder_params,
    init_prediction_params,
    predict_backward,
    predict_embed,
    sample_dropconnect_mask,
)
from .numerics import RandomStream, sub_grads


@dataclass
class ModelConfig:
    num_labels: int
    encoder: EncoderConfig
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    joint_dim: int = 16
    joint_mode: str = ADDITIVE

    @property
    def vocab_size(self) -> int:
        return self.num_labels + 1  # labels plus blank

    def to_dict(self) -> dict:
        return {
            "num_labels": self.num_labels,
            "encoder": vars(self.encoder).copy(),
            "prediction": vars(self.prediction).copy(),
            "joint_dim": self.joint_dim,
            "joint_mode": self.joint_mode,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            num_labels=d["num_labels"],
            encoder=EncoderConfig(**d["encoder"]),
            prediction=PredictionConfig(**d["prediction"]),
            joint_dim=d["joint_dim"],
            joint_mode=d["joint_mode"],
        )


@dataclass
class DropConnectMasks:
    """`networks.DropConnect` draws, one per hidden-to-hidden matrix."""

    encoder: list | None = None  # per layer: (fwd draw, bwd draw | None)
    prediction: list | None = None  # per label-network layer


@dataclass
class TransducerModel:
    config: ModelConfig
    encoder: EncoderParams
    prediction: LabelNetParams
    joint: JointParams

    # -- parameter bookkeeping ------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.encoder.arrays().items():
            out[f"encoder.{name}"] = arr
        for name, arr in self.prediction.arrays().items():
            out[f"prediction.{name}"] = arr
        for name, arr in self.joint.arrays().items():
            out[f"joint.{name}"] = arr
        return out

    # -- training path ---------------------------------------------------

    def loss_and_grads(
        self, features, labels, aux=None, masks: DropConnectMasks | None = None, out=None
    ):
        """NLL of one utterance and gradients for every parameter: joint,
        then encoder layers from the top (a layer's reverse direction before
        its forward one), then prediction. With `out`, a gradient dict of an
        earlier call (the training loop's workspace), each backward pass
        writes into its arrays and `out` is returned; without, the arrays
        are new. The values are the same bit for bit.

        Raises TrainingDiverged when the forward loss is non-finite, so the
        training loop aborts.
        """
        masks = masks or DropConnectMasks()
        H, enc_cache = encode(features, self.config.encoder, self.encoder, masks.encoder, aux)
        G, pred_cache = predict_embed(labels, self.prediction, masks.prediction)
        logprob, joint_cache = joint_forward_lattice(H, G, self.joint)
        nll, alpha = rnnt_forward(logprob, labels)
        if not np.isfinite(nll):
            raise TrainingDiverged(f"non-finite loss {nll}")
        _, grad = rnnt_backward(logprob, labels, alpha)
        joint_grads, d_H, d_G = joint_backward_lattice(
            grad, joint_cache, self.joint, sub_grads(out, "joint.")
        )
        enc_grads = encode_backward(
            d_H, self.config.encoder, self.encoder, enc_cache, sub_grads(out, "encoder.")
        )
        pred_grads = predict_backward(
            d_G, labels, pred_cache, self.prediction, sub_grads(out, "prediction.")
        )
        if out is not None:
            return nll, out
        grads = {f"joint.{k}": v for k, v in joint_grads.items()}
        grads.update({f"encoder.{k}": v for k, v in enc_grads.items()})
        grads.update({f"prediction.{k}": v for k, v in pred_grads.items()})
        return nll, grads

    def loss(self, features, labels, aux=None) -> float:
        H, _ = encode(features, self.config.encoder, self.encoder, None, aux)
        return self.lattice_nll(H, labels)

    def lattice_nll(self, H, labels) -> float:
        nll, _ = rnnt_forward(self.logprob_lattice(H, labels), labels)
        return nll

    def prefix_trie_steps(self, H, trie: PrefixTrie, table: PrefixStates):
        """The (T, N) blank and label steps of the nodes of `trie`
        (`networks.prefix_trie`), the per-model input of
        `lattice.prefix_trie_forward`: one joint call over the trie's
        prediction rows, node n's row at position n. The rows come from
        `table`, a `PrefixStates` of this model's prediction network, which
        steps only the trie's prefixes it lacks, one block per depth.
        Cross-scoring passes one table per model per split, so each
        utterance steps only the prefixes that are new to its split.

        A row does not depend on when or with what it was added, so the
        joint gets the same rows, in the same order, from any table, and the
        steps are the same bit for bit. Through `prefix_trie_forward`, the
        NLLs agree with `lattice_nll` per sequence within
        1e-12 * max(1, |nll|): the prediction rows and the alpha recursion
        are bitwise those of `lattice_nll`, and only the joint matmuls run
        over a different number of rows, which may change the BLAS kernel
        and so the last bits.
        """
        if table.params is not self.prediction:
            raise ContractViolation("prefix_trie_steps: the prefix table is another network's")
        rows = table.rows(trie.prefixes)  # before the gather: rows() may grow the storage
        columns, _ = joint_forward_lattice(H, table.outputs[rows], self.joint)
        return prefix_trie_steps(columns, trie.parents, trie.labels)

    # -- decoding interface ----------------------------------------------

    def encode_features(self, features, aux=None) -> np.ndarray:
        H, _ = encode(features, self.config.encoder, self.encoder, None, aux)
        return H

    def init_decode_state(self) -> DecodeState:
        """The empty prefix as row 0 of a new prefix table. Every state
        extended from it shares the table, so the searches of a stage that
        start from one such state step each label prefix once."""
        return DecodeState(PrefixStates(self.prediction), np.zeros(1, dtype=np.intp))

    def extend_decode_state(self, state: DecodeState, prefixes) -> DecodeState:
        """The rows of `prefixes` (label tuples), in order, in the table of
        `state`; prefixes new to the table get rows (`PrefixStates.rows`)."""
        return DecodeState(state.table, state.table.rows(prefixes))

    def joint_log_probs(self, H_rows: np.ndarray, state: DecodeState) -> np.ndarray:
        """(B, K) log-probabilities: row i joins H_rows[i] with prefix i of
        `state`."""
        return joint_forward(H_rows, state.table.outputs[state.rows], self.joint)

    def logprob_lattice(self, H: np.ndarray, labels) -> np.ndarray:
        """The (T, U+1, K) log-probability lattice for a given label sequence."""
        G, _ = predict_embed(labels, self.prediction)
        logprob, _ = joint_forward_lattice(H, G, self.joint)
        return logprob

    @property
    def num_labels(self) -> int:
        return self.config.num_labels


@dataclass(frozen=True)
class DecodeState:
    """A decoder handle: row indices into a prefix table, one row per label
    prefix of a beam step. Handles are never mutated; the table only grows,
    so a handle stays valid while later searches add rows."""

    table: PrefixStates
    rows: np.ndarray


def init_model(config: ModelConfig, rng: RandomStream) -> TransducerModel:
    enc = init_encoder_params(config.encoder, rng.child(1))
    pred = init_prediction_params(config.num_labels, config.prediction, rng.child(2))
    joint = init_joint_params(
        enc_dim=config.encoder.output_dim,
        pred_dim=config.prediction.cells,
        joint_dim=config.joint_dim,
        vocab_size=config.vocab_size,
        mode=config.joint_mode,
        rng=rng.child(3),
    )
    return TransducerModel(config, enc, pred, joint)


def sample_model_masks(model: TransducerModel, rate: float, rng: RandomStream) -> DropConnectMasks:
    """One DropConnect draw per hidden-to-hidden matrix, holding W_h * mask
    of the current parameters for every pass that reads it while they stay
    fixed; the training loop draws once per minibatch. A pass after the
    parameters change needs a new draw (the same stream gives the same
    masks)."""
    if rate <= 0.0:
        return DropConnectMasks()

    def draw(params, *key):
        mask = sample_dropconnect_mask(params.W_h.shape, rate, rng.child(*key))
        return drop_connect(params, mask)

    encoder = [
        (draw(layer.fwd, i, 0), None if layer.bwd is None else draw(layer.bwd, i, 1))
        for i, layer in enumerate(model.encoder.layers)
    ]
    prediction = [draw(layer, 100 + i) for i, layer in enumerate(model.prediction.layers)]
    return DropConnectMasks(encoder, prediction)


# ---------------------------------------------------------------------------
# Checkpoints: named tensors plus a JSON meta record in one .npz file. The
# transducer and the character LMs share the writer, the reader and the one
# copy-in step, which refuses unknown, missing and mis-shaped tensors.


def _write_container(path, arrays: dict[str, np.ndarray], meta: dict):
    """Through `atomic_write`, so a failed write leaves `path` as it was. A
    path without the `.npz` suffix gets it, as with `np.savez(path)`."""
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path = str(path)
    with atomic_write(path if path.endswith(".npz") else f"{path}.npz", binary=True) as f:
        np.savez(f, **payload)


def _read_container(path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path) as data:
        if "__meta__" not in data.files:
            raise ContractViolation(f"{path}: no meta record")
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return arrays, meta


def _copy_in(own: dict[str, np.ndarray], arrays: dict[str, np.ndarray], path):
    """Copy `arrays` into the tensors of `own` in place, after checking that
    the names match one to one and every shape agrees."""
    for problem, names in (("unknown", set(arrays) - set(own)), ("missing", set(own) - set(arrays))):
        if names:
            raise ContractViolation(f"{path}: {problem} parameters {sorted(names)}")
    for name, arr in own.items():
        if arrays[name].shape != arr.shape:
            raise DimensionError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {arr.shape}"
            )
    for name, arr in own.items():
        arr[:] = arrays[name]


def save_checkpoint(path, model: TransducerModel, extra_meta: dict | None = None):
    meta = {"config": model.config.to_dict(), **(extra_meta or {})}
    _write_container(path, model.arrays(), meta)


def load_checkpoint(path) -> tuple[TransducerModel, dict]:
    arrays, meta = _read_container(path)
    model = init_model(ModelConfig.from_dict(meta["config"]), RandomStream(0))
    _copy_in(model.arrays(), arrays, path)
    return model, meta


def load_encoder_init(model: TransducerModel, path):
    """Encoder-initialization hook: copy only encoder tensors from a
    checkpoint (stands in for initializing from a separately trained
    encoder)."""
    arrays, _ = _read_container(path)
    own = {k: v for k, v in model.arrays().items() if k.startswith("encoder.")}
    _copy_in(own, {k: v for k, v in arrays.items() if k.startswith("encoder.")}, path)


def save_char_lm(path, lm, config, extra_meta: dict | None = None):
    meta = {"lm_config": vars(config).copy(), "num_labels": lm.num_labels, **(extra_meta or {})}
    _write_container(path, lm.arrays(), meta)


def load_char_lm(path):
    arrays, meta = _read_container(path)
    lm = init_char_lm_params(meta["num_labels"], CharLMConfig(**meta["lm_config"]), RandomStream(0))
    _copy_in(lm.arrays(), arrays, path)
    return lm, meta
