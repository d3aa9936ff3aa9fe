"""LSTM building blocks: encoder stacks and the label network, which is
both the prediction network and the character-level language models used
for fusion.

`lstm_forward` is the one LSTM recursion (a decoder beam step and a
prefix-trie depth are each a one-step call over a block of rows) and
`lstm_backward` its BPTT. The forward takes one tanh per step over the
stacked gate pre-activations (sigmoid(x) = (1 + tanh(x / 2)) / 2). Its
products are stacked per-row products, np.matmul(W, X[..., None])[..., 0],
which equal one W @ x per row bit for bit: the input projection of all steps
is one such product before the recursion, and the recurrent product covers
every row of a block at once. So a T-row call equals T chained one-row calls
and a B-row block equals B separate calls, bit for bit. It caches arrays
over all steps; the backward forms the gate-local derivatives of every step
at once, runs only the d_h/d_c recursion step by step, and builds each
weight gradient as one product over the whole sequence. Block calls are
inference-only. The prediction network (one layer) and both character LMs
(N layers) are one label network, `LabelNetParams` (embedding + LSTM
layers), with one forward `_label_forward` and one backward
`_label_backward`. Every label sequence starts with the step of the learned
begin symbol; the LMs add only their output head and end marker.
`PrefixStates` holds the label-network states of a growing set of label
prefixes, keyed by prefix, with the begin step at its root, and steps each
depth of new prefixes as one block: the decoder's prediction rows, trie
cross-scoring and the LM reader `lm_score` step prefixes only through it,
each on one table per network shared by many utterances (per stage,
split or n-best file; see `PrefixStates`).
An LM table also keeps each row's next-symbol log-probabilities and
cumulative prefix score as columns, filled once per row by the one LM
scoring head, a stacked per-row product, so its columns equal the stepwise
LM API (`lm_init_state`, `lm_score_next`, `lm_end_increment`) bit for bit.
That API is only their oracle, which the package does not call.

Each network has a closed-form backward to its weights alongside it (nothing
learns the input frames or a start state, so no gradient reaches them); each
is checked against central finite differences. A backward pass given `out`,
a gradient dict of an earlier call, writes each weight gradient into its
arrays (`sub_grads` hands each layer its part) instead of new ones, with the
same bits: the training loops reuse one such workspace for every item. The
hidden-to-hidden matrix of each LSTM is the DropConnect target: a
`DropConnect` draw holds the mask and the product matrix * mask, formed once
for all the passes of a minibatch; the product replaces the matrix for the
whole pass, and gradients are chained through the mask.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, DimensionError
from .numerics import RandomStream, empty_like_all, log_softmax, log_softmax_backward, sub_grads


# ---------------------------------------------------------------------------
# Single LSTM layer


@dataclass
class LSTMParams:
    """Gates are ordered (input, forget, cell, output) along the first axis."""

    W_x: np.ndarray  # (4H, D)
    W_h: np.ndarray  # (4H, H); DropConnect target
    b: np.ndarray  # (4H,)

    def __post_init__(self):
        H4 = self.W_x.shape[0]
        if H4 % 4 != 0 or self.W_h.shape != (H4, H4 // 4) or self.b.shape != (H4,):
            raise DimensionError(
                f"inconsistent LSTM shapes W_x{self.W_x.shape} W_h{self.W_h.shape} b{self.b.shape}"
            )

    @property
    def hidden(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"W_x": self.W_x, "W_h": self.W_h, "b": self.b}


def init_lstm_params(input_dim: int, hidden: int, rng: RandomStream) -> LSTMParams:
    lim_x = 1.0 / np.sqrt(input_dim)
    lim_h = 1.0 / np.sqrt(hidden)
    return LSTMParams(
        W_x=rng.uniform(-lim_x, lim_x, size=(4 * hidden, input_dim)),
        W_h=rng.uniform(-lim_h, lim_h, size=(4 * hidden, hidden)),
        b=np.zeros(4 * hidden),
    )


@functools.cache
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (scale, offset) over the stacked (i, f, g, o)
    pre-activation: 0.5 and 0.5 on the sigmoid gates, 1 and 0 on the cell
    candidate g, so that tanh(z * scale) * scale + offset is sigmoid on
    i/f/o and tanh on g. Cached per width: decoder steps are one-step calls."""
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    offset = np.full(4 * hidden, 0.5)
    offset[2 * hidden : 3 * hidden] = 0.0
    scale.flags.writeable = False
    offset.flags.writeable = False
    return scale, offset


@dataclass
class LSTMSeqCache:
    """What lstm_backward needs from one lstm_forward call, as arrays over
    the T steps: the inputs xs (T, D), hidden and cell states hs and cs
    (T+1, H) with the start state in row 0, the gate activations (T, 4H) in
    (i, f, g, o) order, and tanh of each new cell state tcs (T, H). A block
    call adds its row axis after the step axis: xs (T, B, D) and so on."""

    xs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    gates: np.ndarray
    tcs: np.ndarray
    W_h_eff: np.ndarray
    hh_mask: np.ndarray | None


def lstm_forward(xs: np.ndarray, params: LSTMParams, hh_mask: DropConnect | None = None,
                 state=None):
    """Run the rows of xs (T, D) from `state` (zeros when None); returns
    (outputs (T, H), final (h, c), cache). xs may also be a block (T, B, D)
    of B independent rows stepped together, with `state` as (B, H) pairs;
    outputs and states then carry the B axis. hh_mask, when present, is a
    `DropConnect` draw of `params`; its masked matrix replaces the
    hidden-to-hidden one for the whole call.

    The gates take one tanh per step over the stacked 4H pre-activation,
    using sigmoid(x) = (1 + tanh(x / 2)) / 2; the halving is exact, and tanh
    saturates to +-1 without overflow. The pre-activation adds, in this
    order, the input projection W_x @ x (formed for every step and row
    before the recursion), the recurrent product W_h @ h and b. Both
    products are stacked per-row products, np.matmul(W, X[..., None])[..., 0]:
    numpy runs each row as its own matrix-vector product, so they equal one
    W @ x per row bit for bit, where a (rows, D) @ (D, 4H) GEMM would round
    differently (`tests/test_networks.py` pins the property). So a T-row
    call equals T chained one-row calls and a block equals B separate
    calls, bit for bit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim not in (2, 3) or xs.shape[-1] != params.input_dim:
        raise DimensionError(f"LSTM expects rows of dim {params.input_dim}, got {xs.shape}")
    W_h_eff, mask = (params.W_h, None) if hh_mask is None else (hh_mask.W_h, hh_mask.mask)
    T, rows, H = xs.shape[0], xs.shape[1:-1], params.hidden
    scale, offset = _gate_affine(H)
    xw = np.matmul(params.W_x, xs[..., None])[..., 0]
    hs = np.empty((T + 1, *rows, H))
    cs = np.empty((T + 1, *rows, H))
    gates = np.empty((T, *rows, 4 * H))
    tcs = np.empty((T, *rows, H))
    hs[0], cs[0] = (0.0, 0.0) if state is None else state
    for t in range(T):
        z = xw[t] + np.matmul(W_h_eff, hs[t][..., None])[..., 0]
        z += params.b
        z *= scale
        act = gates[t]
        np.tanh(z, out=act)
        act *= scale
        act += offset
        c = cs[t + 1]
        np.multiply(act[..., H : 2 * H], cs[t], out=c)
        c += act[..., :H] * act[..., 2 * H : 3 * H]
        np.tanh(c, out=tcs[t])
        np.multiply(act[..., 3 * H :], tcs[t], out=hs[t + 1])
    cache = LSTMSeqCache(xs, hs, cs, gates, tcs, W_h_eff, mask)
    return hs[1:], (hs[T], cs[T]), cache


def lstm_backward(d_outs: np.ndarray, cache: LSTMSeqCache, params: LSTMParams, out=None):
    """BPTT through lstm_forward to its inputs and weights: (d_xs, grads).

    The gate-local derivatives of all T steps are formed before the loop,
    which then carries only d_h and d_c and writes the pre-activation
    gradient dZ (T, 4H); every weight gradient is one product over dZ,
    written into the arrays of `out` (a dict named as params.arrays()),
    which is then `grads`, or into new arrays when `out` is None: the same
    products either way, so the same bits. Block calls are inference-only:
    their caches raise DimensionError."""
    if cache.xs.ndim != 2:
        raise DimensionError(f"lstm_backward takes (T, D) caches, got inputs {cache.xs.shape}")
    T, H = cache.tcs.shape
    i, f, g, o = cache.gates.reshape(T, 4, H).swapaxes(0, 1)
    tc = cache.tcs
    # dZ[t] = (d_c, d_c, d_c, d_h) * local[t], and d_c takes d_h * o * tanh'(c).
    local = np.empty((T, 4, H))
    local[:, 0] = g * i * (1.0 - i)
    local[:, 1] = cache.cs[:-1] * f * (1.0 - f)
    local[:, 2] = i * (1.0 - g * g)
    local[:, 3] = tc * o * (1.0 - o)
    o_dtanh = o * (1.0 - tc * tc)
    dZ = np.empty((T, 4 * H))
    dZ_gates = dZ.reshape(T, 4, H)
    d_h_next = np.zeros(H)
    d_c_next = np.zeros(H)
    W_h_eff = cache.W_h_eff
    for t in range(T - 1, -1, -1):
        d_h = d_outs[t] + d_h_next
        d_c = d_h * o_dtanh[t] + d_c_next
        np.multiply(local[t, :3], d_c, out=dZ_gates[t, :3])
        np.multiply(local[t, 3], d_h, out=dZ_gates[t, 3])
        d_c_next = d_c * f[t]
        d_h_next = dZ[t] @ W_h_eff
    grads = out if out is not None else empty_like_all(params.arrays())
    np.matmul(dZ.T, cache.xs, out=grads["W_x"])
    np.matmul(dZ.T, cache.hs[:-1], out=grads["W_h"])
    if cache.hh_mask is not None:
        grads["W_h"] *= cache.hh_mask
    dZ.sum(axis=0, out=grads["b"])
    return dZ @ params.W_x, grads


# ---------------------------------------------------------------------------
# Frame stacking and auxiliary-vector append


def stack_and_skip(features: np.ndarray, stacking: int = 2, skip: int = 2) -> np.ndarray:
    """Concatenate `stacking` consecutive frames and keep every `skip`-th
    position. A trailing partial window repeats the last frame."""
    if stacking < 1 or skip < 1:
        raise ContractViolation("stacking and skip must be >= 1")
    T, D = features.shape
    if stacking == 1 and skip == 1:
        return features.copy()
    # The source frame of each (output position, stacked slot).
    src = np.minimum(np.arange(0, T, skip)[:, None] + np.arange(stacking), T - 1)
    return features[src].reshape(src.shape[0], stacking * D)


def append_aux(features: np.ndarray, aux: np.ndarray | None) -> np.ndarray:
    """Append a per-utterance auxiliary (speaker) vector to every frame."""
    if aux is None or aux.size == 0:
        return features
    return np.concatenate([features, np.tile(aux, (features.shape[0], 1))], axis=1)


# ---------------------------------------------------------------------------
# Encoder


@dataclass
class EncoderConfig:
    layers: int = 2
    cells: int = 64
    bidirectional: bool = True
    stacking: int = 2
    skip: int = 2
    lookahead: int = 0  # unidirectional only; the paper's streaming setup uses 5
    aux_dim: int = 0
    input_dim: int = 0  # feature dim before aux append and stacking

    def __post_init__(self):
        if self.bidirectional and self.lookahead != 0:
            raise ContractViolation("lookahead requires a unidirectional encoder")
        if self.stacking < 1:
            raise ContractViolation("stacking must be >= 1")

    @property
    def stacked_dim(self) -> int:
        return (self.input_dim + self.aux_dim) * self.stacking

    @property
    def output_dim(self) -> int:
        return self.cells * (2 if self.bidirectional else 1)


@dataclass
class EncoderLayer:
    fwd: LSTMParams
    bwd: LSTMParams | None = None


@dataclass
class EncoderParams:
    layers: list[EncoderLayer]

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.fwd.arrays().items():
                out[f"layers.{i}.fwd.{name}"] = arr
            if layer.bwd is not None:
                for name, arr in layer.bwd.arrays().items():
                    out[f"layers.{i}.bwd.{name}"] = arr
        return out


def init_encoder_params(config: EncoderConfig, rng: RandomStream) -> EncoderParams:
    layers = []
    in_dim = config.stacked_dim
    for i in range(config.layers):
        fwd = init_lstm_params(in_dim, config.cells, rng.child(i, 0))
        bwd = (
            init_lstm_params(in_dim, config.cells, rng.child(i, 1))
            if config.bidirectional
            else None
        )
        layers.append(EncoderLayer(fwd, bwd))
        in_dim = config.output_dim
    return EncoderParams(layers)


@dataclass
class EncoderCache:
    stacked_T: int
    layer_caches: list


def encode(
    features: np.ndarray,
    config: EncoderConfig,
    params: EncoderParams,
    masks: list | None = None,
    aux: np.ndarray | None = None,
):
    """Embed a feature sequence; returns (h sequence (T', E), cache).

    Bidirectional layers concatenate forward and reverse passes per frame.
    A unidirectional encoder with lookahead L buffers L extra (zero) frames
    and emits the state from L steps ahead, so output t sees inputs <= t+L.
    `masks` is an optional per-layer list of (fwd, bwd) `DropConnect` draws.
    """
    with_aux = append_aux(np.asarray(features, dtype=np.float64), aux)
    expected = config.input_dim + config.aux_dim
    if with_aux.shape[1] != expected:
        raise DimensionError(
            f"encoder expects feature dim {expected} (incl. aux), got {with_aux.shape[1]}"
        )
    x = stack_and_skip(with_aux, config.stacking, config.skip)
    T = x.shape[0]
    if not config.bidirectional and config.lookahead > 0:
        x = np.concatenate([x, np.zeros((config.lookahead, x.shape[1]))], axis=0)

    layer_caches = []
    for i, layer in enumerate(params.layers):
        fwd_mask, bwd_mask = (masks[i] if masks is not None else (None, None))
        fo, _, fcache = lstm_forward(x, layer.fwd, fwd_mask)
        if layer.bwd is not None:
            bo, _, bcache = lstm_forward(x[::-1], layer.bwd, bwd_mask)
            x = np.concatenate([fo, bo[::-1]], axis=1)
        else:
            bcache = None
            x = fo
        layer_caches.append((fcache, bcache))
    if not config.bidirectional and config.lookahead > 0:
        x = x[config.lookahead :]
    return x, EncoderCache(T, layer_caches)


def encode_backward(
    d_h: np.ndarray,
    config: EncoderConfig,
    params: EncoderParams,
    cache: EncoderCache,
    out=None,
):
    """Backward through encode to the parameters; returns their gradients,
    in the arrays of `out` (named as params.arrays()) or in new arrays in a
    new dict: layers from the top, a layer's reverse direction before its
    forward one. No gradient reaches the features, which nothing learns."""
    d_x = d_h
    if not config.bidirectional and config.lookahead > 0:
        d_x = np.zeros((cache.stacked_T + config.lookahead, d_h.shape[1]))
        d_x[config.lookahead :] = d_h
    grads = {} if out is None else out
    H = config.cells
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        fcache, bcache = cache.layer_caches[i]
        fwd_out = sub_grads(out, f"layers.{i}.fwd.")
        if layer.bwd is not None:
            d_fo = d_x[:, :H]
            d_bo = d_x[:, H:][::-1]
            d_in_f, gf = lstm_backward(d_fo, fcache, layer.fwd, fwd_out)
            bwd_out = sub_grads(out, f"layers.{i}.bwd.")
            d_in_b, gb = lstm_backward(d_bo, bcache, layer.bwd, bwd_out)
            d_x = d_in_f + d_in_b[::-1]
            grads.update((f"layers.{i}.bwd.{name}", arr) for name, arr in gb.items())
        else:
            d_x, gf = lstm_backward(d_x, fcache, layer.fwd, fwd_out)
        grads.update((f"layers.{i}.fwd.{name}", arr) for name, arr in gf.items())
    return grads


# ---------------------------------------------------------------------------
# Label network: the prediction network and the character LMs


@dataclass
class LabelNetParams:
    """An embedding plus LSTM layers over the label ids 0..num_labels-1 and
    the begin symbol `bos` = num_labels, whose step starts every sequence.
    The prediction network has no head. A character LM has the output head
    (W_out (V, H), b_out (V,)) over the labels, `bos` and the end marker
    `eos` = num_labels + 1, and one embedding row per output id, V in all."""

    embedding: np.ndarray  # (num_labels + 1, E); (V, E) with a head
    layers: list[LSTMParams]
    head: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def num_labels(self) -> int:
        return self.embedding.shape[0] - (1 if self.head is None else 2)

    @property
    def bos(self) -> int:
        return self.num_labels

    @property
    def eos(self) -> int:
        return self.num_labels + 1

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding}
        if self.head is not None:
            out["W_out"], out["b_out"] = self.head
        for i, layer in enumerate(self.layers):
            for name, arr in layer.arrays().items():
                out[f"layers.{i}.{name}"] = arr
        return out


def _label_forward(symbols, params: LabelNetParams, states=None, hh_masks=None):
    """Embed `symbols` and run them through the layers, each from its entry
    of `states` (zero states when None) under its entry of `hh_masks`.
    Returns (top-layer outputs (n, H), per-layer final (h, c) tuple,
    per-layer caches). Symbols of shape (n, B) run B label rows as one block
    (`lstm_forward`). Labels index the embedding unchecked: callers check
    the vocabulary."""
    xs = params.embedding.take(symbols, axis=0)
    final_states, caches = [], []
    for i, layer in enumerate(params.layers):
        mask = hh_masks[i] if hh_masks is not None else None
        xs, state, cache = lstm_forward(xs, layer, mask, states[i] if states is not None else None)
        final_states.append(state)
        caches.append(cache)
    return xs, tuple(final_states), caches


def _label_backward(d_xs, symbols, caches, params: LabelNetParams, out=None):
    """Backward through _label_forward from the top-layer output gradients.
    Returns the layer and embedding gradients, named as in params.arrays():
    the arrays of `out` under those names, written in place (its other
    entries, such as an LM head's, are left alone), or new arrays in a new
    dict, layers from the top, then the embedding."""
    grads = {} if out is None else out
    for i in reversed(range(len(params.layers))):
        d_xs, layer_grads = lstm_backward(
            d_xs, caches[i], params.layers[i], sub_grads(out, f"layers.{i}.")
        )
        grads.update((f"layers.{i}.{name}", arr) for name, arr in layer_grads.items())
    if out is None:
        grads["embedding"] = np.zeros_like(params.embedding)
    else:
        grads["embedding"].fill(0.0)
    np.add.at(grads["embedding"], np.asarray(symbols, dtype=int), d_xs)
    return grads


@dataclass
class PredictionConfig:
    cells: int = 48
    embed_dim: int = 16


def init_prediction_params(
    num_labels: int, config: PredictionConfig, rng: RandomStream
) -> LabelNetParams:
    """One LSTM layer over the labels and the begin row, no head."""
    lim = 1.0 / np.sqrt(config.embed_dim)
    return LabelNetParams(
        embedding=rng.child(0).uniform(-lim, lim, size=(num_labels + 1, config.embed_dim)),
        layers=[init_lstm_params(config.embed_dim, config.cells, rng.child(1))],
    )


def predict_embed(prefix, params: LabelNetParams, hh_masks=None):
    """Label-prefix embeddings for every lattice row: |prefix|+1 vectors.

    Row u is the top-layer output after the begin symbol and the first u
    labels; row 0 is the begin step's. `hh_masks` holds one `DropConnect`
    draw per layer. Returns (G, caches).
    """
    for lab in prefix:
        if not 0 <= lab < params.num_labels:
            raise ContractViolation(f"label {lab} outside vocabulary of {params.num_labels}")
    G, _, caches = _label_forward([params.bos, *prefix], params, hh_masks=hh_masks)
    return G, caches


def predict_backward(d_G: np.ndarray, prefix, cache, params: LabelNetParams, out=None):
    """Backward through predict_embed, every row of d_G included. Returns a
    grads dict matching params.arrays(), `out` when given (`_label_backward`)."""
    return _label_backward(d_G, [params.bos, *prefix], cache, params, out)


# ---------------------------------------------------------------------------
# Character language model


@dataclass
class CharLMConfig:
    layers: int = 1
    cells: int = 64
    embed_dim: int = 16


def init_char_lm_params(
    num_labels: int, config: CharLMConfig, rng: RandomStream
) -> LabelNetParams:
    V = num_labels + 2
    lim_e = 1.0 / np.sqrt(config.embed_dim)
    lim_o = 1.0 / np.sqrt(config.cells)
    layers = []
    in_dim = config.embed_dim
    for i in range(config.layers):
        layers.append(init_lstm_params(in_dim, config.cells, rng.child(10 + i)))
        in_dim = config.cells
    return LabelNetParams(
        embedding=rng.child(0).uniform(-lim_e, lim_e, size=(V, config.embed_dim)),
        layers=layers,
        head=(rng.child(1).uniform(-lim_o, lim_o, size=(V, config.cells)), np.zeros(V)),
    )


def lm_score(sequence, params: LabelNetParams, table: PrefixStates | None = None) -> float:
    """Total log-probability of a label sequence including the end marker.

    It comes from the columns of `table`, the LM's `PrefixStates`, which
    steps only the prefixes it lacks and runs the head once per row: the
    sequence row's cumulative prefix score plus its end-of-sequence
    log-probability, summed left to right as the stepwise oracle sums, so it
    equals the oracle bit for bit whatever the table holds. A caller that
    scores many sequences of one LM passes one table to all of them;
    without one, a fresh table is used."""
    if table is None:
        table = PrefixStates(params)
    elif table.params is not params:
        raise ContractViolation("lm_score: the prefix table belongs to another LM")
    sequence = tuple(sequence)
    row = table.index.get(sequence)
    if row is None:
        row = int(table.rows([sequence])[0])
    logprobs, scores = table.columns()
    return float(scores[row] + logprobs[row, params.eos])


def lm_loss_and_grads(sequence, params: LabelNetParams, out=None):
    """NLL of one sequence and gradients for every LM parameter: the output
    head over the label network's sequence forward and backward, which are
    the prediction network's (`predict_embed`, `predict_backward`). With
    `out`, a gradient dict of an earlier call, the gradients are written
    into its arrays and `out` is returned; the bits are the same."""
    hs, caches = predict_embed(sequence, params)
    W_out, b_out = params.head
    logprobs = log_softmax(hs @ W_out.T + b_out)
    rows, targets = np.arange(len(hs)), [*sequence, params.eos]
    nll = -float(logprobs[rows, targets].sum())
    d_lp = np.zeros_like(logprobs)
    d_lp[rows, targets] = -1.0
    d_logits = log_softmax_backward(d_lp, logprobs)
    grads = {"W_out": np.empty_like(W_out), "b_out": np.empty_like(b_out)} if out is None else out
    np.matmul(d_logits.T, hs, out=grads["W_out"])
    d_logits.sum(axis=0, out=grads["b_out"])
    grads.update(predict_backward(d_logits @ W_out, sequence, caches, params, out))
    return nll, grads


@dataclass(frozen=True)
class LMState:
    """Immutable LM snapshot: per-layer (h, c) plus the next-symbol
    log-probability distribution."""

    states: tuple
    logprobs: np.ndarray


def _lm_step(symbol: int, states, params: LabelNetParams) -> LMState:
    """One label-network step from `states` (zeros when None), then the
    output head on its single output vector."""
    hs, states, _ = _label_forward([symbol], params, states)
    W_out, b_out = params.head
    return LMState(states=states, logprobs=log_softmax(W_out @ hs[0] + b_out))


def lm_init_state(params: LabelNetParams) -> LMState:
    return _lm_step(params.bos, None, params)


def lm_score_next(state: LMState, symbol: int, params: LabelNetParams):
    """Incremental scoring: log p(symbol | history) and the advanced state."""
    if not 0 <= symbol < params.num_labels:
        raise ContractViolation(f"symbol {symbol} outside LM vocabulary")
    inc = float(state.logprobs[symbol])
    return inc, _lm_step(symbol, state.states, params)


def lm_end_increment(state: LMState, params: LabelNetParams) -> float:
    """log p(end-of-sequence | history)."""
    return float(state.logprobs[params.eos])


# ---------------------------------------------------------------------------
# Label-prefix states


class PrefixStates:
    """Label-network states of a growing set of label prefixes: per layer,
    the LSTM (h, c) row of each prefix, keyed by prefix in `index`, with
    each row's parent row in `parents` and last label in `labels`. Row 0,
    the empty prefix (parent and label -1), is the state after the begin
    symbol, stepped from the zero state when the table is made. Rows are
    never rewritten; storage grows by doubling. New prefixes are stepped
    from their parents' rows, one `_label_forward` block per depth below the
    nearest ancestor with a row, in first-seen order, so on a fresh table
    `rows(sequences)` lays out their prefix trie in depth order
    (`prefix_trie`). A block step equals one-row steps bit for bit, so no
    row depends on when or with what it was added.

    So one table serves every utterance that a fixed network scores, and
    each utterance steps only the prefixes that no earlier one needed:
    - decoding: one table per model for the stage, shared by dev and test
      (the decoders' `start` state);
    - cross-scoring: one per model per split (`stage_combination`), shared
      by the split's n-best unions;
    - LMs: one per LM per `attach_lm_components` call, that is per n-best
      file, since LM tables shared by all of `stage_decode` raised the
      `decode` benchmark's peak RSS by up to 5.6 %.
    A table holds the states of the parameters it was made with, so it
    lives only as long as the call that made it; nothing caches one.

    The table of an LM (a network with a head) has two columns more, each
    row's next-symbol log-probabilities and cumulative prefix score
    (`columns`), computed for the rows added since the last read as one
    block."""

    def __init__(self, params: LabelNetParams):
        self.params = params
        self.index = {(): 0}
        self.parents = [-1]
        self.labels = [-1]
        self._states = [np.zeros((2, 1, layer.hidden)) for layer in params.layers]  # (h, c) rows
        self._step([0], [params.bos], 0)
        if params.head is not None:
            self._logprobs = np.empty((1, params.eos + 1))
            self._scores = [0.0]  # the root's
            self._filled = 0  # rows whose columns are filled

    @property
    def outputs(self) -> np.ndarray:
        """The top-layer h of every row (n, H): the prediction network's
        output, or the LM row that predicts the next symbol."""
        return self._states[-1][0, : len(self.parents)]

    def columns(self) -> tuple[np.ndarray, list[float]]:
        """LM tables: (logprobs, scores) of every row. logprobs (n, V) holds
        the next-symbol log-probabilities, log_softmax(W_out @ h + b_out); the
        head is a stacked per-row product, so each row equals the stepwise
        `LMState.logprobs` of its prefix bit for bit. scores[r] is the
        cumulative log-probability of row r's prefix: its parent's score
        plus the parent's log-probability of its label, 0.0 at the root,
        summed left to right as the stepwise oracle sums. The rows added
        since the last call are filled as one block; the logprobs storage
        grows with the states'."""
        n, done = len(self.parents), self._filled
        if n > done:
            if self._logprobs.shape[0] < n:
                grown = np.empty((self._states[0].shape[1], self._logprobs.shape[1]))
                grown[:done] = self._logprobs[:done]
                self._logprobs = grown
            W_out, b_out = self.params.head
            R = self.outputs[done:n]
            self._logprobs[done:n] = log_softmax(np.matmul(W_out, R[..., None])[..., 0] + b_out)
            start = len(self._scores)
            up = self.parents[start:n]
            increments = self._logprobs[up, self.labels[start:n]].tolist()
            for parent, increment in zip(up, increments):
                self._scores.append(self._scores[parent] + increment)
            self._filled = n
        return self._logprobs[:n], self._scores

    def rows(self, prefixes) -> np.ndarray:
        """The row of each label tuple of `prefixes`, in order, adding every
        missing prefix and ancestor. A new label out of the vocabulary raises
        ContractViolation before any row is added."""
        self.add(_new_prefixes(prefixes, self.index))
        return np.array([self.index[prefix] for prefix in prefixes], dtype=np.intp)

    def add(self, blocks):
        """Give rows to `blocks` of new prefixes, in order, one block step
        each: every prefix's parent has a row or is in an earlier block, as
        in the blocks of `rows` and of a `PrefixTrie`. A new label out of
        the vocabulary raises ContractViolation before any row is added."""
        index = self.index
        vocab = self.params.num_labels
        for prefix in itertools.chain.from_iterable(blocks):
            if not 0 <= prefix[-1] < vocab:
                raise ContractViolation(f"label {prefix[-1]} outside vocabulary of {vocab}")
        size, capacity = len(self.parents), self._states[0].shape[1]
        added = sum(map(len, blocks))
        if size + added > capacity:
            for i, s in enumerate(self._states):
                self._states[i] = np.empty((2, max(size + added, 2 * capacity), s.shape[2]))
                self._states[i][:, :size] = s[:, :size]
        for block in blocks:
            start = len(self.parents)
            up, labels = [index[prefix[:-1]] for prefix in block], [prefix[-1] for prefix in block]
            self._step(up, labels, start)
            index.update(zip(block, range(start, start + len(block))))
            self.parents += up
            self.labels += labels

    def _step(self, up, labels, start):
        """Step rows `up` by `labels` as one block into the rows from `start`."""
        states = [(s[0, up], s[1, up]) for s in self._states]
        _, final, _ = _label_forward([labels], self.params, states)
        for s, (h, c) in zip(self._states, final):
            s[0, start : start + len(labels)] = h
            s[1, start : start + len(labels)] = c


def _new_prefixes(prefixes, index) -> list[list[tuple]]:
    """The prefixes of `prefixes`, ancestors included, that `index` lacks,
    as blocks by depth below their nearest ancestor in `index` (which must
    hold the empty prefix), each block in first-seen order. Every prefix's
    parent is in `index` or in an earlier block."""
    new: dict[tuple, int] = {}  # new prefix -> its depth
    for prefix in prefixes:
        u, stem = len(prefix), prefix
        while stem not in index and stem not in new:
            u -= 1
            stem = prefix[:u]
        depth = new.get(stem, 0)
        for d in range(u + 1, len(prefix) + 1):
            depth += 1
            new[prefix[:d]] = depth
    blocks: dict[int, list] = {}  # a depth first appears after its parent's
    for prefix, depth in new.items():
        blocks.setdefault(depth, []).append(prefix)
    return list(blocks.values())


class PrefixTrie(NamedTuple):
    """The prefix trie of a set of label sequences, laid out as a fresh
    `PrefixStates` table lays out its rows: node 0 is the empty prefix
    (parent and label -1), then each depth's new prefixes in first-seen
    order, so no node is deeper than a later one. `blocks` holds the
    prefixes of each depth; node n > 0 extends node `parents[n]` by
    `labels[n]`; `ends[i]` is the node of sequence i. A fresh table that
    adds the blocks (`PrefixStates.add`) gives node n row n."""

    blocks: list
    parents: list
    labels: list
    ends: list

    @property
    def prefixes(self) -> list:
        """The label prefix of each node."""
        return [(), *itertools.chain.from_iterable(self.blocks)]


def prefix_trie(sequences) -> PrefixTrie:
    """The `PrefixTrie` of `sequences` (label tuples), by the walk that
    finds a table's new prefixes. Labels are not checked: the table that
    gives the nodes rows checks its vocabulary."""
    sequences = list(sequences)
    blocks = _new_prefixes(sequences, {(): 0})
    prefixes = [(), *itertools.chain.from_iterable(blocks)]
    node = {prefix: n for n, prefix in enumerate(prefixes)}
    parents = [-1] + [node[prefix[:-1]] for prefix in prefixes[1:]]
    labels = [-1] + [prefix[-1] for prefix in prefixes[1:]]
    return PrefixTrie(blocks, parents, labels, [node[seq] for seq in sequences])


# ---------------------------------------------------------------------------
# DropConnect


def sample_dropconnect_mask(shape, rate: float, rng: RandomStream) -> np.ndarray:
    """Inverted-scaling DropConnect mask: entries are 0 with probability
    `rate`, else 1/(1-rate), so evaluation can use unmasked weights."""
    if not 0.0 <= rate <= 1.0:
        raise ContractViolation(f"DropConnect rate {rate} outside [0, 1]")
    if rate == 0.0:
        return np.ones(shape)
    if rate == 1.0:
        return np.zeros(shape)
    keep = rng.random(shape)
    np.greater_equal(keep, rate, out=keep)  # 1.0 where kept, in place
    keep /= 1.0 - rate
    return keep


class DropConnect(NamedTuple):
    """One DropConnect draw of an LSTM's hidden-to-hidden matrix: the mask
    and the masked matrix W_h * mask, formed once for every pass that shares
    the draw (the training loop's minibatch), not once per pass."""

    mask: np.ndarray
    W_h: np.ndarray


def drop_connect(params: LSTMParams, mask: np.ndarray) -> DropConnect:
    """The draw of `mask` on the hidden-to-hidden matrix of `params`."""
    if mask.shape != params.W_h.shape:
        raise DimensionError("hh_mask shape must match the hidden-to-hidden matrix")
    return DropConnect(mask, params.W_h * mask)
