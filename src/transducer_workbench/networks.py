"""LSTM building blocks: encoder stacks, the prediction network, and the
character-level language models used for fusion.

`lstm_forward` is the one LSTM recursion (a decoder step is a one-row call)
and `lstm_backward` its BPTT. The forward takes one tanh per step over the
stacked gate pre-activations (sigmoid(x) = (1 + tanh(x / 2)) / 2) and keeps
the per-row product W_x @ x + W_h @ h + b, so a T-row call equals T chained
one-row calls bit for bit. It caches arrays over all steps; the backward
forms the gate-local derivatives of every step at once, runs only the
d_h/d_c recursion step by step, and builds each weight gradient as one
product over the whole sequence. The prediction network (one layer) and both
character LMs (N layers) are one label network, embedding + LSTM layers, with
one forward `_label_forward` and one backward `_label_backward`; the LMs add
only their output head.

Each forward pass has a closed-form backward implemented alongside it; every
backward in this module is checked against central finite differences in the
test suite. The hidden-to-hidden matrix of each LSTM is the DropConnect
target: when a mask is supplied, the matrix is replaced elementwise by
matrix * mask for the whole pass, and gradients are chained through the mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError
from .numerics import RandomStream, log_softmax, log_softmax_backward


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


def zero_state(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(hidden), np.zeros(hidden)


@functools.cache
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (scale, offset) over the stacked (i, f, g, o)
    pre-activation: 0.5 and 0.5 on the sigmoid gates, 1 and 0 on the cell
    candidate g, so that tanh(z * scale) * scale + offset is sigmoid on
    i/f/o and tanh on g. Cached per width: decoder steps are one-row calls."""
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
    (i, f, g, o) order, and tanh of each new cell state tcs (T, H)."""

    xs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    gates: np.ndarray
    tcs: np.ndarray
    W_h_eff: np.ndarray
    hh_mask: np.ndarray | None


def lstm_forward(xs: np.ndarray, params: LSTMParams, hh_mask=None, state=None):
    """Run the rows of xs (T, D) from `state` (zeros when None); returns
    (outputs (T, H), final (h, c), cache). hh_mask, when present, replaces
    the hidden-to-hidden matrix by W_h * mask for the whole call.

    The gates take one tanh per step over the stacked 4H pre-activation,
    using sigmoid(x) = (1 + tanh(x / 2)) / 2; the halving is exact, and tanh
    saturates to +-1 without overflow. The pre-activation is a per-row
    product W_x @ x + W_h @ h + b on purpose: one (T, D) @ (D, 4H) product
    for the whole input would round differently from one-row products, and
    a T-row call must equal T chained one-row calls (decoder steps) bit for
    bit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != params.input_dim:
        raise DimensionError(f"LSTM expects rows of dim {params.input_dim}, got {xs.shape}")
    if hh_mask is not None and hh_mask.shape != params.W_h.shape:
        raise DimensionError("hh_mask shape must match the hidden-to-hidden matrix")
    W_h_eff = params.W_h if hh_mask is None else params.W_h * hh_mask
    T, H = xs.shape[0], params.hidden
    scale, offset = _gate_affine(H)
    hs = np.empty((T + 1, H))
    cs = np.empty((T + 1, H))
    gates = np.empty((T, 4 * H))
    tcs = np.empty((T, H))
    hs[0], cs[0] = (0.0, 0.0) if state is None else state
    for t in range(T):
        z = params.W_x @ xs[t] + W_h_eff @ hs[t] + params.b
        act = gates[t]
        np.tanh(z * scale, out=act)
        act *= scale
        act += offset
        c = cs[t + 1]
        np.multiply(act[H : 2 * H], cs[t], out=c)
        c += act[:H] * act[2 * H : 3 * H]
        np.tanh(c, out=tcs[t])
        np.multiply(act[3 * H :], tcs[t], out=hs[t + 1])
    cache = LSTMSeqCache(xs, hs, cs, gates, tcs, W_h_eff, hh_mask)
    return hs[1:], (hs[T], cs[T]), cache


def lstm_backward(d_outs: np.ndarray, cache: LSTMSeqCache, params: LSTMParams):
    """BPTT through lstm_forward. Returns (d_xs, grads, d_h0, d_c0).

    The gate-local derivatives of all T steps are formed before the loop,
    which then carries only d_h and d_c and writes the pre-activation
    gradient dZ (T, 4H); every weight gradient is one product over dZ."""
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
    gW_h = dZ.T @ cache.hs[:-1]
    if cache.hh_mask is not None:
        gW_h *= cache.hh_mask
    grads = {"W_x": dZ.T @ cache.xs, "W_h": gW_h, "b": dZ.sum(axis=0)}
    return dZ @ params.W_x, grads, d_h_next, d_c_next


# ---------------------------------------------------------------------------
# Frame stacking and auxiliary-vector append


def _stack_sources(T: int, stacking: int, skip: int) -> np.ndarray:
    """Source frame of each (output position, stacked slot): (T_out, stacking)."""
    starts = np.arange(0, T, skip)[:, None]
    return np.minimum(starts + np.arange(stacking), T - 1)


def stack_and_skip(features: np.ndarray, stacking: int = 2, skip: int = 2) -> np.ndarray:
    """Concatenate `stacking` consecutive frames and keep every `skip`-th
    position. A trailing partial window repeats the last frame."""
    if stacking < 1 or skip < 1:
        raise ContractViolation("stacking and skip must be >= 1")
    T, D = features.shape
    if stacking == 1 and skip == 1:
        return features.copy()
    src = _stack_sources(T, stacking, skip)
    return features[src].reshape(src.shape[0], stacking * D)


def stack_and_skip_backward(d_out: np.ndarray, T: int, D: int, stacking: int = 2, skip: int = 2):
    if stacking == 1 and skip == 1:
        return d_out.copy()
    d_features = np.zeros((T, D))
    # add.at accumulates in index order: output position, then stacked slot.
    np.add.at(d_features, _stack_sources(T, stacking, skip).ravel(), d_out.reshape(-1, D))
    return d_features


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
    raw_T: int
    raw_D: int
    layer_inputs: list
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
    `masks` is an optional per-layer list of (fwd_mask, bwd_mask) pairs.
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

    layer_inputs = []
    layer_caches = []
    for i, layer in enumerate(params.layers):
        fwd_mask, bwd_mask = (masks[i] if masks is not None else (None, None))
        layer_inputs.append(x)
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
    cache = EncoderCache(T, features.shape[0], with_aux.shape[1], layer_inputs, layer_caches)
    return x, cache


def encode_backward(
    d_h: np.ndarray,
    config: EncoderConfig,
    params: EncoderParams,
    cache: EncoderCache,
):
    """Backward through encode. Returns (grads, d_features_with_aux)."""
    if not config.bidirectional and config.lookahead > 0:
        padded = np.zeros((cache.stacked_T + config.lookahead, d_h.shape[1]))
        padded[config.lookahead :] = d_h
        d_x = padded
    else:
        d_x = d_h
    grads: dict[str, np.ndarray] = {}
    H = config.cells
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        fcache, bcache = cache.layer_caches[i]
        if layer.bwd is not None:
            d_fo = d_x[:, :H]
            d_bo = d_x[:, H:][::-1]
            d_in_f, gf, _, _ = lstm_backward(d_fo, fcache, layer.fwd)
            d_in_b, gb, _, _ = lstm_backward(d_bo, bcache, layer.bwd)
            d_x = d_in_f + d_in_b[::-1]
            for name, arr in gb.items():
                grads[f"layers.{i}.bwd.{name}"] = arr
        else:
            d_x, gf, _, _ = lstm_backward(d_x, fcache, layer.fwd)
        for name, arr in gf.items():
            grads[f"layers.{i}.fwd.{name}"] = arr
    # Rows past stacked_T belong to the zero lookahead frames, not to features.
    d_features = stack_and_skip_backward(
        d_x[: cache.stacked_T], cache.raw_T, cache.raw_D, config.stacking, config.skip
    )
    return grads, d_features


# ---------------------------------------------------------------------------
# Label network (embedding + LSTM layers) and the prediction network


def _label_forward(symbols, embedding, layers, states=None, hh_masks=None):
    """Embed `symbols` and run them through `layers`, each from its entry of
    `states` (zero states when None) under its entry of `hh_masks`. Returns
    (top-layer outputs (n, H), per-layer final (h, c) tuple, per-layer caches)."""
    xs = embedding[np.asarray(symbols, dtype=int)]
    final_states, caches = [], []
    for i, layer in enumerate(layers):
        mask = hh_masks[i] if hh_masks is not None else None
        xs, state, cache = lstm_forward(xs, layer, mask, states[i] if states is not None else None)
        final_states.append(state)
        caches.append(cache)
    return xs, tuple(final_states), caches


def _label_backward(d_xs, symbols, caches, embedding, layers):
    """Backward through _label_forward from the top-layer output gradients.
    Returns (embedding gradient, per-layer LSTM gradient dicts)."""
    layer_grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        d_xs, layer_grads[i], _, _ = lstm_backward(d_xs, caches[i], layers[i])
    g_embedding = np.zeros_like(embedding)
    np.add.at(g_embedding, np.asarray(symbols, dtype=int), d_xs)
    return g_embedding, layer_grads


@dataclass
class PredictionConfig:
    cells: int = 48
    embed_dim: int = 16


@dataclass
class PredictionParams:
    embedding: np.ndarray  # (|Y|, embed_dim)
    lstm: LSTMParams

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding}
        for name, arr in self.lstm.arrays().items():
            out[f"lstm.{name}"] = arr
        return out

    @property
    def vocab(self) -> int:
        return self.embedding.shape[0]


def init_prediction_params(
    vocab: int, config: PredictionConfig, rng: RandomStream
) -> PredictionParams:
    lim = 1.0 / np.sqrt(config.embed_dim)
    return PredictionParams(
        embedding=rng.child(0).uniform(-lim, lim, size=(vocab, config.embed_dim)),
        lstm=init_lstm_params(config.embed_dim, config.cells, rng.child(1)),
    )


def predict_embed(prefix, params: PredictionParams, hh_mask=None):
    """Label-prefix embeddings for every lattice row: |prefix|+1 vectors.

    Row 0 is the all-zero vector; row u is the LSTM output after consuming
    the first u labels from the zero state. Returns (G, cache).
    """
    for lab in prefix:
        if not 0 <= lab < params.vocab:
            raise ContractViolation(f"label {lab} outside vocabulary of {params.vocab}")
    outs, _, caches = _label_forward(prefix, params.embedding, [params.lstm], hh_masks=[hh_mask])
    G = np.zeros((len(prefix) + 1, params.lstm.hidden))
    G[1:] = outs
    return G, caches


def predict_backward(d_G: np.ndarray, prefix, cache, params: PredictionParams):
    """Backward through predict_embed; row 0 of d_G is ignored (g0 is
    constant zero). Returns a grads dict matching params.arrays()."""
    g_embedding, (lstm_grads,) = _label_backward(
        d_G[1:], prefix, cache, params.embedding, [params.lstm]
    )
    return {"embedding": g_embedding, **{f"lstm.{k}": v for k, v in lstm_grads.items()}}


@dataclass(frozen=True)
class PredictionState:
    """Immutable snapshot of the prediction network at one prefix length.

    `g` is the lattice-row embedding for the current prefix; extending never
    mutates the parent state, so beam branches can share snapshots."""

    h: np.ndarray
    c: np.ndarray
    g: np.ndarray


def init_prediction_state(params: PredictionParams) -> PredictionState:
    H = params.lstm.hidden
    return PredictionState(h=np.zeros(H), c=np.zeros(H), g=np.zeros(H))


def advance_prediction_state(
    state: PredictionState, label: int, params: PredictionParams
) -> PredictionState:
    if not 0 <= label < params.vocab:
        raise ContractViolation(f"label {label} outside vocabulary of {params.vocab}")
    _, ((h, c),), _ = _label_forward(
        [label], params.embedding, [params.lstm], [(state.h, state.c)]
    )
    return PredictionState(h=h, c=c, g=h)


# ---------------------------------------------------------------------------
# Character language model


@dataclass
class CharLMConfig:
    layers: int = 1
    cells: int = 64
    embed_dim: int = 16


@dataclass
class CharLMParams:
    """LM over Y plus sentence-begin/end markers (ids |Y| and |Y|+1)."""

    embedding: np.ndarray  # (V, embed_dim), V = |Y| + 2
    layers: list[LSTMParams]
    W_out: np.ndarray  # (V, H)
    b_out: np.ndarray  # (V,)

    @property
    def vocab(self) -> int:
        return self.embedding.shape[0]

    @property
    def num_labels(self) -> int:
        return self.vocab - 2

    @property
    def bos(self) -> int:
        return self.vocab - 2

    @property
    def eos(self) -> int:
        return self.vocab - 1

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding, "W_out": self.W_out, "b_out": self.b_out}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.arrays().items():
                out[f"layers.{i}.{name}"] = arr
        return out


def init_char_lm_params(num_labels: int, config: CharLMConfig, rng: RandomStream) -> CharLMParams:
    V = num_labels + 2
    lim_e = 1.0 / np.sqrt(config.embed_dim)
    lim_o = 1.0 / np.sqrt(config.cells)
    layers = []
    in_dim = config.embed_dim
    for i in range(config.layers):
        layers.append(init_lstm_params(in_dim, config.cells, rng.child(10 + i)))
        in_dim = config.cells
    return CharLMParams(
        embedding=rng.child(0).uniform(-lim_e, lim_e, size=(V, config.embed_dim)),
        layers=layers,
        W_out=rng.child(1).uniform(-lim_o, lim_o, size=(V, config.cells)),
        b_out=np.zeros(V),
    )


def _lm_forward(inputs, params: CharLMParams):
    """The label network over a whole input sequence, then the output head."""
    hs, _, caches = _label_forward(inputs, params.embedding, params.layers)
    return hs, log_softmax(hs @ params.W_out.T + params.b_out), caches


def lm_score(sequence, params: CharLMParams):
    """Total log-probability of a label sequence including the end marker,
    plus the per-symbol increments (length |sequence|+1)."""
    for lab in sequence:
        if not 0 <= lab < params.num_labels:
            raise ContractViolation(f"symbol {lab} outside LM vocabulary")
    inputs = [params.bos] + list(sequence)
    targets = list(sequence) + [params.eos]
    _, logprobs, _ = _lm_forward(inputs, params)
    increments = logprobs[np.arange(len(targets)), targets]
    return float(increments.sum()), increments


def lm_loss_and_grads(sequence, params: CharLMParams):
    """NLL of one sequence and gradients for every LM parameter."""
    inputs = [params.bos] + list(sequence)
    targets = np.asarray(list(sequence) + [params.eos], dtype=int)
    hs, logprobs, caches = _lm_forward(inputs, params)
    nll = -float(logprobs[np.arange(len(targets)), targets].sum())
    d_lp = np.zeros_like(logprobs)
    d_lp[np.arange(len(targets)), targets] = -1.0
    d_logits = log_softmax_backward(d_lp, logprobs)
    grads = {"W_out": d_logits.T @ hs, "b_out": d_logits.sum(axis=0)}
    g_embedding, layer_grads = _label_backward(
        d_logits @ params.W_out, inputs, caches, params.embedding, params.layers
    )
    for i in reversed(range(len(layer_grads))):
        grads.update((f"layers.{i}.{name}", arr) for name, arr in layer_grads[i].items())
    grads["embedding"] = g_embedding
    return nll, grads


@dataclass(frozen=True)
class LMState:
    """Immutable LM snapshot: per-layer (h, c) plus the next-symbol
    log-probability distribution."""

    states: tuple
    logprobs: np.ndarray


def _lm_step(symbol: int, states, params: CharLMParams) -> LMState:
    """One label-network step from `states` (zeros when None), then the
    output head on its single output vector."""
    hs, states, _ = _label_forward([symbol], params.embedding, params.layers, states)
    return LMState(states=states, logprobs=log_softmax(params.W_out @ hs[0] + params.b_out))


def lm_init_state(params: CharLMParams) -> LMState:
    return _lm_step(params.bos, None, params)


def lm_score_next(state: LMState, symbol: int, params: CharLMParams):
    """Incremental scoring: log p(symbol | history) and the advanced state."""
    if not 0 <= symbol < params.num_labels:
        raise ContractViolation(f"symbol {symbol} outside LM vocabulary")
    inc = float(state.logprobs[symbol])
    return inc, _lm_step(symbol, state.states, params)


def lm_end_increment(state: LMState, params: CharLMParams) -> float:
    """log p(end-of-sequence | history)."""
    return float(state.logprobs[params.eos])


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
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)
