"""Shared test fixtures: a history-independent lattice-backed model and an
independent path-mass oracle for it, and loop references for the vectorised
network kernels (frame stacking, the LSTM forward and its BPTT)."""

import numpy as np

from transducer_workbench.lattice import BLANK_ID
from transducer_workbench.numerics import NEG_INF, log_softmax, log_sum_exp


class FixedLatticeModel:
    """Decoder model whose joint depends only on (t, u).

    Backed by a (T, Umax+1, K) log-probability array; the prediction state
    is just the emitted-label count, clamped to the last stored row. Because
    the output distribution ignores label identity, exact path-mass dynamic
    programming over the (t, u) grid is valid for this model, which makes it
    the reference against which search results can be audited.
    """

    def __init__(self, logprob: np.ndarray):
        self.lattice = np.asarray(logprob, dtype=np.float64)
        self.T, self.u_rows, self.K = self.lattice.shape

    @property
    def num_labels(self) -> int:
        return self.K - 1

    def encode_features(self, features, aux=None):
        return np.arange(self.T)

    def init_decode_state(self):
        return 0

    def extend_decode_state(self, state, label):
        return state + 1

    def joint_log_probs(self, h_vec, state):
        return self.lattice[int(h_vec), min(int(state), self.u_rows - 1)]

    def logprob_lattice(self, H, labels):
        U = len(labels)
        rows = np.minimum(np.arange(U + 1), self.u_rows - 1)
        return self.lattice[:, rows, :]


def random_fixed_model(T, u_rows, K, rng) -> FixedLatticeModel:
    return FixedLatticeModel(log_softmax(rng.normal(0, 2, size=(T, u_rows, K))))


def blank_dominant_model(T, u_rows, K) -> FixedLatticeModel:
    logits = np.zeros((T, u_rows, K))
    logits[:, :, BLANK_ID] = 5.0
    return FixedLatticeModel(log_softmax(logits))


def total_mass_over_lengths(model: FixedLatticeModel, max_symbols: int) -> float:
    """log sum over all label sequences with |y| <= max_symbols of p(y|x),
    by label-marginalized path-mass DP (valid because the model's output
    distribution is history independent)."""
    T = model.T
    lat = model.lattice

    def row(u):
        return min(u, model.u_rows - 1)

    label_mass = np.array(
        [
            [log_sum_exp(lat[t, row(u), 1:]) for u in range(max_symbols + 1)]
            for t in range(T)
        ]
    )
    m = np.full((T + 1, max_symbols + 1), NEG_INF)
    m[0, 0] = 0.0
    for t in range(T + 1):
        for u in range(max_symbols + 1):
            if t == 0 and u == 0:
                continue
            parts = []
            if t >= 1:
                parts.append(m[t - 1, u] + lat[t - 1, row(u), BLANK_ID])
            if u >= 1:
                parts.append(m[t, u - 1] + label_mass[min(t, T - 1), u - 1])
            m[t, u] = log_sum_exp(parts)
    return log_sum_exp(m[T, :])


# ---------------------------------------------------------------------------
# Loop references for the vectorised network kernels


def stack_and_skip_loop(features, stacking, skip):
    """Frame stacking as an explicit loop over output positions and slots."""
    T, D = features.shape
    T_out = (T + skip - 1) // skip
    out = np.zeros((T_out, stacking * D))
    for j in range(T_out):
        for r in range(stacking):
            out[j, r * D : (r + 1) * D] = features[min(j * skip + r, T - 1)]
    return out


def stack_and_skip_backward_loop(d_out, T, D, stacking, skip):
    d_features = np.zeros((T, D))
    for j in range(d_out.shape[0]):
        for r in range(stacking):
            d_features[min(j * skip + r, T - 1)] += d_out[j, r * D : (r + 1) * D]
    return d_features


def _masked_sigmoid(x):
    """Sigmoid through exp of a non-positive argument only, so it never
    overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward_reference(xs, params, hh_mask=None, state=None):
    """Step-by-step LSTM with separately computed gates: (outputs, (h, c),
    per-step records for lstm_backward_reference)."""
    W_h = params.W_h if hh_mask is None else params.W_h * hh_mask
    H = params.hidden
    h_prev, c_prev = (np.zeros(H), np.zeros(H)) if state is None else state
    outs = np.zeros((xs.shape[0], H))
    steps = []
    for t, x in enumerate(xs):
        z = params.W_x @ x + W_h @ h_prev + params.b
        i = _masked_sigmoid(z[:H])
        f = _masked_sigmoid(z[H : 2 * H])
        g = np.tanh(z[2 * H : 3 * H])
        o = _masked_sigmoid(z[3 * H :])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        outs[t] = h
        steps.append((x, h_prev, c_prev, i, f, g, o, tc))
        h_prev, c_prev = h, c
    return outs, (h_prev, c_prev), steps


def lstm_backward_reference(d_outs, steps, params, hh_mask=None):
    """BPTT over lstm_forward_reference's records with per-step outer
    products: (d_xs, grads, d_h0, d_c0)."""
    W_h = params.W_h if hh_mask is None else params.W_h * hh_mask
    H = params.hidden
    d_xs = np.zeros((len(steps), params.input_dim))
    gW_x = np.zeros_like(params.W_x)
    gW_h = np.zeros_like(params.W_h)
    gb = np.zeros_like(params.b)
    d_h_next = np.zeros(H)
    d_c_next = np.zeros(H)
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, tc = steps[t]
        d_h = d_outs[t] + d_h_next
        d_o = d_h * tc
        d_c = d_h * o * (1.0 - tc**2) + d_c_next
        d_c_next = d_c * f
        d_z = np.concatenate(
            [
                d_c * g * i * (1.0 - i),
                d_c * c_prev * f * (1.0 - f),
                d_c * i * (1.0 - g**2),
                d_o * o * (1.0 - o),
            ]
        )
        gW_x += np.outer(d_z, x)
        gW_h += np.outer(d_z, h_prev)
        gb += d_z
        d_xs[t] = params.W_x.T @ d_z
        d_h_next = W_h.T @ d_z
    if hh_mask is not None:
        gW_h = gW_h * hh_mask
    return d_xs, {"W_x": gW_x, "W_h": gW_h, "b": gb}, d_h_next, d_c_next
