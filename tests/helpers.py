"""Shared test fixtures: a history-independent lattice-backed model and an
independent path-mass oracle for it, loop references for the vectorised
network kernels (frame stacking, the LSTM forward and its BPTT) and the
numpy-scalar lattice recursions that the float ones replaced, and the
object-per-candidate ALSD loop that the array beam of `alsd_beam` replaced,
and the stepwise LM oracle's (`lm_init_state`, `lm_score_next`,
`lm_end_increment`) score of a whole label sequence; then the lattice loss
from raw logits, alignment and lattice helpers, an LSTM's zero state, the
flattening and error measure of the finite-difference checks, and the memory
mapping under a mapped array. Last, the per-draw categorical sampler and the
tiling renderer that the cumulative tables and the broadcast renderer of
`data` replaced, with the transcript sampler and switchout built on them."""

import heapq
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from transducer_workbench.augment import switchout_weights
from transducer_workbench.errors import ContractViolation
from transducer_workbench.lattice import BLANK_ID, rnnt_backward, rnnt_forward
from transducer_workbench.networks import lm_end_increment, lm_init_state, lm_score_next
from transducer_workbench.numerics import (
    NEG_INF,
    log_add,
    log_softmax,
    log_softmax_backward,
    log_sum_exp,
)


class FixedLatticeModel:
    """Decoder model whose joint depends only on (t, u).

    Backed by a (T, Umax+1, K) log-probability array; a decoder state is
    just the emitted-label count of each of its prefix rows, clamped to the
    last stored row when read. Because the output distribution ignores
    label identity, exact path-mass dynamic programming over the (t, u)
    grid is valid for this model, which makes it the reference against
    which search results can be audited.
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
        return np.zeros(1, dtype=int)

    def extend_decode_state(self, state, prefixes):
        return np.array([len(prefix) for prefix in prefixes], dtype=int)

    def joint_log_probs(self, H_rows, state):
        return self.lattice[np.asarray(H_rows, dtype=int), np.minimum(state, self.u_rows - 1)]

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
    products: (dZ, grads), dZ the (T, 4H) pre-activation gradients."""
    W_h = params.W_h if hh_mask is None else params.W_h * hh_mask
    H = params.hidden
    d_zs = np.zeros((len(steps), 4 * H))
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
        d_zs[t] = d_z
        d_h_next = W_h.T @ d_z
    if hh_mask is not None:
        gW_h = gW_h * hh_mask
    return d_zs, {"W_x": gW_x, "W_h": gW_h, "b": gb}


def rnnt_forward_reference(lattice, y):
    """The lattice forward as a numpy-scalar recursion, one np.logaddexp
    call per cell: what `rnnt_forward` ran before its recursion moved to
    Python floats, kept as its bitwise reference. Returns (nll, alpha)."""
    T, U = lattice.shape[0], len(y)
    blank = lattice[:, :, BLANK_ID]
    yk = np.array([lab + 1 for lab in y], dtype=int)
    label = lattice[:, np.arange(U), yk] if U > 0 else np.zeros((T, 0))
    alpha = np.full((T + 1, U + 1), NEG_INF)
    alpha[0, 0] = 0.0
    for t in range(1, T + 1):
        alpha[t, 0] = alpha[t - 1, 0] + blank[t - 1, 0]
    for u in range(1, U + 1):
        alpha[0, u] = alpha[0, u - 1] + label[0, u - 1]
    for t in range(1, T + 1):
        row = min(t, T - 1)
        for u in range(1, U + 1):
            alpha[t, u] = np.logaddexp(
                alpha[t - 1, u] + blank[t - 1, u],
                alpha[t, u - 1] + label[row, u - 1],
            )
    return float(-alpha[T, U]), alpha


def rnnt_backward_reference(lattice, y, alpha):
    """`rnnt_backward`'s numpy-scalar beta recursion and its per-label
    gradient loop, as `rnnt_forward_reference` keeps the forward. Returns
    (beta, grad); p(y|x) must be nonzero."""
    T, U = lattice.shape[0], len(y)
    log_p = alpha[T, U]
    blank = lattice[:, :, BLANK_ID]
    yk = np.array([lab + 1 for lab in y], dtype=int)
    label = lattice[:, np.arange(U), yk] if U > 0 else np.zeros((T, 0))
    beta = np.full((T + 1, U + 1), NEG_INF)
    beta[T, U] = 0.0
    for t in range(T - 1, -1, -1):
        beta[t, U] = blank[t, U] + beta[t + 1, U]
    for u in range(U - 1, -1, -1):
        beta[T, u] = label[T - 1, u] + beta[T, u + 1]
    for t in range(T - 1, -1, -1):
        for u in range(U - 1, -1, -1):
            beta[t, u] = np.logaddexp(
                blank[t, u] + beta[t + 1, u],
                label[t, u] + beta[t, u + 1],
            )
    grad = np.zeros_like(lattice)
    with np.errstate(invalid="ignore"):
        occ_blank = alpha[:T, :] + blank + beta[1:, :] - log_p
        grad[:, :, BLANK_ID] = -np.exp(occ_blank)
        for u in range(U):
            k = yk[u]
            occ = alpha[:T, u] + lattice[:, u, k] + beta[:T, u + 1] - log_p
            grad[:, u, k] = -np.exp(occ)
            extra = alpha[T, u] + lattice[T - 1, u, k] + beta[T, u + 1] - log_p
            grad[T - 1, u, k] -= np.exp(extra)
    return beta, grad


# ---------------------------------------------------------------------------
# ALSD with one frozen object per candidate: the reference for the array beam


@dataclass(frozen=True)
class ReferenceHypothesis:
    labels: tuple[int, ...]
    t_progress: int
    transducer: float
    pred_state: Any = None

    @property
    def alignment_length(self) -> int:
        return self.t_progress + len(self.labels)


def _rank_key(hyp):
    return (-hyp.transducer, hyp.labels)


def _merge(pool: dict, hyp, merge: str) -> None:
    old = pool.get(hyp.labels)
    if old is None:
        pool[hyp.labels] = hyp
        return
    if merge == "max":
        if hyp.transducer <= old.transducer:
            return
        trans = hyp.transducer
    else:
        trans = log_add(old.transducer, hyp.transducer)
    pool[hyp.labels] = replace(old, transducer=trans)


def _prefix_state(model, states: dict, labels):
    """The one-row decoder state of a label prefix, made from its parent's."""
    if labels not in states:
        states[labels] = model.extend_decode_state(states[labels[:-1]], [labels])
    return states[labels]


def stepwise_lm_score(labels, lm):
    """The stepwise LM oracle's score of a label sequence: (total, the
    per-symbol increments with the end marker's last, the next-symbol rows
    after each prefix). The total is summed left to right."""
    state = lm_init_state(lm)
    total, increments, rows = 0.0, [], [state.logprobs]
    for label in labels:
        inc, state = lm_score_next(state, label, lm)
        total += inc
        increments.append(inc)
        rows.append(state.logprobs)
    increments.append(lm_end_increment(state, lm))
    return total + increments[-1], increments, rows


def _nth_best(completed: dict, n: int):
    return heapq.nsmallest(n, completed.values(), key=_rank_key)[-1]


def alsd_beam_reference(
    model,
    features,
    beam_width: int,
    n_best: int = 1,
    expansion_cap: int | None = None,
    merge: str = "logsumexp",
    debug_invariants: bool = False,
    aux=None,
) -> list:
    """ALSD as one frozen hypothesis per candidate, merged through a dict
    and ranked by sorting the whole pool each step; each hypothesis reads
    the decoder through one-row blocks, and a candidate that can no longer
    consume every frame by the cap is dropped. Returns the ranked n-best
    list."""
    if beam_width < 1:
        raise ContractViolation("beam_width must be >= 1")
    if n_best < 1:
        raise ContractViolation("n_best must be >= 1")
    if merge not in ("logsumexp", "max"):
        raise ContractViolation(f"unknown merge mode {merge!r}")
    H = model.encode_features(features, aux)
    T = H.shape[0]
    if expansion_cap is None:
        expansion_cap = 3 * T
    if expansion_cap < T:
        raise ContractViolation("expansion_cap must be at least T")

    states = {(): model.init_decode_state()}
    live = [ReferenceHypothesis(labels=(), t_progress=0, transducer=0.0, pred_state=states[()])]
    completed: dict = {}
    num_labels = model.num_labels

    for step in range(1, expansion_cap + 1):
        if debug_invariants:
            lengths = {hyp.alignment_length for hyp in live}
            assert len(lengths) == 1 and lengths == {step - 1}
        expansions: dict = {}
        for hyp in live:
            if hyp.pred_state is None:
                hyp = replace(hyp, pred_state=_prefix_state(model, states, hyp.labels))
            frame = min(hyp.t_progress, T - 1)
            logp = model.joint_log_probs(H[[frame]], hyp.pred_state)[0]
            if hyp.t_progress < T:
                _merge(
                    expansions,
                    replace(hyp, t_progress=hyp.t_progress + 1,
                            transducer=hyp.transducer + float(logp[BLANK_ID])),
                    merge,
                )
            for k in range(1, num_labels + 1):
                _merge(
                    expansions,
                    ReferenceHypothesis(
                        labels=hyp.labels + (k - 1,),
                        t_progress=hyp.t_progress,
                        transducer=hyp.transducer + float(logp[k]),
                    ),
                    merge,
                )
        reachable = [hyp for hyp in expansions.values()
                     if hyp.t_progress + (expansion_cap - step) >= T]
        for hyp in reachable:
            if hyp.t_progress == T:
                completed[hyp.labels] = hyp
        live = sorted(reachable, key=_rank_key)[:beam_width]
        if (
            len(completed) >= n_best
            and all(hyp.t_progress == T for hyp in live)
            and live[0].transducer < _nth_best(completed, n_best).transducer
        ):
            break

    ranked = sorted(completed.values(), key=_rank_key)
    return ranked[:n_best]


def rnnt_loss_from_logits(logits: np.ndarray, y) -> tuple[float, np.ndarray]:
    """NLL and its gradient w.r.t. pre-softmax logits of shape T x (U+1) x K."""
    logprob = log_softmax(logits)
    nll, alpha = rnnt_forward(logprob, y)
    _, grad = rnnt_backward(logprob, y, alpha)
    return nll, log_softmax_backward(grad, logprob)


def collapse_alignment(alignment) -> tuple[int, ...]:
    """Remove blanks and map back to label ids in Y."""
    return tuple(k - 1 for k in alignment if k != BLANK_ID)


def random_logprob_lattice(T: int, U: int, K: int, rng) -> np.ndarray:
    """Random normalized log-probability lattice for tests and oracles."""
    logits = rng.normal(0.0, 1.0, size=(T, U + 1, K))
    return log_softmax(logits)


def zero_state(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """An LSTM's zero (h, c)."""
    return np.zeros(hidden), np.zeros(hidden)


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    """max |a-b| / max(floor, |a|, |b|), elementwise; scalar summary.

    The floor reflects the noise level of central differences at eps = 1e-5:
    entries larger than the floor must agree to the stated relative error,
    smaller ones to floor * tolerance in absolute terms.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def pack_arrays(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate named arrays (sorted by name) into one flat vector."""
    return np.concatenate([arrays[k].ravel() for k in sorted(arrays)]) if arrays else np.zeros(0)


def unpack_arrays(vector: np.ndarray, template: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Inverse of pack_arrays against a shape template."""
    out = {}
    pos = 0
    for k in sorted(template):
        n = template[k].size
        out[k] = vector[pos : pos + n].reshape(template[k].shape).copy()
        pos += n
    if pos != vector.size:
        raise ContractViolation(f"vector length {vector.size} != template size {pos}")
    return out


def mapping_of(arr: np.ndarray):
    """The object whose buffer holds `arr`'s data, past every view and
    memoryview: an `mmap.mmap` for the arrays of `numerics.mapped_zeros`."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


# ---------------------------------------------------------------------------
# Per-draw sampling and per-symbol tiling: the references of the tables


def choice_weighted_reference(rng, weights) -> int:
    """The per-draw categorical sampler the package used before draws read a
    `CumulativeTable`: it sums and cumsums the weights at every draw and
    places the scaled uniform with `np.searchsorted`. It checks only the
    total, so it draws from negative entries. Kept as the bitwise reference
    of `RandomStream.draw`."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ContractViolation("the weights need a positive finite total")
    u = rng.gen.random() * total
    return int(np.searchsorted(np.cumsum(w), u, side="right").clip(0, w.size - 1))


def sample_transcript_reference(model, length, rng) -> tuple[int, ...]:
    """`TranscriptModel.sample` with one `choice_weighted_reference` per
    symbol over the model's rows."""
    out = []
    for i in range(length):
        probs = model.initial if i == 0 else model.transition[out[-1]]
        out.append(choice_weighted_reference(rng, probs))
    return tuple(out)


def render_utterance_reference(labels, templates, config, rng) -> np.ndarray:
    """`data._render_utterance` with each symbol's template tiled to its
    duration before the noise is added."""
    lo, hi = config.frames_per_symbol
    pieces = []
    for lab in labels:
        dur = int(rng.integers(lo, hi + 1))
        block = np.tile(templates[lab], (dur, 1))
        if config.noise_level > 0:
            block = block + config.noise_level * rng.normal(size=block.shape)
        pieces.append(block)
    return np.concatenate(pieces, axis=0).astype(np.float32)


def switchout_reference(labels, config, rng) -> tuple[int, ...]:
    """`augment.switchout` with its n_hat drawn by
    `choice_weighted_reference` from the weights of each call."""
    labels = tuple(labels)
    U = len(labels)
    if U == 0:
        return labels
    n_hat = choice_weighted_reference(rng, switchout_weights(U, config.temperature))
    if n_hat == 0:
        return labels
    p = n_hat / U
    out = list(labels)
    for i in range(U):
        if rng.random() < p:
            out[i] = int(rng.integers(0, config.vocab))
    return tuple(out)
