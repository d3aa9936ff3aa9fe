"""Joint network: fuses one encoder vector and one prediction vector into a
log-probability distribution over the augmented vocabulary. `joint_forward`
also takes a block of (encoder, prediction) row pairs, as a decoder's beam
step does, and `joint_forward_lattice` every (t, u) pair of a lattice.

Two integration modes share every parameter shape:

- additive:        log_softmax(W_out @ tanh(W_enc h + W_pred g + b))
- multiplicative:  log_softmax(W_out @ tanh((W_enc h) * (W_pred g) + b))

There is no bias after W_out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError
from .numerics import RandomStream, log_softmax, log_softmax_backward

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
JOINT_MODES = (ADDITIVE, MULTIPLICATIVE)


@dataclass
class JointParams:
    W_enc: np.ndarray  # (J, E)
    W_pred: np.ndarray  # (J, P)
    b: np.ndarray  # (J,)
    W_out: np.ndarray  # (K, J), K = |Y| + 1 with blank at index 0
    mode: str = ADDITIVE

    def __post_init__(self):
        if self.mode not in JOINT_MODES:
            raise ContractViolation(f"unknown joint mode {self.mode!r}")
        J = self.W_enc.shape[0]
        if self.W_pred.shape[0] != J:
            raise DimensionError("W_pred rows must match W_enc rows (joint dim J)")
        if self.b.shape != (J,):
            raise DimensionError("b must have shape (J,)")
        if self.W_out.shape[1] != J:
            raise DimensionError("W_out columns must match joint dim J")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (
            self.W_enc.shape[1],
            self.W_pred.shape[1],
            self.W_enc.shape[0],
            self.W_out.shape[0],
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {"W_enc": self.W_enc, "W_pred": self.W_pred, "b": self.b, "W_out": self.W_out}


@dataclass
class JointCache:
    """Activations saved by a forward call for the matching backward."""

    h: np.ndarray
    g: np.ndarray
    h_tilde: np.ndarray
    g_tilde: np.ndarray
    act: np.ndarray  # tanh output
    logprob: np.ndarray


def init_joint_params(
    enc_dim: int,
    pred_dim: int,
    joint_dim: int,
    vocab_size: int,
    mode: str,
    rng: RandomStream,
) -> JointParams:
    """Uniform(-1/sqrt(fan_in)) init; biases start at zero."""

    def mat(rows, cols):
        limit = 1.0 / np.sqrt(cols)
        return rng.uniform(-limit, limit, size=(rows, cols))

    return JointParams(
        W_enc=mat(joint_dim, enc_dim),
        W_pred=mat(joint_dim, pred_dim),
        b=np.zeros(joint_dim),
        W_out=mat(vocab_size, joint_dim),
        mode=mode,
    )


def hadamard_backward(d_product, a, b):
    """Gradient gating at an elementwise product node a*b: each branch's
    gradient is the upstream gradient gated by the other branch."""
    return b * d_product, a * d_product


def _pre_activation(params: JointParams, h_tilde, g_tilde):
    if params.mode == ADDITIVE:
        return h_tilde + g_tilde + params.b
    return h_tilde * g_tilde + params.b


def joint_forward(h: np.ndarray, g: np.ndarray, params: JointParams) -> np.ndarray:
    """Log-probabilities over the augmented vocabulary: (K,) for one node,
    or (B, K) for a block of B nodes, where row i reads h[i] and g[i]."""
    logprob, _ = joint_forward_cached(h, g, params)
    return logprob


def _stacked(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ x for every row x of X as one stacked per-row product, which
    equals one W @ x per row bit for bit (see `networks.lstm_forward`)."""
    return np.matmul(W, X[..., None])[..., 0]


def joint_forward_cached(h: np.ndarray, g: np.ndarray, params: JointParams):
    """`joint_forward` plus its cache. h is (E,) or (B, E) and g (P,) or
    (B, P), with the same leading shape. A block row equals the 1-D call on
    its pair bit for bit: every product is a stacked per-row product, the
    pre-activation is elementwise and log_softmax runs along the last axis.
    Block calls are inference-only: `joint_backward` takes 1-D caches."""
    h = np.asarray(h, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    E, P, _, _ = params.dims
    if h.ndim not in (1, 2) or h.shape[-1] != E:
        raise DimensionError(f"W_enc expects encoder rows of dim {E}, got {h.shape}")
    if g.shape[:-1] != h.shape[:-1] or g.shape[-1:] != (P,):
        raise DimensionError(
            f"W_pred expects prediction rows of dim {P} matching {h.shape[:-1]}, got {g.shape}"
        )
    h_tilde = _stacked(params.W_enc, h)
    g_tilde = _stacked(params.W_pred, g)
    act = np.tanh(_pre_activation(params, h_tilde, g_tilde))
    logprob = log_softmax(_stacked(params.W_out, act))
    return logprob, JointCache(h, g, h_tilde, g_tilde, act, logprob)


def joint_backward(grad_logprob: np.ndarray, cache: JointCache | None, params: JointParams):
    """Gradients for the inputs and every parameter, given the gradient of a
    scalar loss w.r.t. the output log-probabilities.

    The returned dict includes "d_pre", the upstream gradient at the
    pre-activation (the product node in multiplicative mode), so the gating
    structure can be instrumented directly.
    """
    if cache is None:
        raise ContractViolation("joint_backward needs the cache from joint_forward_cached")
    if cache.h.ndim != 1:
        raise DimensionError(f"joint_backward takes one-node caches, got h {cache.h.shape}")
    d_logits = log_softmax_backward(grad_logprob, cache.logprob)
    d_act = params.W_out.T @ d_logits
    d_pre = (1.0 - cache.act**2) * d_act
    grads = {
        "W_out": np.outer(d_logits, cache.act),
        "b": d_pre.copy(),
        "d_pre": d_pre,
    }
    if params.mode == ADDITIVE:
        d_ht, d_gt = d_pre, d_pre
    else:
        d_ht, d_gt = hadamard_backward(d_pre, cache.h_tilde, cache.g_tilde)
    grads["W_enc"] = np.outer(d_ht, cache.h)
    grads["W_pred"] = np.outer(d_gt, cache.g)
    grads["h"] = params.W_enc.T @ d_ht
    grads["g"] = params.W_pred.T @ d_gt
    return grads


@dataclass
class JointLatticeCache:
    H: np.ndarray
    G: np.ndarray
    h_tilde: np.ndarray  # (T, J)
    g_tilde: np.ndarray  # (U+1, J)
    act: np.ndarray  # (T, U+1, J)
    logprob: np.ndarray  # (T, U+1, K)


def joint_forward_lattice(H: np.ndarray, G: np.ndarray, params: JointParams):
    """Joint network over every lattice node at once.

    H is the encoder output (T, E); G the prediction embeddings (U+1, P).
    Returns the (T, U+1, K) log-probability lattice plus a cache.
    """
    E, P, _, _ = params.dims
    if H.ndim != 2 or H.shape[1] != E:
        raise DimensionError(f"W_enc expects encoder rows of dim {E}, got {H.shape}")
    if G.ndim != 2 or G.shape[1] != P:
        raise DimensionError(f"W_pred expects prediction rows of dim {P}, got {G.shape}")
    h_tilde = H @ params.W_enc.T  # (T, J)
    g_tilde = G @ params.W_pred.T  # (U+1, J)
    act = np.tanh(_pre_activation(params, h_tilde[:, None, :], g_tilde[None, :, :]))
    logprob = log_softmax(act @ params.W_out.T)
    return logprob, JointLatticeCache(H, G, h_tilde, g_tilde, act, logprob)


def joint_backward_lattice(
    grad_logprob: np.ndarray, cache: JointLatticeCache, params: JointParams, out=None
):
    """Vectorized backward over the whole lattice.

    Returns (param_grads, d_H, d_G); param_grads keys mirror
    JointParams.arrays(), in the order W_out, b, W_enc, W_pred. The
    gradients are written into the arrays of `out`, which is then
    param_grads, or into new ones: the same bits either way.
    """
    d_logits = log_softmax_backward(grad_logprob, cache.logprob)  # (T, U+1, K)
    d_act = d_logits @ params.W_out  # (T, U+1, J)
    d_pre = (1.0 - cache.act**2) * d_act
    if out is None:
        arrays = params.arrays()
        out = {name: np.empty_like(arrays[name]) for name in ("W_out", "b", "W_enc", "W_pred")}
    np.einsum("tuk,tuj->kj", d_logits, cache.act, out=out["W_out"])
    d_pre.sum(axis=(0, 1), out=out["b"])
    if params.mode == ADDITIVE:
        d_ht = d_pre.sum(axis=1)  # (T, J)
        d_gt = d_pre.sum(axis=0)  # (U+1, J)
    else:
        d_ht = np.einsum("tuj,uj->tj", d_pre, cache.g_tilde)
        d_gt = np.einsum("tuj,tj->uj", d_pre, cache.h_tilde)
    np.matmul(d_ht.T, cache.H, out=out["W_enc"])
    np.matmul(d_gt.T, cache.G, out=out["W_pred"])
    d_H = d_ht @ params.W_enc
    d_G = d_gt @ params.W_pred
    return out, d_H, d_G
