"""Exact transducer negative log-likelihood over the T x U lattice.

Conventions (shared with the decoder):

- The augmented vocabulary has the blank symbol at index 0; a label with
  id k (0-based, k < |Y|) lives at lattice slice k+1.
- A lattice node (t, u) means t frames consumed (t blanks emitted) and u
  labels emitted. Blank moves (t, u) -> (t+1, u) and reads lattice row t;
  a label moves (t, u) -> (t, u+1) and reads lattice row min(t, T-1), so
  labels emitted after the final blank condition on the last frame.
- Every interleaving of T blanks and U labels is a valid alignment, so
  there are exactly C(T+U, U) of them, and the terminal node is (T, U).

`brute_force_nll` enumerates alignments directly and is the independent
oracle for `rnnt_forward`; both implement the same convention.

`rnnt_forward` and `rnnt_backward` run their alpha and beta recursions over
Python floats, one private `_logaddexp` per cell, which equals np.logaddexp
bit for bit; the gradient is two array expressions, the label edges'
scattered to their entries at once.

Prefix tries: lattice row u and alpha column u of a sequence depend only on
its first u labels. A whole set of sequences is therefore scored on their
prefix trie (`networks.prefix_trie`, nodes in depth order), one lattice
column and one alpha column per distinct prefix: `prefix_trie_steps` reads
each node's blank and label steps from the trie's lattice columns, and
`prefix_trie_forward` runs the recursion over them, for one model or, with
a leading axis, for several models on the same trie at once. Given the same
lattice columns it reproduces `rnnt_forward`'s alpha bit for bit, since
every entry comes from the same operands through the same `+` and
np.logaddexp, which `_logaddexp` equals.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractViolation, DimensionError, EnumerationCapExceeded
from .numerics import NEG_INF, log_sum_exp

BLANK_ID = 0

ENUMERATION_CAP = 22  # max T+U for alignment enumeration; C(22,11) ~ 7e5 paths


def label_to_output_index(label: int) -> int:
    """Map a label id in Y to its slice index in the augmented vocabulary."""
    return label + 1


def _check_shapes(lattice: np.ndarray, y) -> tuple[int, int, int]:
    lattice = np.asarray(lattice)
    if lattice.ndim != 3:
        raise DimensionError(f"lattice must be T x (U+1) x K, got shape {lattice.shape}")
    T, U1, K = lattice.shape
    U = len(y)
    if T < 1:
        raise DimensionError("lattice needs T >= 1")
    if U1 != U + 1:
        raise DimensionError(f"lattice has {U1} label rows but y has length {U}")
    for lab in y:
        if not 0 <= lab < K - 1:
            raise DimensionError(f"label id {lab} out of range for {K - 1} labels")
    return T, U, K


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp of two Python floats, bit for bit: numpy's scalar
    `npy_logaddexp`, branch for branch, on the C library's exp and log1p,
    which `math` calls as well. It saves the numpy-scalar call of each
    lattice cell. (`numerics.log_add` runs numpy's exp and log1p ufuncs,
    which round differently on a few per cent of inputs.)"""
    if x == y:  # infinities of one sign included
        return x + _LOG2
    diff = x - y
    if diff > 0:
        return x + math.log1p(math.exp(-diff))
    if diff <= 0:
        return y + math.log1p(math.exp(diff))
    return diff  # NaN


def _steps(lattice: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blank steps (T, U+1), the label steps (T, U), label[t][u] the
    step of y[u] at row t, and each label's output index (U,)."""
    T, U1, _ = lattice.shape
    yk = np.array([label_to_output_index(lab) for lab in y], dtype=int)
    return lattice[:, :, BLANK_ID], lattice[:, np.arange(U1 - 1), yk], yk


def rnnt_forward(lattice: np.ndarray, y) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of y and the forward grid alpha.

    alpha[t][u] is the log-probability mass of all alignment prefixes with
    t blanks and u labels; the full loss is -alpha[T][U]. The recursion runs
    over Python floats, row by row, with `_logaddexp`, so every entry equals
    the numpy-scalar recursion bit for bit.
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    T, U, _ = _check_shapes(lattice, y)
    blank, label, _ = _steps(lattice, y)
    blank, label = blank.tolist(), label.tolist()

    row = [0.0]
    for step in label[0]:
        row.append(row[-1] + step)
    alpha = [row]
    for t in range(1, T + 1):
        up, b, lab = row, blank[t - 1], label[min(t, T - 1)]
        row = [up[0] + b[0]]
        for u in range(1, U + 1):
            row.append(_logaddexp(up[u] + b[u], row[u - 1] + lab[u - 1]))
        alpha.append(row)
    alpha = np.array(alpha)
    return float(-alpha[T, U]), alpha


def prefix_trie_steps(columns: np.ndarray, parents, labels) -> tuple[np.ndarray, np.ndarray]:
    """The step log-probabilities of a prefix trie's nodes, as
    `rnnt_forward` reads them from a sequence's lattice: node 0 is the empty
    prefix, node n > 0 extends node `parents[n]` by label `labels[n]` (the
    root's parent and label are -1).

    `columns` is (T, N, K); for node n at depth u, columns[:, n] is row u of
    the lattice of any sequence whose first u labels are node n's prefix.
    Returns (blank, label), each (T, N): blank[t, n] is the blank step at
    node n, label[t, n] the step of node n's label, read on its parent's
    column (0.0 at the root, which no label enters)."""
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim != 3:
        raise DimensionError(f"columns must be T x N x K, got shape {columns.shape}")
    T, N, K = columns.shape
    parents = np.asarray(parents, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if parents.shape != (N,) or labels.shape != (N,):
        raise DimensionError(f"{N} columns need one parent and one label per node")
    if np.any(labels[1:] < 0) or np.any(labels[1:] >= K - 1):
        raise DimensionError(f"label ids out of range for {K - 1} labels")
    label = np.zeros((T, N))
    label[:, 1:] = columns[:, parents[1:], labels[1:] + 1]
    # A copy, so the steps do not keep `columns` alive.
    return columns[:, :, BLANK_ID].copy(), label


def prefix_trie_forward(blank: np.ndarray, label: np.ndarray, parents) -> np.ndarray:
    """Forward columns of every node of a prefix trie, no node deeper than a
    later one, from its step arrays (`prefix_trie_steps`): blank and label
    are (..., T, N), any leading axes, such as one per model, indexing
    independent tries of the same shape.

    Returns alpha (..., T+1, N), where alpha[..., :, n] is column u of
    `rnnt_forward`'s alpha for a sequence through node n at depth u, bit for
    bit, and -alpha[..., T, n] is the NLL of the sequence ending at n. The
    recursion is elementwise over the leading axes, so one call over a stack
    of step arrays equals one call per entry, bit for bit. The trie is
    checked once per call; the loop runs depth x T times, each step covering
    every node of one depth.
    """
    blank = np.asarray(blank, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if blank.ndim < 2 or label.shape != blank.shape:
        raise DimensionError(
            f"blank and label steps must be ... x T x N of one shape, got {blank.shape} "
            f"and {label.shape}"
        )
    *lead, T, N = blank.shape
    if T < 1:
        raise DimensionError("lattice needs T >= 1")
    parents = np.asarray(parents, dtype=int)
    if N < 1 or parents.shape != (N,):
        raise DimensionError(f"{N} columns need one parent per node")
    if parents[0] != -1 or np.any(parents[1:] < 0) or np.any(parents[1:] >= np.arange(1, N)):
        raise ContractViolation("node 0 must be the root and every parent must precede its child")
    depth = [0] * N
    for n in range(1, N):
        depth[n] = depth[parents[n]] + 1
    if any(a > b for a, b in zip(depth, depth[1:])):
        raise ContractViolation("trie nodes must come in depth order")

    # The recursion runs time-major, so that each step indexes one row.
    blank, label = np.moveaxis(blank, -2, 0), np.moveaxis(label, -2, 0)
    rows = np.minimum(np.arange(T + 1), T - 1)
    alpha = np.full((T + 1, *lead, N), NEG_INF)
    alpha[0, ..., 0] = 0.0
    for t in range(1, T + 1):
        alpha[t, ..., 0] = alpha[t - 1, ..., 0] + blank[t - 1, ..., 0]
    starts = np.flatnonzero(np.diff(depth)) + 1
    for lo, hi in zip(starts, [*starts[1:], N]):
        # Label moves into these nodes, for every t at once: their parents'
        # columns are complete.
        via_label = alpha[..., parents[lo:hi]] + label[rows, ..., lo:hi]
        nodes, nodes_blank = alpha[..., lo:hi], blank[..., lo:hi]
        nodes[0] = via_label[0]
        for t in range(1, T + 1):
            np.logaddexp(nodes[t - 1] + nodes_blank[t - 1], via_label[t], out=nodes[t])
    return np.moveaxis(alpha, 0, -2)


def rnnt_backward(lattice: np.ndarray, y, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward grid beta and the gradient of the NLL w.r.t. every
    log-probability entry of the lattice.

    grad[t][u][k] = -exp(occupancy of the edges reading that entry, minus
    log p(y|x)); computed fully in the log domain until the final exp. The
    beta recursion runs over Python floats as `rnnt_forward`'s does; the
    occupancies are array expressions, one for the blank edges and one,
    scattered to the label entries, for the label edges.
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    T, U, _ = _check_shapes(lattice, y)
    if alpha.shape != (T + 1, U + 1):
        raise DimensionError(f"alpha shape {alpha.shape} does not match (T+1, U+1)")
    log_p = alpha[T, U]
    if not np.isfinite(log_p):
        raise ContractViolation("gradient undefined: p(y|x) is zero for this lattice")
    blank, label, yk = _steps(lattice, y)
    blank_rows, label_rows = blank.tolist(), label.tolist()

    row = [0.0] * (U + 1)
    for u in range(U - 1, -1, -1):
        row[u] = label_rows[T - 1][u] + row[u + 1]
    beta = [row]
    for t in range(T - 1, -1, -1):
        down, b, lab = row, blank_rows[t], label_rows[t]
        row = [0.0] * (U + 1)
        row[U] = b[U] + down[U]
        for u in range(U - 1, -1, -1):
            row[u] = _logaddexp(b[u] + down[u], lab[u] + row[u + 1])
        beta.append(row)
    beta = np.array(beta[::-1])

    grad = np.zeros_like(lattice)
    with np.errstate(invalid="ignore"):
        # Blank edges: node (t, u) -> (t+1, u) reads row t directly.
        occ_blank = alpha[:T, :] + blank + beta[1:, :] - log_p
        grad[:, :, BLANK_ID] = -np.exp(occ_blank)
        # Label edges: node (t, u) -> (t, u+1) reads row min(t, T-1); the
        # t = T node folds onto row T-1, so that entry collects two edges.
        d_label = -np.exp(alpha[:T, :U] + label + beta[:T, 1:] - log_p)
        d_label[T - 1] -= np.exp(alpha[T, :U] + label[T - 1] + beta[T, 1:] - log_p)
        grad[:, np.arange(U), yk] = d_label
    return beta, grad


def enumerate_alignments(T: int, U: int, y, cap: int = ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """All C(T+U, U) alignments of y, as tuples over the augmented vocabulary
    (blank = 0), ordered lexicographically by label positions (so the
    all-labels-first alignment comes first).

    Refuses when T+U exceeds the cap to keep enumeration tractable.
    """
    if T < 0 or len(y) != U or T + U < 1:
        raise ContractViolation(f"bad enumeration request T={T}, U={U}, |y|={len(y)}")
    if T + U > cap:
        raise EnumerationCapExceeded(
            f"T+U = {T + U} exceeds enumeration cap {cap}"
        )
    out = []
    labels = [label_to_output_index(lab) for lab in y]
    for label_positions in itertools.combinations(range(T + U), U):
        symbols = [BLANK_ID] * (T + U)
        for li, pos in enumerate(label_positions):
            symbols[pos] = labels[li]
        out.append(tuple(symbols))
    return out


def alignment_log_prob(lattice: np.ndarray, alignment) -> float:
    """Log-probability of one alignment under the shared step convention."""
    T = lattice.shape[0]
    t = u = 0
    total = 0.0
    for sym in alignment:
        if sym == BLANK_ID:
            total += lattice[t, u, BLANK_ID]
            t += 1
        else:
            total += lattice[min(t, T - 1), u, sym]
            u += 1
    if t != T:
        raise ContractViolation(f"alignment consumed {t} blanks, lattice has T={T}")
    return float(total)


def brute_force_nll(lattice: np.ndarray, y, cap: int = ENUMERATION_CAP) -> float:
    """NLL by direct enumeration of every alignment; the acceptance oracle
    for rnnt_forward. Returns +inf when y has zero probability.
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    T, U, _ = _check_shapes(lattice, y)
    paths = [
        alignment_log_prob(lattice, a) for a in enumerate_alignments(T, U, y, cap=cap)
    ]
    total = log_sum_exp(paths)
    if total == NEG_INF:
        return np.inf
    return -total
