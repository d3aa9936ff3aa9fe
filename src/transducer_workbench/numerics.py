"""Numerical foundation: log-domain arithmetic, seeded random streams and
the cumulative tables they draw categorical indices from, and the
finite-difference gradient oracle.

Everything runs in 64-bit floats. -inf is a legal log-domain value meaning
exact zero probability; NaN is never legal.
"""

from __future__ import annotations

import bisect
import math
import mmap

import numpy as np

from .errors import ContractViolation, OracleFailure

NEG_INF = -np.inf


def log_sum_exp(values) -> float:
    """Stable log(sum(exp(values))) for a non-empty list of log-domain values.

    Returns -inf when every element is -inf.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ContractViolation("log_sum_exp of an empty list")
    m = np.max(v)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(v - m))))


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)); scalar fast path of log_sum_exp.

    It is not np.logaddexp bit for bit: it runs numpy's exp and log1p
    ufuncs, which round differently from the C library's exp and log1p
    (that np.logaddexp calls) on a few per cent of arguments, so the two
    differ in the last bit on about 0.25 % of random pairs. ALSD's
    logsumexp merge adds hypothesis scores with it, so the n-best files'
    bytes depend on it too; changing it changes them."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + np.log1p(np.exp(b - a))


def empty_like_all(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A new uninitialized array of each entry's shape, in the same order."""
    return {name: np.empty_like(arr) for name, arr in arrays.items()}


def mapped_zeros(shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Zero-filled float64 arrays of the given shapes, in the same order:
    views, each 64-byte aligned, of one anonymous memory mapping, which goes
    back to the OS when its last view is freed, however the C heap is laid
    out then. Training keeps what lives for a whole call in such mappings
    (see `training`)."""
    starts, total = [], 0
    for shape in shapes.values():
        starts.append(total)
        total += -(-math.prod(shape) // 8) * 8
    mapping = mmap.mmap(-1, 8 * max(total, 1), flags=mmap.MAP_PRIVATE)
    buffer = np.frombuffer(mapping, dtype=np.float64)
    return {
        name: buffer[start : start + math.prod(shape)].reshape(shape)
        for (name, shape), start in zip(shapes.items(), starts)
    }


def mapped_copy(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`mapped_zeros` of the arrays' shapes, holding a copy of each."""
    views = mapped_zeros({name: arr.shape for name, arr in arrays.items()})
    for name, arr in arrays.items():
        np.copyto(views[name], arr)
    return views


def sub_grads(out: dict[str, np.ndarray] | None, prefix: str):
    """The entries of gradient dict `out` whose names start with `prefix`,
    the prefix stripped, holding the same arrays; None for None. A backward
    pass hands each part of a network's workspace to the pass of the part."""
    if out is None:
        return None
    cut = len(prefix)
    return {name[cut:]: arr for name, arr in out.items() if name.startswith(prefix)}


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(z)) computed without leaving the log domain. A row with a
    NaN has a NaN maximum, so the NaN check reads the row maxima only."""
    z = np.asarray(logits, dtype=np.float64)
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    if np.isnan(m).any():
        raise ContractViolation("log_softmax input contains NaN")
    shifted = z - m
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax_backward(grad_logprob: np.ndarray, logprob: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. pre-softmax logits given grad w.r.t. log-probabilities.

    d z_k = g_k - exp(logprob_k) * sum_j g_j, applied along the last axis.
    """
    s = np.sum(grad_logprob, axis=-1, keepdims=True)
    return grad_logprob - np.exp(logprob) * s


def finite_difference_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function at x.

    The oracle every analytic backward pass in this package is checked
    against. Raises OracleFailure naming the coordinate if f returns a
    non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleFailure(
                f"non-finite function value at coordinate {i}: f+={fp}, f-={fm}"
            )
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


_MIX_CONST_1 = 0x9E3779B97F4A7C15
_MIX_CONST_2 = 0xBF58476D1CE4E5B9
_MIX_CONST_3 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + _MIX_CONST_1) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_CONST_2) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_CONST_3) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic, splittable random stream.

    Backed by the counter-based Philox generator keyed on (seed, stream id),
    so the draw at a given (seed, stream, index) is identical across runs
    and platforms. `child(*tags)` derives an independent sub-stream; use it
    to give each utterance / epoch / operation its own stream.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
            )
        return self._gen

    def child(self, *tags: int) -> "RandomStream":
        h = self.stream
        for t in tags:
            h = _splitmix64(h ^ (int(t) & _MASK64))
        return RandomStream(self.seed, h)

    # Thin draw delegates so callers never touch the generator directly.
    def random(self, size=None):
        return self.gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def permutation(self, n):
        return self.gen.permutation(n)

    def draw(self, table: CumulativeTable) -> int:
        """Index drawn from a `CumulativeTable`: one uniform u in [0, 1),
        scaled by the table's total, is placed among the cumulative weights
        by `bisect_right` (the first index whose cumulative weight exceeds
        it), clipped to the last entry."""
        return min(bisect.bisect_right(table.cumulative, self.gen.random() * table.total),
                   table.last)


class CumulativeTable:
    """A categorical distribution ready for `RandomStream.draw`, the one
    categorical draw of the package: the running sums of unnormalized
    weights (`np.cumsum`, as a list of floats) and their total (`w.sum()`,
    numpy's pairwise sum, which may differ from the last running sum in the
    last bits). The weights are checked once, here: a negative or
    non-finite entry raises ContractViolation naming its index, and a
    total that is not positive and finite raises it too. A caller that
    draws from the same weights again keeps the table.

    A draw scales one uniform by `total` and bisects `cumulative`, so it
    returns exactly the index of
    `np.searchsorted(np.cumsum(w), u * w.sum(), side="right").clip(0, n - 1)`:
    the same product of the same two doubles, compared with the same
    doubles, and the same first index whose running sum exceeds it."""

    __slots__ = ("cumulative", "total", "last")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        bad = np.flatnonzero(~((w >= 0) & (w < np.inf)))
        if bad.size:
            i = int(bad[0])
            raise ContractViolation(
                f"weight {i} is {float(w[i])}: a CumulativeTable needs nonnegative finite weights"
            )
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ContractViolation("a CumulativeTable needs a positive finite total weight")
        self.cumulative = np.cumsum(w).tolist()
        self.total = float(total)
        self.last = w.size - 1
