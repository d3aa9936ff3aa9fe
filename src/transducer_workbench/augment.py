"""Data perturbation suite: feature-domain speed/tempo perturbation,
sequence noise injection, SpecAugment-style block masking, and switchout.

Every operation is pure given (input, config, stream); with zero-strength
parameters each one is the identity, and identical streams reproduce
identical outputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Utterance
from .errors import ContractViolation
from .numerics import CumulativeTable, RandomStream


@dataclass
class SwitchoutConfig:
    """tau controls how many labels get replaced: n_hat ~ p(n) ∝ exp(-n/tau)
    over {0..U}, then each position flips with probability n_hat/U to a
    uniform draw over Y (which may repeat the original symbol). `tables`
    holds the n_hat distribution of each (U, temperature) drawn from, built
    on first use."""

    temperature: float = 10.0
    vocab: int = 0
    tables: dict[tuple[int, float], CumulativeTable] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.temperature <= 0:
            raise ContractViolation("switchout temperature must be > 0")


@dataclass
class SpecAugmentConfig:
    freq_masks: int = 2
    freq_max_width: int = 15
    time_masks: int = 2
    time_max_width: int = 70
    max_time_ratio: float = 0.2


@dataclass
class NoiseInjectConfig:
    probability: float = 0.8
    scale: float = 0.4
    length_tolerance: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ContractViolation("noise probability must be in [0, 1]")
        if self.scale < 0:
            raise ContractViolation("noise scale must be >= 0")


def speed_tempo_perturb(features: np.ndarray, factor: float) -> np.ndarray:
    """Resample the time axis by linear interpolation at positions i*factor.

    T' = floor((T-1)/factor) + 1; factor 1.0 is a bitwise identity. A small
    epsilon guards the floor against float division (99/1.1 must count as
    exactly 90 steps).
    """
    if factor <= 0:
        raise ContractViolation(f"perturbation factor must be > 0, got {factor}")
    T, D = features.shape
    T_out = int(math.floor((T - 1) / factor + 1e-9)) + 1
    out = np.zeros((T_out, D), dtype=features.dtype)
    for i in range(T_out):
        pos = i * factor
        i0 = min(int(math.floor(pos)), T - 1)
        frac = pos - i0
        if frac <= 1e-12 or i0 == T - 1:
            out[i] = features[i0]
        else:
            out[i] = (1.0 - frac) * features[i0] + frac * features[i0 + 1]
    return out


def replica_expand(utterances: list[Utterance], factors) -> list[Utterance]:
    """Original data plus one perturbed replica per (tag, factor) setting.

    Each replica is tagged as a distinct pseudo-speaker, so speaker-keyed
    processing treats perturbed copies as new speakers. `factors` is a
    sequence of (tag, value) pairs, e.g. [("speed", 0.9), ("tempo", 1.1)].
    """
    out = list(utterances)
    for tag, value in factors:
        suffix = f"{tag}{value:g}"
        for utt in utterances:
            out.append(
                Utterance(
                    utt_id=f"{utt.utt_id}#{suffix}",
                    frames=speed_tempo_perturb(utt.frames, value),
                    labels=utt.labels,
                    speaker=f"{utt.speaker}#{suffix}",
                    aux=utt.aux,
                )
            )
    return out


def sequence_noise_inject(
    spectrum: np.ndarray, donor: np.ndarray, config: NoiseInjectConfig, rng: RandomStream
) -> np.ndarray:
    """With the configured probability, add the downscaled donor features on
    the aligned (left) region. One trigger draw is consumed either way."""
    triggered = rng.random() < config.probability
    out = spectrum.copy()
    if not triggered:
        return out
    L = min(spectrum.shape[0], donor.shape[0])
    out[:L] += config.scale * donor[:L]
    return out


def _within(lengths, length: int, tolerance: float) -> list[int]:
    """Indices, in order, of the lengths within the relative tolerance of
    `length`."""
    return [i for i, n in enumerate(lengths) if abs(n - length) <= tolerance * length]


def donor_pools(lengths, tolerance: float) -> dict[int, list[int]]:
    """For each distinct length, the indices of the lengths within the
    relative tolerance of it, in index order: `pick_donor`'s candidates,
    for callers that draw donors for many targets of one set of lengths."""
    return {length: _within(lengths, length, tolerance) for length in dict.fromkeys(lengths)}


def pick_donor(lengths, target_index: int, tolerance: float, rng: RandomStream, pools=None) -> int:
    """Uniform pick among other utterances whose length is within the
    relative tolerance of the target; falls back to any other utterance.
    `pools`, `donor_pools(lengths, tolerance)`, saves the scan over all
    lengths: the candidates are the target's pool without the target, in
    the same order, so one integer draw picks the same donor either way."""
    t_len = lengths[target_index]
    pool = pools[t_len] if pools is not None else _within(lengths, t_len, tolerance)
    k = bisect.bisect_left(pool, target_index)
    own = k < len(pool) and pool[k] == target_index
    if len(pool) > own:
        j = int(rng.integers(0, len(pool) - own))
        return pool[j + 1 if own and j >= k else j]
    if len(lengths) < 2:
        return target_index
    j = int(rng.integers(0, len(lengths) - 1))
    return j + 1 if j >= target_index else j


def spec_augment(features: np.ndarray, config: SpecAugmentConfig, rng: RandomStream) -> np.ndarray:
    """Block masking in time and frequency.

    Widths draw uniformly from {0..max_width} (clipped to the axis), starts
    uniformly over valid positions; masked cells take the per-utterance mean
    of the input (features are mean-normalized upstream, so the mean is the
    neutral fill). Total drawn time-mask width is capped at
    max_time_ratio * T.
    """
    T, D = features.shape
    out = features.copy()
    fill = float(features.mean()) if features.size else 0.0
    for _ in range(config.freq_masks):
        w = int(rng.integers(0, min(config.freq_max_width, D) + 1))
        start = int(rng.integers(0, D - w + 1))
        if w > 0:
            out[:, start : start + w] = fill
    budget = int(config.max_time_ratio * T)
    for _ in range(config.time_masks):
        max_w = min(config.time_max_width, T, budget)
        w = int(rng.integers(0, max_w + 1))
        start = int(rng.integers(0, T - w + 1))
        if w > 0:
            out[start : start + w, :] = fill
        budget -= w
    return out


def switchout_weights(U: int, temperature: float) -> np.ndarray:
    """Unnormalized p(n) ∝ exp(-n/tau) over n in {0..U}."""
    with np.errstate(over="ignore"):  # n/tau = inf for a tiny tau: weight 0, as meant
        return np.exp(-np.arange(U + 1) / temperature)


def switchout(labels, config: SwitchoutConfig, rng: RandomStream) -> tuple[int, ...]:
    """Replace a sampled number of positions with uniform draws over Y."""
    labels = tuple(labels)
    U = len(labels)
    if U == 0:
        return labels
    if config.vocab < 1:
        raise ContractViolation("switchout needs the replacement vocabulary size")
    key = (U, config.temperature)
    if key not in config.tables:
        config.tables[key] = CumulativeTable(switchout_weights(*key))
    n_hat = rng.draw(config.tables[key])
    if n_hat == 0:
        return labels
    p = n_hat / U
    out = list(labels)
    for i in range(U):
        if rng.random() < p:
            out[i] = int(rng.integers(0, config.vocab))
    return tuple(out)
