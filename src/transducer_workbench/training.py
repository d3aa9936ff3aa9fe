"""Optimization: momentum SGD and AdamW, constant+decay and one-cycle
learning-rate schedules, batched gradient accumulation, and the training
loop that applies the augmentation recipe.

The training loop is deterministic under a fixed stream: data order,
DropConnect masks, and every augmentation draw come from child streams keyed
by (epoch, batch, utterance), and gradients accumulate in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augment import (
    NoiseInjectConfig,
    SpecAugmentConfig,
    SwitchoutConfig,
    pick_donor,
    replica_expand,
    sequence_noise_inject,
    spec_augment,
    switchout,
)
from .data import Dataset
from .decoding import greedy_decode
from .errors import ContractViolation, TrainingDiverged
from .model import TransducerModel, sample_model_masks
from .numerics import RandomStream
from .scoring import compute_wer

CONST_DECAY = "const_decay"
ONE_CYCLE = "one_cycle"


@dataclass
class ScheduleConfig:
    kind: str = CONST_DECAY
    # const+decay: constant base rate, geometric decay after the start epoch.
    base_lr: float = 0.01
    decay_factor: float = 0.7
    decay_start_epoch: int = 10
    # one-cycle: linear warmup to the peak, then linear annealing to zero.
    start_lr: float = 5e-5
    peak_lr: float = 5e-4
    warmup_epochs: float = 6.0
    total_epochs: float = 20.0

    def __post_init__(self):
        if self.kind not in (CONST_DECAY, ONE_CYCLE):
            raise ContractViolation(f"unknown schedule kind {self.kind!r}")
        if self.kind == ONE_CYCLE and not 0 <= self.warmup_epochs < self.total_epochs:
            raise ContractViolation(
                f"one_cycle needs 0 <= warmup ({self.warmup_epochs}) "
                f"< total ({self.total_epochs})"
            )


def lr_at(schedule: ScheduleConfig, epoch_fraction: float) -> float:
    """Learning rate at a (possibly fractional) epoch position.

    const_decay is evaluated at integer epoch boundaries ("decays every
    epoch after epoch N"); one_cycle is piecewise linear through
    (0, start), (warmup, peak), (total, 0).
    """
    if epoch_fraction < 0:
        raise ContractViolation("epoch_fraction must be >= 0")
    if schedule.kind == CONST_DECAY:
        e = math.floor(epoch_fraction)
        if e <= schedule.decay_start_epoch:
            return schedule.base_lr
        return schedule.base_lr * schedule.decay_factor ** (e - schedule.decay_start_epoch)
    if epoch_fraction > schedule.total_epochs:
        raise ContractViolation(
            f"epoch_fraction {epoch_fraction} beyond schedule total {schedule.total_epochs}"
        )
    if epoch_fraction < schedule.warmup_epochs:
        ramp = epoch_fraction / schedule.warmup_epochs
        return schedule.start_lr + (schedule.peak_lr - schedule.start_lr) * ramp
    span = schedule.total_epochs - schedule.warmup_epochs
    return schedule.peak_lr * (schedule.total_epochs - epoch_fraction) / span


MOMENTUM_SGD = "momentum_sgd"
ADAMW = "adamw"


@dataclass
class OptimizerConfig:
    kind: str = ADAMW
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    weight_decay: float = 0.01  # decoupled; AdamW only
    clip_norm: float = 10.0  # global gradient-norm clip; <= 0 disables

    def __post_init__(self):
        if self.kind not in (MOMENTUM_SGD, ADAMW):
            raise ContractViolation(f"unknown optimizer kind {self.kind!r}")


@dataclass
class OptimizerState:
    config: OptimizerConfig
    step: int = 0
    velocity: dict = field(default_factory=dict)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_optimizer(params: dict[str, np.ndarray], config: OptimizerConfig) -> OptimizerState:
    state = OptimizerState(config=config)
    for name, arr in params.items():
        if config.kind == MOMENTUM_SGD:
            state.velocity[name] = np.zeros_like(arr)
        else:
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
    return state


def _check_finite(grads: dict[str, np.ndarray]):
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient for parameter {name}")


def momentum_sgd_step(params, grads, state: OptimizerState, lr: float):
    """velocity = m*velocity + grad; param -= lr*velocity."""
    _check_finite(grads)
    state.step += 1
    m = state.config.momentum
    for name, p in params.items():
        vel = state.velocity[name]
        vel *= m
        vel += grads[name]
        p -= lr * vel


def adamw_step(params, grads, state: OptimizerState, lr: float):
    """Decoupled weight decay applied before the bias-corrected moment update."""
    _check_finite(grads)
    state.step += 1
    c = state.config
    bc1 = 1.0 - c.beta1**state.step
    bc2 = 1.0 - c.beta2**state.step
    for name, p in params.items():
        if c.weight_decay:
            p -= lr * c.weight_decay * p
        m = state.m[name]
        v = state.v[name]
        g = grads[name]
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        v *= c.beta2
        v += (1.0 - c.beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


def optimizer_step(params, grads, state: OptimizerState, lr: float):
    if state.config.kind == MOMENTUM_SGD:
        momentum_sgd_step(params, grads, state, lr)
    else:
        adamw_step(params, grads, state, lr)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# Recipe and training loop


@dataclass
class TrainingRecipe:
    epochs: int = 20
    batch_size: int = 8
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(
        default_factory=lambda: ScheduleConfig(kind=ONE_CYCLE)
    )
    dropconnect_rate: float = 0.25
    switchout: SwitchoutConfig | None = None
    sequence_noise: NoiseInjectConfig | None = None
    specaugment: SpecAugmentConfig | None = None
    replicas: tuple = ()  # (tag, factor) pairs expanded before training
    shuffle: bool = True
    dev_max_symbols: int | None = None


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_nll: float
    train_nll_per_label: float
    dev_wer: float | None

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "lr": self.lr,
            "train_nll": self.train_nll,
            "train_nll_per_label": self.train_nll_per_label,
            "dev_wer": self.dev_wer,
        }


@dataclass
class TrainResult:
    model: TransducerModel
    metrics: list[EpochRecord]


def _mean_gradients(per_item_grads, n: int) -> dict[str, np.ndarray]:
    """Sum the gradient dicts in the order given, then divide by n. Callers
    pass a generator, so one item's gradients are alive at a time."""
    acc: dict[str, np.ndarray] = {}
    for grads in per_item_grads:
        for name, g in grads.items():
            if name in acc:
                acc[name] += g
            else:
                acc[name] = g.copy()
    for g in acc.values():
        g /= n
    return acc


def batch_loss_and_grads(model: TransducerModel, items, masks=None):
    """Mean NLL over (features, labels, aux) triples and the mean gradient,
    accumulated in the given order."""
    total_nll = 0.0

    def utterance_grads():
        nonlocal total_nll
        for features, labels, aux in items:
            try:
                nll, grads = model.loss_and_grads(features, labels, aux=aux, masks=masks)
            except ContractViolation as exc:
                # NaNs inside the forward pass trip the numeric contracts;
                # from the trainer's view that is a divergence.
                raise TrainingDiverged(f"loss computation failed: {exc}") from exc
            if not np.isfinite(nll):
                raise TrainingDiverged(f"non-finite loss {nll}")
            total_nll += nll
            yield grads

    acc = _mean_gradients(utterance_grads(), len(items))
    return total_nll / len(items), acc


def dev_wer(model: TransducerModel, dev: Dataset, alphabet, max_symbols=None) -> float:
    errors = 0
    words = 0
    for utt in dev:
        result = greedy_decode(
            model, utt.frames.astype(np.float64), max_symbols=max_symbols, aux=utt.aux
        )
        _, s, d, i = compute_wer(alphabet.words(utt.labels), alphabet.words(result.labels))
        errors += s + d + i
        words += len(alphabet.words(utt.labels))
    return errors / max(1, words)


def train(
    model: TransducerModel,
    train_set: Dataset,
    recipe: TrainingRecipe,
    rng: RandomStream,
    dev_set: Dataset | None = None,
    alphabet=None,
) -> TrainResult:
    """Run the full recipe; the model is updated in place.

    Aborts with the last epoch-end checkpoint attached when the loss or a
    gradient goes non-finite.
    """
    utterances = replica_expand(list(train_set.utterances), recipe.replicas)
    lengths = [u.num_frames for u in utterances]
    n = len(utterances)
    if n == 0:
        raise ContractViolation("empty training set")
    params = model.arrays()
    opt_state = init_optimizer(params, recipe.optimizer)
    steps_per_epoch = max(1, math.ceil(n / recipe.batch_size))
    metrics: list[EpochRecord] = []
    last_good: dict[str, np.ndarray] | None = None
    global_step = 0
    lr = lr_at(recipe.schedule, 0.0)

    for epoch in range(recipe.epochs):
        order = (
            rng.child(1, epoch).permutation(n) if recipe.shuffle else np.arange(n)
        )
        epoch_nll = 0.0
        epoch_labels = 0
        epoch_utts = 0
        for b_start in range(0, n, recipe.batch_size):
            batch_idx = order[b_start : b_start + recipe.batch_size]
            lr = lr_at(recipe.schedule, global_step / steps_per_epoch)
            masks = (
                sample_model_masks(
                    model, recipe.dropconnect_rate, rng.child(2, epoch, global_step)
                )
                if recipe.dropconnect_rate > 0
                else None
            )
            items = []
            n_labels = 0
            for j, idx in enumerate(batch_idx):
                utt = utterances[int(idx)]
                aug_rng = rng.child(3, epoch, int(idx))
                features, labels = _augment_batch_member(
                    utt, utterances, lengths, int(idx), recipe, aug_rng
                )
                items.append((features, labels, utt.aux))
                n_labels += max(1, len(labels))
            try:
                nll, grads = batch_loss_and_grads(model, items, masks)
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"epoch {epoch}, step {global_step}, "
                    f"utterances {[utterances[int(i)].utt_id for i in batch_idx]}: {exc}",
                    last_good_checkpoint=last_good,
                ) from exc
            clip_gradients(grads, recipe.optimizer.clip_norm)
            try:
                optimizer_step(params, grads, opt_state, lr)
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), last_good_checkpoint=last_good) from exc
            epoch_nll += nll * len(items)
            epoch_labels += n_labels
            epoch_utts += len(items)
            global_step += 1
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            train_nll=epoch_nll / max(1, epoch_utts),
            train_nll_per_label=epoch_nll / max(1, epoch_labels),
            dev_wer=(
                dev_wer(model, dev_set, alphabet, recipe.dev_max_symbols)
                if dev_set is not None and alphabet is not None
                else None
            ),
        )
        metrics.append(record)
        last_good = {k: v.copy() for k, v in params.items()}
    return TrainResult(model=model, metrics=metrics)


def _augment_batch_member(utt, utterances, lengths, idx, recipe: TrainingRecipe, rng):
    features = utt.frames.astype(np.float64)
    labels = utt.labels
    if recipe.sequence_noise is not None:
        donor_idx = pick_donor(lengths, idx, recipe.sequence_noise.length_tolerance, rng.child(0))
        donor = utterances[donor_idx].frames.astype(np.float64)
        features = sequence_noise_inject(features, donor, recipe.sequence_noise, rng.child(1))
    if recipe.specaugment is not None:
        features = spec_augment(features, recipe.specaugment, rng.child(2))
    if recipe.switchout is not None and recipe.switchout.enabled:
        labels = switchout(labels, recipe.switchout, rng.child(3))
    return features, labels


# ---------------------------------------------------------------------------
# Character LM training (plain NLL over transcript text)


def train_char_lm(
    lm_params,
    sequences,
    rng: RandomStream,
    epochs: int = 5,
    batch_size: int = 8,
    optimizer: OptimizerConfig | None = None,
    lr: float = 2e-3,
) -> list[float]:
    """Fit a character LM on label sequences; returns per-epoch mean NLL
    per symbol. Uses a constant learning rate; LM fitting is not the object
    of study, it just has to give the fusion experiments usable models."""
    from .networks import lm_loss_and_grads

    if optimizer is None:
        optimizer = OptimizerConfig(kind=ADAMW, weight_decay=0.0)
    params = lm_params.arrays()
    state = init_optimizer(params, optimizer)
    history = []
    n = len(sequences)

    def sequence_grads(batch):
        nonlocal total_nll, total_symbols
        for idx in batch:
            seq = sequences[int(idx)]
            nll, grads = lm_loss_and_grads(seq, lm_params)
            if not np.isfinite(nll):
                raise TrainingDiverged(f"non-finite LM loss on sequence {int(idx)}")
            total_nll += nll
            total_symbols += len(seq) + 1
            yield grads

    for epoch in range(epochs):
        order = rng.child(1, epoch).permutation(n)
        total_nll = 0.0
        total_symbols = 0
        for b_start in range(0, n, batch_size):
            batch = order[b_start : b_start + batch_size]
            acc = _mean_gradients(sequence_grads(batch), len(batch))
            clip_gradients(acc, optimizer.clip_norm)
            optimizer_step(params, acc, state, lr)
        history.append(total_nll / max(1, total_symbols))
    return history
