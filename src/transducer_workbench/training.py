"""Optimization: momentum SGD and AdamW, constant+decay and one-cycle
learning-rate schedules, batched gradient accumulation, and the training
loop that applies the augmentation recipe.

The training loop is deterministic under a fixed stream: data order,
DropConnect masks, and every augmentation draw come from child streams keyed
by (epoch, batch, utterance), and gradients accumulate in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
from .scoring import corpus_wer

CONST_DECAY = "const_decay"
ONE_CYCLE = "one_cycle"
SCHEDULES = (CONST_DECAY, ONE_CYCLE)


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
        if self.kind not in SCHEDULES:
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
OPTIMIZERS = (MOMENTUM_SGD, ADAMW)


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
        if self.kind not in OPTIMIZERS:
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


def group_norms(grads: dict[str, np.ndarray]) -> dict[str, float]:
    """The L2 norm of the gradients of "encoder", "prediction" and of each
    joint tensor ("joint.W_enc", ...), which the global norm hides."""
    squares: dict[str, float] = {}
    for name, g in grads.items():
        group = name if name.startswith("joint.") else name.split(".", 1)[0]
        squares[group] = squares.get(group, 0.0) + float((g * g).sum())
    return {group: math.sqrt(total) for group, total in squares.items()}


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


@dataclass
class EpochRecord:
    """One epoch's figures. The gradient telemetry is the mean and max of
    the steps' pre-clip global gradient norms, the fraction of steps whose
    gradients were clipped, and the pre-clip `group_norms` of the epoch's
    first step."""

    epoch: int
    lr: float
    train_nll: float
    train_nll_per_label: float
    dev_wer: float | None
    grad_norm_mean: float
    grad_norm_max: float
    clip_rate: float
    first_step_group_norms: dict[str, float]

    def to_dict(self) -> dict:
        """Every field: one line of metrics_{mode}.jsonl."""
        return asdict(self)

    def report_dict(self) -> dict:
        """The fields report.json carries. The gradient telemetry stays in
        metrics_{mode}.jsonl, as `verify` cannot recompute it."""
        return {k: v for k, v in self.to_dict().items() if k not in _TELEMETRY_FIELDS}


_TELEMETRY_FIELDS = ("grad_norm_mean", "grad_norm_max", "clip_rate", "first_step_group_norms")


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


def dev_wer(model: TransducerModel, dev: Dataset, alphabet) -> float:
    """Corpus WER of greedy decoding over `dev`, every utterance from one
    start state, so they share one prefix table."""
    start = model.init_decode_state()

    def word_pair(utt):
        labels = greedy_decode(model, utt.frames.astype(np.float64), aux=utt.aux, start=start)
        return alphabet.words(utt.labels), alphabet.words(labels)

    return corpus_wer(map(word_pair, dev))


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
        order = rng.child(1, epoch).permutation(n)
        epoch_nll = 0.0
        epoch_labels = 0
        epoch_utts = 0
        grad_norms = []
        clipped = 0
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
            if b_start == 0:
                first_step_group_norms = group_norms(grads)
            clip_norm = recipe.optimizer.clip_norm
            grad_norms.append(clip_gradients(grads, clip_norm))
            clipped += grad_norms[-1] > clip_norm > 0
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
                dev_wer(model, dev_set, alphabet)
                if dev_set is not None and alphabet is not None
                else None
            ),
            grad_norm_mean=sum(grad_norms) / len(grad_norms),
            grad_norm_max=max(grad_norms),
            clip_rate=clipped / len(grad_norms),
            first_step_group_norms=first_step_group_norms,
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
    if recipe.switchout is not None:
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
    lr: float = 2e-3,
) -> list[float]:
    """Fit a character LM on label sequences; returns per-epoch mean NLL
    per symbol. Uses AdamW without weight decay at a constant learning
    rate; LM fitting is not the object of study, it just has to give the
    fusion experiments usable models."""
    from .networks import lm_loss_and_grads

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
