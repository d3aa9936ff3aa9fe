"""Optimization: momentum SGD and AdamW, constant+decay and one-cycle
learning-rate schedules, batched gradient accumulation, and one minibatch
loop, `_fit`, with one divergence handling, through which the transducer
(`train`, with its augmentation recipe) and both character LMs
(`train_char_lm`) train.

Training is deterministic under a fixed stream: data order, DropConnect
masks, and every augmentation draw come from child streams keyed by (epoch,
batch, utterance), and gradients accumulate in a fixed order.

A step allocates no gradient-sized array once the first step is done. Each
training call owns one `GradientWorkspace`: a minibatch's first item's
backward passes write into its `mean` arrays, and every later item's into
its `item` arrays, which `_batch_gradients` adds to `mean`; the clip norm,
AdamW and momentum SGD form their elementwise temporaries in two buffers
of the optimizer state (`temps`); and the DropConnect draws hold their
masked matrices for the whole minibatch. Every array operation is the one
it replaces, in the same order, so the results are the same bit for bit.

What lives for the whole call (the workspace and the optimizer state) lives
in anonymous memory mappings (`numerics.mapped_zeros`), which go back to the
OS when the call returns. Freed into the C heap instead, those megabytes
leave a hole that the heap can return only if nothing a later stage
allocated sits above it; where something does, the hole stays resident
beneath the later stages' objects, and peak RSS moves by megabytes with the
process layout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import networks
from .augment import (
    NoiseInjectConfig,
    SpecAugmentConfig,
    SwitchoutConfig,
    donor_pools,
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
from .numerics import RandomStream, mapped_copy, mapped_zeros
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
    """Moments plus `temps`: for each parameter, two arrays of its shape,
    views of two buffers that all parameters share, which hold a step's
    elementwise temporaries (and `clip_gradients`' squares). All of them are
    views of memory mappings (`numerics.mapped_zeros`)."""

    config: OptimizerConfig
    step: int = 0
    velocity: dict = field(default_factory=dict)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    temps: dict = field(default_factory=dict)


def init_optimizer(params: dict[str, np.ndarray], config: OptimizerConfig) -> OptimizerState:
    state = OptimizerState(config=config)
    shapes = {name: arr.shape for name, arr in params.items()}
    size = max((arr.size for arr in params.values()), default=0)
    buffers = mapped_zeros({"temps": (2, size)})["temps"]
    for name, arr in params.items():
        state.temps[name] = tuple(buf[: arr.size].reshape(arr.shape) for buf in buffers)
    if config.kind == MOMENTUM_SGD:
        state.velocity = mapped_zeros(shapes)
    else:
        state.m = mapped_zeros(shapes)
        state.v = mapped_zeros(shapes)
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
        p -= np.multiply(lr, vel, out=state.temps[name][0])


def adamw_step(params, grads, state: OptimizerState, lr: float):
    """Decoupled weight decay applied before the bias-corrected moment update:
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), each operation in that
    order, its temporaries in the state's `temps` arrays."""
    _check_finite(grads)
    state.step += 1
    c = state.config
    bc1 = 1.0 - c.beta1**state.step
    bc2 = 1.0 - c.beta2**state.step
    for name, p in params.items():
        a, b = state.temps[name]
        if c.weight_decay:
            p -= np.multiply(lr * c.weight_decay, p, out=a)
        m = state.m[name]
        v = state.v[name]
        g = grads[name]
        m *= c.beta1
        m += np.multiply(1.0 - c.beta1, g, out=a)
        v *= c.beta2
        v += np.multiply(np.multiply(1.0 - c.beta2, g, out=b), g, out=b)
        np.multiply(lr, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), c.eps, out=b)
        p -= np.divide(a, b, out=a)


def optimizer_step(params, grads, state: OptimizerState, lr: float):
    if state.config.kind == MOMENTUM_SGD:
        momentum_sgd_step(params, grads, state, lr)
    else:
        adamw_step(params, grads, state, lr)


def _square_sum(g: np.ndarray, temps, name: str) -> float:
    """(g * g).sum(), the squares formed in the first `temps` array of
    `name`, an optimizer state's."""
    return float(np.multiply(g, g, out=temps[name][0]).sum())


def group_norms(grads: dict[str, np.ndarray], temps) -> dict[str, float]:
    """The L2 norm of the gradients of "encoder", "prediction" and of each
    joint tensor ("joint.W_enc", ...), which the global norm hides, summed
    in dict order."""
    squares: dict[str, float] = {}
    for name, g in grads.items():
        group = name if name.startswith("joint.") else name.split(".", 1)[0]
        squares[group] = squares.get(group, 0.0) + _square_sum(g, temps, name)
    return {group: math.sqrt(total) for group, total in squares.items()}


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float, temps) -> float:
    """Scale all gradients so the global L2 norm, summed in dict order, is
    at most max_norm. Returns the pre-clip norm. `temps`, an optimizer
    state's, holds the squares."""
    total = math.sqrt(sum(_square_sum(g, temps, name) for name, g in grads.items()))
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
    expansion_factor: int = 3  # the per-epoch dev WER's greedy label cap (`alsd_cap`)


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
    metrics: list[EpochRecord]


@dataclass
class GradientWorkspace:
    """The gradient arrays one training call reuses at every step: `mean`
    receives a minibatch's first item's gradients (the `out` of its loss)
    and then their minibatch mean (`_batch_gradients`), and `item` each
    later item's gradients; a call whose minibatches all hold one item
    never makes `item`. Each is a copy of the first gradients written in
    its role, so they keep their names, shapes and order, and both are
    views of memory mappings (`numerics.mapped_zeros`)."""

    item: dict | None = None
    mean: dict | None = None


def _batch_gradients(loss, items, ws: GradientWorkspace) -> list[float]:
    """Each item's NLL, in order, and the mean of their gradients, summed in
    that order, in `ws.mean`. `loss(item, out)` returns an item's NLL and
    gradients, written into `out`: `ws.mean` for the first item, `ws.item`
    for each later one, which is then added to `ws.mean`. A one-item batch
    skips the division, as x / 1 is x for every float. A non-finite loss, or
    one whose numeric contracts fail, is a divergence."""
    nlls = []
    for k, item in enumerate(items):
        out = ws.item if k else ws.mean
        try:
            nll, grads = loss(item, out)
        except ContractViolation as exc:
            # NaNs inside the forward pass trip the numeric contracts;
            # from the trainer's view that is a divergence.
            raise TrainingDiverged(f"loss computation failed: {exc}") from exc
        if not np.isfinite(nll):
            raise TrainingDiverged(f"non-finite loss {nll}")
        nlls.append(nll)
        if out is None:  # the first gradients of the call in this role
            out = mapped_copy(grads)
            if k:
                ws.item = out
            else:
                ws.mean = out
        if k:
            for name, g in out.items():
                ws.mean[name] += g
    if len(items) > 1:
        for g in ws.mean.values():
            g /= len(items)
    return nlls


def batch_loss_and_grads(model: TransducerModel, items, masks=None, workspace=None):
    """Mean NLL over (features, labels, aux) triples and the mean gradient,
    accumulated in the given order, in the arrays of `workspace` (a
    `GradientWorkspace`), or of a new one."""
    ws = workspace if workspace is not None else GradientWorkspace()

    def loss(item, out):
        features, labels, aux = item
        return model.loss_and_grads(features, labels, aux=aux, masks=masks, out=out)

    total_nll = 0.0
    for nll in _batch_gradients(loss, items, ws):
        total_nll += nll
    return total_nll / len(items), ws.mean


def _fit(params, state: OptimizerState, rng: RandomStream, epochs: int, n: int,
         batch_size: int, batch_grads, describe):
    """Yields each epoch's pre-clip gradient norms. Epoch e takes items
    0..n-1 in the order of `rng.child(1, e).permutation(n)`, `batch_size` at
    a time, and applies the gradient and rate `batch_grads(epoch, step,
    batch)` returns. A step's overflow (which would clip a gradient to
    zero) or non-finite loss or gradient raises TrainingDiverged naming the
    epoch, step and `describe(batch)`."""
    step = 0
    for epoch in range(epochs):
        order = rng.child(1, epoch).permutation(n)
        norms = []
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    grads, lr = batch_grads(epoch, step, batch)
                    norms.append(clip_gradients(grads, state.config.clip_norm, state.temps))
                    optimizer_step(params, grads, state, lr)
            except (TrainingDiverged, FloatingPointError) as exc:
                message = f"epoch {epoch}, step {step}, {describe(batch)}: {exc}"
                raise TrainingDiverged(message) from exc
            step += 1
        yield norms


def dev_wer(model: TransducerModel, dev: Dataset, alphabet, expansion_factor: int) -> float:
    """Corpus WER of greedy decoding over `dev` at the label cap of
    `expansion_factor`, every utterance from one start state, so they share
    one prefix table."""
    start = model.init_decode_state()

    def word_pair(utt):
        labels = greedy_decode(model, utt.frames.astype(np.float64), aux=utt.aux, start=start,
                               expansion_factor=expansion_factor)
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
    """Run the full recipe through `_fit`; the model is updated in place."""
    utterances = replica_expand(list(train_set.utterances), recipe.replicas)
    lengths = [u.num_frames for u in utterances]
    n = len(utterances)
    if n == 0:
        raise ContractViolation("empty training set")
    pools = (
        donor_pools(lengths, recipe.sequence_noise.length_tolerance)
        if recipe.sequence_noise is not None
        else None
    )
    params = model.arrays()
    opt_state = init_optimizer(params, recipe.optimizer)
    workspace = GradientWorkspace()
    steps_per_epoch = max(1, math.ceil(n / recipe.batch_size))
    clip_norm = recipe.optimizer.clip_norm
    lr, epoch_nll, epoch_labels, epoch_utts, first_step_group_norms = None, 0.0, 0, 0, None

    def batch_grads(epoch, step, batch):
        nonlocal lr, epoch_nll, epoch_labels, epoch_utts, first_step_group_norms
        lr = lr_at(recipe.schedule, step / steps_per_epoch)
        masks = sample_model_masks(model, recipe.dropconnect_rate, rng.child(2, epoch, step))
        items = []
        for idx in map(int, batch):
            utt = utterances[idx]
            features, labels = _augment_batch_member(
                utt, utterances, lengths, idx, recipe, rng.child(3, epoch, idx), pools
            )
            items.append((features, labels, utt.aux))
            epoch_labels += max(1, len(labels))
        nll, grads = batch_loss_and_grads(model, items, masks, workspace)
        if not epoch_utts:
            first_step_group_norms = group_norms(grads, opt_state.temps)
        epoch_nll += nll * len(items)
        epoch_utts += len(items)
        return grads, lr

    metrics: list[EpochRecord] = []
    epochs = _fit(params, opt_state, rng, recipe.epochs, n, recipe.batch_size, batch_grads,
                  lambda batch: f"utterances {[utterances[int(i)].utt_id for i in batch]}")
    for epoch, grad_norms in enumerate(epochs):
        metrics.append(EpochRecord(
            epoch=epoch,
            lr=lr,
            train_nll=epoch_nll / max(1, epoch_utts),
            train_nll_per_label=epoch_nll / max(1, epoch_labels),
            dev_wer=(
                dev_wer(model, dev_set, alphabet, recipe.expansion_factor)
                if dev_set is not None and alphabet is not None
                else None
            ),
            grad_norm_mean=sum(grad_norms) / len(grad_norms),
            grad_norm_max=max(grad_norms),
            clip_rate=sum(norm > clip_norm > 0 for norm in grad_norms) / len(grad_norms),
            first_step_group_norms=first_step_group_norms,
        ))
        epoch_nll, epoch_labels, epoch_utts = 0.0, 0, 0
    return TrainResult(metrics=metrics)


def _augment_batch_member(utt, utterances, lengths, idx, recipe: TrainingRecipe, rng, pools):
    features = utt.frames.astype(np.float64)
    labels = utt.labels
    if recipe.sequence_noise is not None:
        donor_idx = pick_donor(lengths, idx, rng.child(0), pools)
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
    epochs: int,
    batch_size: int,
    lr: float,
) -> list[float]:
    """Fit a character LM on label sequences through `_fit`; returns
    per-epoch mean NLL per symbol. Uses AdamW without weight decay at the
    constant learning rate `lr`; `[lm]` sets all three settings. LM fitting
    is not the object of study, it just has to give the fusion experiments
    usable models."""
    params = lm_params.arrays()
    state = init_optimizer(params, OptimizerConfig(kind=ADAMW, weight_decay=0.0))
    ws = GradientWorkspace()
    symbols = sum(len(seq) + 1 for seq in sequences)  # every epoch reads each sequence once
    total_nll = 0.0

    def loss(seq, out):
        # Read from `networks` at call time, where tests and the tracer wrap it.
        return networks.lm_loss_and_grads(seq, lm_params, out=out)

    def batch_grads(epoch, step, batch):
        nonlocal total_nll
        for nll in _batch_gradients(loss, [sequences[int(i)] for i in batch], ws):
            total_nll += nll
        return ws.mean, lr

    history = []
    for _ in _fit(params, state, rng, epochs, len(sequences), batch_size, batch_grads,
                  lambda batch: f"sequences {batch.tolist()}"):
        history.append(total_nll / max(1, symbols))
        total_nll = 0.0
    return history
