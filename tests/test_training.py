import math
import mmap
import tracemalloc

import numpy as np
import pytest

from helpers import mapping_of
from transducer_workbench.augment import NoiseInjectConfig, SwitchoutConfig
from transducer_workbench.data import (
    SyntheticTaskConfig,
    generate_synthetic_task,
)
from transducer_workbench.errors import ContractViolation, TrainingDiverged
from transducer_workbench.experiment import build_model_config, default_config
from transducer_workbench.model import ModelConfig, init_model, sample_model_masks
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    PredictionConfig,
    init_char_lm_params,
    lm_score,
)
from transducer_workbench.numerics import RandomStream
from transducer_workbench.training import (
    ADAMW,
    CONST_DECAY,
    MOMENTUM_SGD,
    ONE_CYCLE,
    GradientWorkspace,
    OptimizerConfig,
    ScheduleConfig,
    TrainingRecipe,
    _augment_batch_member,
    adamw_step,
    batch_loss_and_grads,
    clip_gradients,
    init_optimizer,
    lr_at,
    momentum_sgd_step,
    train,
    train_char_lm,
)


class TestSchedules:
    def test_one_cycle_endpoints_exact(self):
        s = ScheduleConfig(kind=ONE_CYCLE)
        assert lr_at(s, 0.0) == 5e-5
        assert lr_at(s, 6.0) == 5e-4
        assert lr_at(s, 20.0) == 0.0

    def test_one_cycle_warmup_midpoint(self):
        s = ScheduleConfig(kind=ONE_CYCLE)
        assert lr_at(s, 3.0) == pytest.approx(2.75e-4, abs=1e-19)

    def test_one_cycle_continuous_and_peaked_at_warmup(self):
        s = ScheduleConfig(kind=ONE_CYCLE)
        grid = np.linspace(0, 20, 2001)
        values = [lr_at(s, float(e)) for e in grid]
        diffs = np.abs(np.diff(values))
        assert diffs.max() < 1e-5  # no jumps on a fine grid
        assert grid[int(np.argmax(values))] == pytest.approx(6.0, abs=0.01)

    def test_const_decay_values(self):
        s = ScheduleConfig(kind=CONST_DECAY)
        assert lr_at(s, 0.0) == 0.01
        assert lr_at(s, 10.0) == 0.01
        assert lr_at(s, 10.9) == 0.01  # integer-epoch granularity
        assert lr_at(s, 11.0) == 0.01 * 0.7
        assert lr_at(s, 12.0) == pytest.approx(0.01 * 0.7**2, abs=1e-18)
        assert lr_at(s, 12.0) == pytest.approx(4.9e-3, abs=1e-12)
        assert lr_at(s, 15.0) == 0.01 * 0.7**5

    def test_negative_rejected(self):
        with pytest.raises(ContractViolation):
            lr_at(ScheduleConfig(kind=ONE_CYCLE), -0.1)

    def test_beyond_total_rejected(self):
        with pytest.raises(ContractViolation):
            lr_at(ScheduleConfig(kind=ONE_CYCLE), 21.0)


class TestOptimizers:
    def test_sgd_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer(params, OptimizerConfig(kind=MOMENTUM_SGD))
        momentum_sgd_step(params, {"w": np.zeros(2)}, state, 0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_sgd_first_step_delta(self):
        params = {"w": np.array([1.0])}
        state = init_optimizer(params, OptimizerConfig(kind=MOMENTUM_SGD))
        momentum_sgd_step(params, {"w": np.array([2.0])}, state, 0.1)
        assert params["w"][0] == pytest.approx(1.0 - 0.1 * 2.0, abs=1e-15)

    def test_adamw_zero_gradient_zero_decay_no_change(self):
        params = {"w": np.array([3.0])}
        state = init_optimizer(params, OptimizerConfig(kind=ADAMW, weight_decay=0.0))
        adamw_step(params, {"w": np.zeros(1)}, state, 0.1)
        np.testing.assert_array_equal(params["w"], [3.0])

    def test_adamw_first_step_sign_scaled(self):
        config = OptimizerConfig(kind=ADAMW, weight_decay=0.0, eps=1e-12)
        for g in (0.5, -3.0, 10.0):
            params = {"w": np.array([1.0])}
            state = init_optimizer(params, config)
            adamw_step(params, {"w": np.array([g])}, state, 0.01)
            assert params["w"][0] == pytest.approx(1.0 - 0.01 * np.sign(g), rel=1e-6)

    def test_adamw_decay_applied_before_moments(self):
        config = OptimizerConfig(kind=ADAMW, weight_decay=0.5, eps=1e-12)
        params = {"w": np.array([2.0])}
        state = init_optimizer(params, config)
        adamw_step(params, {"w": np.zeros(1)}, state, 0.1)
        # zero gradient: only the decoupled decay moves the parameter
        assert params["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-15)

    def test_sgd_quadratic_bowl_spec_window(self):
        # 200 steps at lr 0.01 reach |x| < 1e-6 with momentum 0.8; the
        # default 0.9 has contraction sqrt(0.9)/step and needs ~220 steps.
        config = OptimizerConfig(kind=MOMENTUM_SGD, momentum=0.8)
        params = {"x": np.array([1.0])}
        state = init_optimizer(params, config)
        for _ in range(200):
            momentum_sgd_step(params, {"x": 2.0 * params["x"]}, state, 0.01)
        assert abs(params["x"][0]) < 1e-6

    def test_sgd_quadratic_bowl_default_momentum(self):
        config = OptimizerConfig(kind=MOMENTUM_SGD)
        params = {"x": np.array([1.0])}
        state = init_optimizer(params, config)
        for _ in range(500):
            momentum_sgd_step(params, {"x": 2.0 * params["x"]}, state, 0.01)
        assert abs(params["x"][0]) < 1e-10

    def test_adamw_quadratic_bowl_convergence(self):
        # AdamW at a constant rate oscillates with decaying amplitude: the
        # trajectory crosses 1e-6 and the late iterates stay small.
        config = OptimizerConfig(kind=ADAMW, weight_decay=0.0)
        params = {"x": np.array([1.0])}
        state = init_optimizer(params, config)
        best = np.inf
        for _ in range(2000):
            adamw_step(params, {"x": 2.0 * params["x"]}, state, 0.01)
            best = min(best, abs(params["x"][0]))
        assert best < 1e-6
        assert abs(params["x"][0]) < 1e-3

    def test_nonfinite_gradient_aborts_with_name(self):
        params = {"bad_tensor": np.array([1.0])}
        state = init_optimizer(params, OptimizerConfig(kind=MOMENTUM_SGD))
        with pytest.raises(TrainingDiverged, match="bad_tensor"):
            momentum_sgd_step(params, {"bad_tensor": np.array([np.nan])}, state, 0.1)

    def test_clip_gradients(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 1.0, init_optimizer(grads, OptimizerConfig()).temps)
        assert norm == pytest.approx(5.0)
        assert math.sqrt(sum(float((g**2).sum()) for g in grads.values())) == pytest.approx(1.0)
        grads2 = {"a": np.array([0.3])}
        clip_gradients(grads2, 1.0, init_optimizer(grads2, OptimizerConfig()).temps)
        np.testing.assert_array_equal(grads2["a"], [0.3])


def small_task(train_size=10, seed=5):
    config = SyntheticTaskConfig(
        num_labels=4,
        feature_dim=6,
        frames_per_symbol=(2, 3),
        noise_level=0.1,
        length_range=(2, 4),
        train_size=train_size,
        dev_size=4,
        test_size=4,
    )
    return generate_synthetic_task(config, RandomStream(seed))


def small_model(task, seed=7, mode="additive", cells=12, pred=10, joint=8, embed=6):
    config = ModelConfig(
        num_labels=task.config.num_labels,
        encoder=EncoderConfig(layers=1, cells=cells, stacking=2, skip=2,
                              input_dim=task.config.feature_dim),
        prediction=PredictionConfig(cells=pred, embed_dim=embed),
        joint_dim=joint,
        joint_mode=mode,
    )
    return init_model(config, RandomStream(seed))


def plain_recipe(**kw):
    defaults = dict(
        epochs=2,
        batch_size=4,
        optimizer=OptimizerConfig(kind=ADAMW),
        schedule=ScheduleConfig(kind=ONE_CYCLE, total_epochs=50.0),
        dropconnect_rate=0.0,
    )
    defaults.update(kw)
    return TrainingRecipe(**defaults)


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        task = small_task()
        model = small_model(task)
        before = {k: v.copy() for k, v in model.arrays().items()}
        result = train(model, task.train, plain_recipe(epochs=0), RandomStream(1))
        assert result.metrics == []
        for name, arr in model.arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_batch_gradient_equals_mean_of_singles(self):
        task = small_task()
        model = small_model(task)
        items = [
            (utt.frames.astype(np.float64), utt.labels, None)
            for utt in list(task.train)[:8]
        ]
        nll_batch, grads_batch = batch_loss_and_grads(model, items)
        singles = [batch_loss_and_grads(model, [item]) for item in items]
        assert nll_batch == pytest.approx(
            np.mean([s[0] for s in singles]), abs=1e-12
        )
        for name in grads_batch:
            mean = np.mean([s[1][name] for s in singles], axis=0)
            assert np.max(np.abs(grads_batch[name] - mean)) <= 1e-10

    def test_batch_gradient_is_the_item_order_sum_bit_for_bit(self):
        # Item 0's gradients land in the mean's arrays and the later items'
        # are added in item order, then divided by the count. A one-item
        # batch is its item's gradients, undivided, and makes no `item`.
        task = small_task()
        model = small_model(task)
        items = [(u.frames.astype(np.float64), u.labels, None) for u in list(task.train)[:3]]
        fresh = [model.loss_and_grads(f, y, aux=a)[1] for f, y, a in items]
        expected = {name: (fresh[0][name] + fresh[1][name] + fresh[2][name]) / 3 for name in fresh[0]}
        workspace = GradientWorkspace()
        for batch, want, makes_item in ((items[:1], fresh[0], False), (items, expected, True),
                                        (items[1:2], fresh[1], True)):
            _, mean = batch_loss_and_grads(model, batch, None, workspace)
            assert mean is workspace.mean and (workspace.item is not None) == makes_item
            assert list(mean) == list(want)
            for name, arr in mean.items():
                assert arr.tobytes() == want[name].tobytes(), name

    def test_seed_determinism(self):
        task = small_task()
        recipe = plain_recipe(epochs=1, dropconnect_rate=0.1)
        model_a = small_model(task)
        model_b = small_model(task)
        res_a = train(model_a, task.train, recipe, RandomStream(42))
        res_b = train(model_b, task.train, recipe, RandomStream(42))
        assert abs(res_a.metrics[0].train_nll - res_b.metrics[0].train_nll) <= 1e-12
        for name, arr in model_a.arrays().items():
            np.testing.assert_array_equal(arr, model_b.arrays()[name])

    def test_loss_decreases(self):
        task = small_task(train_size=16)
        model = small_model(task)
        result = train(model, task.train, plain_recipe(epochs=5), RandomStream(3))
        nlls = [r.train_nll for r in result.metrics]
        assert nlls[-1] < nlls[0]

    def test_overfit_small_dataset(self):
        # 10 utterances, 200 epochs: per-label NLL below 0.01.
        task = small_task(train_size=10)
        model = small_model(task, cells=16, pred=12, joint=12, embed=8)
        recipe = plain_recipe(
            epochs=200,
            batch_size=10,
            optimizer=OptimizerConfig(kind=ADAMW, weight_decay=0.0),
            schedule=ScheduleConfig(
                kind=ONE_CYCLE, total_epochs=200.0, warmup_epochs=10.0, peak_lr=3e-2,
                start_lr=1e-3,
            ),
        )
        result = train(model, task.train, recipe, RandomStream(4))
        assert result.metrics[-1].train_nll_per_label < 0.01

    def test_dev_wer_recorded(self):
        task = small_task()
        model = small_model(task)
        result = train(
            model,
            task.train,
            plain_recipe(epochs=1),
            RandomStream(5),
            dev_set=task.dev,
            alphabet=task.alphabet,
        )
        assert result.metrics[0].dev_wer is not None
        assert 0.0 <= result.metrics[0].dev_wer

    def test_augmented_recipe_runs(self):
        task = small_task()
        model = small_model(task)
        from transducer_workbench.augment import NoiseInjectConfig, SpecAugmentConfig

        recipe = plain_recipe(
            epochs=1,
            dropconnect_rate=0.25,
            switchout=SwitchoutConfig(temperature=10.0, vocab=task.config.num_labels),
            sequence_noise=NoiseInjectConfig(probability=0.5, scale=0.2),
            specaugment=SpecAugmentConfig(freq_masks=1, freq_max_width=2,
                                          time_masks=1, time_max_width=3),
            replicas=(("speed", 0.9), ("tempo", 1.1)),
        )
        result = train(model, task.train, recipe, RandomStream(6))
        assert np.isfinite(result.metrics[0].train_nll)

    def test_nan_parameters_abort(self):
        task = small_task()
        model = small_model(task)
        model.arrays()["joint.W_out"][0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train(model, task.train, plain_recipe(epochs=1), RandomStream(7))

    def test_gradient_whose_norm_overflows_aborts(self, monkeypatch):
        # Squares of 1e200 overflow, so the clip norm is inf and its scale
        # 0: the step must abort rather than zero the gradient and go on.
        import transducer_workbench.training as training_mod

        task = small_task()
        model = small_model(task)
        real = training_mod.batch_loss_and_grads

        def huge(*args):
            nll, grads = real(*args)
            grads["joint.W_out"][0, 0] = 1e200
            return nll, grads

        monkeypatch.setattr(training_mod, "batch_loss_and_grads", huge)
        before = {k: v.copy() for k, v in model.arrays().items()}
        with pytest.raises(TrainingDiverged, match="epoch 0, step 0, .*overflow"):
            training_mod.train(model, task.train, plain_recipe(epochs=1), RandomStream(7))
        assert all(np.array_equal(v, before[k]) for k, v in model.arrays().items())

    def test_divergence_carries_last_checkpoint(self, monkeypatch):
        # Inject a fault in epoch 2: the error must name its epoch and step
        # (the tanh/softmax stack saturates rather than overflowing, so
        # organic NaNs need a fault seam).
        import transducer_workbench.training as training_mod

        task = small_task()
        model = small_model(task)
        real = training_mod.batch_loss_and_grads
        calls = {"n": 0}
        steps_in_epoch = math.ceil(len(task.train) / 4)

        def flaky(model_, items, *args):
            calls["n"] += 1
            if calls["n"] > steps_in_epoch:
                raise TrainingDiverged("non-finite loss nan")
            return real(model_, items, *args)

        monkeypatch.setattr(training_mod, "batch_loss_and_grads", flaky)
        message = f"epoch 1, step {steps_in_epoch}, .*non-finite loss nan"
        with pytest.raises(TrainingDiverged, match=message):
            training_mod.train(model, task.train, plain_recipe(epochs=2), RandomStream(7))


def reference_train(model, train_set, recipe, rng):
    """`train`'s steps with new arrays everywhere: new DropConnect draws,
    donors by a scan of all lengths, a new gradient dict per utterance, a
    copied accumulator, and the optimizer formulas with their temporaries.
    Returns the per-step pre-clip norms and mean NLLs."""
    utterances = list(train_set.utterances)
    lengths = [u.num_frames for u in utterances]
    n, c = len(utterances), recipe.optimizer
    params = model.arrays()
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    steps_per_epoch = max(1, math.ceil(n / recipe.batch_size))
    norms, nlls, step = [], [], 0
    for epoch in range(recipe.epochs):
        order = rng.child(1, epoch).permutation(n)
        for b_start in range(0, n, recipe.batch_size):
            batch = [int(i) for i in order[b_start : b_start + recipe.batch_size]]
            lr = lr_at(recipe.schedule, step / steps_per_epoch)
            masks = sample_model_masks(model, recipe.dropconnect_rate, rng.child(2, epoch, step))
            acc, total = None, 0.0
            for idx in batch:
                utt = utterances[idx]
                features, labels = _augment_batch_member(
                    utt, utterances, lengths, idx, recipe, rng.child(3, epoch, idx)
                )
                nll, grads = model.loss_and_grads(features, labels, aux=utt.aux, masks=masks)
                total += nll
                if acc is None:
                    acc = {k: g.copy() for k, g in grads.items()}
                else:
                    for k, g in grads.items():
                        acc[k] += g
            for g in acc.values():
                g /= len(batch)
            norm = math.sqrt(sum(float((g * g).sum()) for g in acc.values()))
            if c.clip_norm > 0 and norm > c.clip_norm:
                for g in acc.values():
                    g *= c.clip_norm / norm
            step += 1
            bc1, bc2 = 1.0 - c.beta1**step, 1.0 - c.beta2**step
            for k, p in params.items():
                if c.kind == MOMENTUM_SGD:
                    m[k] *= c.momentum
                    m[k] += acc[k]
                    p -= lr * m[k]
                    continue
                p -= lr * c.weight_decay * p
                m[k] *= c.beta1
                m[k] += (1.0 - c.beta1) * acc[k]
                v2[k] *= c.beta2
                v2[k] += (1.0 - c.beta2) * acc[k] * acc[k]
                p -= lr * (m[k] / bc1) / (np.sqrt(v2[k] / bc2) + c.eps)
            norms.append(norm)
            nlls.append(total / len(batch))
    return norms, nlls


class TestAllocationStableStep:
    """The trainer reuses one gradient workspace, one accumulator, the
    optimizer's temporary buffers and one masked matrix per draw; none of it
    may change a bit of the result."""

    @pytest.mark.parametrize("kind", [ADAMW, MOMENTUM_SGD])
    def test_every_step_clipped_equals_the_new_array_loop(self, kind):
        task = small_task(train_size=10)
        recipe = plain_recipe(
            epochs=2, batch_size=4, dropconnect_rate=0.25,
            optimizer=OptimizerConfig(kind=kind, clip_norm=1e-3),
            sequence_noise=NoiseInjectConfig(probability=0.8, scale=0.4, length_tolerance=0.2),
            switchout=SwitchoutConfig(temperature=10.0, vocab=task.config.num_labels),
        )
        model, reference = small_model(task), small_model(task)
        metrics = train(model, task.train, recipe, RandomStream(60)).metrics
        norms, nlls = reference_train(reference, task.train, recipe, RandomStream(60))
        assert min(norms) > 1e-3  # every step clipped
        per_epoch = len(norms) // recipe.epochs
        for epoch, record in enumerate(metrics):
            steps = slice(epoch * per_epoch, (epoch + 1) * per_epoch)
            assert record.grad_norm_max == max(norms[steps]) and record.clip_rate == 1.0
        for name, arr in model.arrays().items():
            assert arr.tobytes() == reference.arrays()[name].tobytes(), name

    @pytest.mark.parametrize("kind", [ADAMW, MOMENTUM_SGD])
    def test_call_state_lives_in_memory_mappings(self, kind):
        # Optimizer state and the gradient workspace are views of anonymous
        # mappings, which go back to the OS when a training call ends, so
        # no training-sized free hole is left in the C heap.
        task = small_task(train_size=4)
        model = small_model(task)
        state = init_optimizer(model.arrays(), OptimizerConfig(kind=kind))
        moments = [state.velocity] if kind == MOMENTUM_SGD else [state.m, state.v]
        arrays = [arr for moment in moments for arr in moment.values()]
        arrays += [buf for pair in state.temps.values() for buf in pair]
        workspace = GradientWorkspace()
        items = [(u.frames.astype(np.float64), u.labels, u.aux) for u in task.train]
        batch_loss_and_grads(model, items, None, workspace)
        arrays += [*workspace.item.values(), *workspace.mean.values()]
        assert arrays and all(isinstance(mapping_of(arr), mmap.mmap) for arr in arrays)
        assert all(not np.shares_memory(arr, p) for arr in arrays for p in model.arrays().values())

    def test_warm_step_allocates_less_than_half_the_parameters(self):
        # The default model on default-sized utterances: a step after the
        # first allocates only per-utterance activations, no gradient set.
        task_config = SyntheticTaskConfig(train_size=8, dev_size=1, test_size=1)
        task = generate_synthetic_task(task_config, RandomStream(61))
        model = init_model(build_model_config(default_config(), "additive"), RandomStream(62))
        items = [(u.frames.astype(np.float64), u.labels, u.aux) for u in task.train]
        masks = sample_model_masks(model, 0.25, RandomStream(63))
        workspace = GradientWorkspace()
        batch_loss_and_grads(model, items, masks, workspace)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch_loss_and_grads(model, items, masks, workspace)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        param_bytes = sum(arr.nbytes for arr in model.arrays().values())
        assert peak < param_bytes / 2, (peak, param_bytes)


class TestGradientTelemetry:
    def _train(self, clip_norm, epochs=2, batch_size=4):
        task = small_task()
        recipe = plain_recipe(
            epochs=epochs,
            batch_size=batch_size,
            optimizer=OptimizerConfig(kind=ADAMW, clip_norm=clip_norm),
        )
        return train(small_model(task), task.train, recipe, RandomStream(9)).metrics

    def test_clip_rate_bounds(self):
        for record in self._train(clip_norm=1e9):
            assert record.clip_rate == 0.0
            assert 0.0 < record.grad_norm_mean <= record.grad_norm_max
        for record in self._train(clip_norm=1e-9):
            assert record.clip_rate == 1.0

    def test_max_is_the_pre_clip_global_norm(self):
        # One step per epoch over the whole training set, so the first
        # epoch's norm is that of the initial model's batch gradient, summed
        # in the epoch's order.
        task = small_task()
        recipe = plain_recipe(
            epochs=1,
            batch_size=len(task.train),
            optimizer=OptimizerConfig(kind=ADAMW, clip_norm=1e-9),
        )
        utts = task.train.utterances
        order = RandomStream(9).child(1, 0).permutation(len(utts))
        items = [(utts[i].frames.astype(np.float64), utts[i].labels, utts[i].aux) for i in order]
        _, grads = batch_loss_and_grads(small_model(task), items)
        expected = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        [record] = train(small_model(task), task.train, recipe, RandomStream(9)).metrics
        assert record.grad_norm_max == expected
        assert record.grad_norm_mean == expected
        assert record.clip_rate == 1.0

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_first_step_group_norms_split_the_global_norm(self, mode):
        # One step per epoch, so each epoch's first step is the step whose
        # pre-clip global norm grad_norm_max records.
        task = small_task()
        recipe = plain_recipe(
            epochs=2,
            batch_size=len(task.train),
            optimizer=OptimizerConfig(kind=ADAMW, clip_norm=1e-9),
        )
        model = init_model(small_model(task, mode=mode).config, RandomStream(7))
        joint = [name for name in model.arrays() if name.startswith("joint.")]
        assert len(joint) == 4
        for record in train(model, task.train, recipe, RandomStream(9)).metrics:
            groups = record.first_step_group_norms
            assert sorted(groups) == sorted([*joint, "encoder", "prediction"])
            squared = record.grad_norm_max**2
            assert abs(sum(norm**2 for norm in groups.values()) - squared) <= 1e-12 * squared

    def test_telemetry_stays_out_of_the_report_fields(self):
        [record] = self._train(clip_norm=1.0, epochs=1)
        full = record.to_dict()
        assert {"grad_norm_mean", "grad_norm_max", "clip_rate", "first_step_group_norms"} <= set(full)
        assert record.report_dict() == {
            k: full[k] for k in ("epoch", "lr", "train_nll", "train_nll_per_label", "dev_wer")
        }


class TestCharLMTraining:
    def test_lm_learns_skewed_distribution(self):
        rng = RandomStream(8)
        # Strongly skewed unigram text: the LM should beat the uniform score.
        sequences = [
            tuple(int(v) for v in rng.child(9, i).integers(0, 2, size=6))
            for i in range(40
            )
        ]
        lm = init_char_lm_params(4, CharLMConfig(layers=1, cells=12, embed_dim=6), rng.child(1))
        history = train_char_lm(lm, sequences, rng.child(2), epochs=8, lr=5e-3)
        assert history[-1] < history[0]
        uniform_nll = math.log(lm.eos + 1)
        assert history[-1] < uniform_nll
        assert np.isfinite(lm_score((0, 1, 0), lm))

    @staticmethod
    def _lm_and_sequences():
        rng = RandomStream(8)
        sequences = [tuple(int(v) for v in rng.child(9, i).integers(0, 3, size=1 + i % 4))
                     for i in range(10)]
        lm = init_char_lm_params(4, CharLMConfig(layers=1, cells=6, embed_dim=4), rng.child(1))
        return lm, sequences

    def test_gradient_whose_norm_overflows_aborts(self, monkeypatch):
        # The LM steps through the transducer's loop, so a gradient whose
        # squares overflow aborts here too, rather than being clipped to 0.
        import transducer_workbench.networks as networks_mod

        lm, sequences = self._lm_and_sequences()
        real = networks_mod.lm_loss_and_grads

        def huge(*args, **kwargs):
            nll, grads = real(*args, **kwargs)
            grads["W_out"][0, 0] = 1e200
            return nll, grads

        monkeypatch.setattr(networks_mod, "lm_loss_and_grads", huge)
        before = {k: v.copy() for k, v in lm.arrays().items()}
        with pytest.raises(TrainingDiverged, match=r"epoch 0, step 0, sequences \[.*overflow"):
            train_char_lm(lm, sequences, RandomStream(2), epochs=1, batch_size=4)
        assert all(np.array_equal(v, before[k]) for k, v in lm.arrays().items())

    def test_divergence_carries_last_checkpoint(self, monkeypatch):
        # A NaN loss in epoch 2 names its epoch and step.
        import transducer_workbench.networks as networks_mod

        lm, sequences = self._lm_and_sequences()
        real = networks_mod.lm_loss_and_grads
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            nll, grads = real(*args, **kwargs)
            return (math.nan if calls["n"] > len(sequences) else nll), grads

        monkeypatch.setattr(networks_mod, "lm_loss_and_grads", flaky)
        with pytest.raises(TrainingDiverged, match="epoch 1, step 3, .*non-finite loss"):
            train_char_lm(lm, sequences, RandomStream(2), epochs=2, batch_size=4)
