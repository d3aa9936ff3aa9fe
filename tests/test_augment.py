import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import switchout_reference
from transducer_workbench import augment
from transducer_workbench.augment import (
    NoiseInjectConfig,
    SpecAugmentConfig,
    SwitchoutConfig,
    donor_pools,
    pick_donor,
    replica_expand,
    sequence_noise_inject,
    spec_augment,
    speed_tempo_perturb,
    switchout,
    switchout_weights,
)
from transducer_workbench.data import Utterance
from transducer_workbench.errors import ContractViolation
from transducer_workbench.experiment import build_recipe, default_config, with_settings
from transducer_workbench.numerics import CumulativeTable, RandomStream
from transducer_workbench.training import _augment_batch_member


class TestSpeedTempo:
    def test_factor_one_bitwise_identity(self):
        f = RandomStream(1).normal(size=(20, 4))
        np.testing.assert_array_equal(speed_tempo_perturb(f, 1.0), f)

    def test_output_length(self):
        assert speed_tempo_perturb(np.zeros((100, 3)), 1.1).shape == (91, 3)
        assert speed_tempo_perturb(np.zeros((100, 3)), 0.9).shape == (111, 3)

    def test_constant_features_stay_constant(self):
        f = np.full((50, 2), 3.25)
        for factor in (0.9, 0.95, 1.05, 1.1):
            out = speed_tempo_perturb(f, factor)
            np.testing.assert_array_equal(out, np.full_like(out, 3.25))

    def test_interpolation_values(self):
        f = np.arange(10.0)[:, None]
        out = speed_tempo_perturb(f, 1.5)
        np.testing.assert_allclose(out[:, 0], [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0], atol=1e-12)

    def test_bad_factor(self):
        with pytest.raises(ContractViolation):
            speed_tempo_perturb(np.zeros((3, 2)), 0.0)


class TestReplicaExpand:
    def _utts(self, n=3):
        rng = RandomStream(2)
        return [
            Utterance(f"u{i}", rng.normal(size=(10, 2)).astype(np.float32), (0, 1), f"s{i}")
            for i in range(n)
        ]

    def test_empty_factors_unchanged(self):
        utts = self._utts()
        assert replica_expand(utts, []) == utts

    def test_multiplication(self):
        utts = self._utts(3)
        out = replica_expand(utts, [("speed", 0.9), ("tempo", 1.1)])
        assert len(out) == 9

    def test_four_settings_give_five_x(self):
        # The production recipe: 4 replicas + original = 5x data per epoch.
        utts = self._utts(4)
        factors = [("speed", 0.9), ("speed", 1.1), ("tempo", 0.9), ("tempo", 1.1)]
        out = replica_expand(utts, factors)
        assert len(out) == 20

    def test_replicas_are_new_pseudo_speakers(self):
        out = replica_expand(self._utts(1), [("speed", 0.9)])
        assert out[0].speaker == "s0"
        assert out[1].speaker == "s0#speed0.9"
        assert out[1].utt_id == "u0#speed0.9"
        assert out[1].labels == out[0].labels


class TestSequenceNoise:
    def test_probability_zero_identity(self):
        rng = RandomStream(3)
        f = rng.normal(size=(8, 3))
        donor = rng.normal(size=(8, 3))
        config = NoiseInjectConfig(probability=0.0)
        out = sequence_noise_inject(f, donor, config, rng)
        np.testing.assert_array_equal(out, f)

    def test_scale_zero_identity_when_triggered(self):
        rng = RandomStream(4)
        f = rng.normal(size=(8, 3))
        donor = rng.normal(size=(8, 3))
        config = NoiseInjectConfig(probability=1.0, scale=0.0)
        np.testing.assert_array_equal(sequence_noise_inject(f, donor, config, rng), f)

    def test_triggered_adds_exactly_scaled_donor(self):
        # Bitwise check of out = in + 0.4*donor on the overlap (the float
        # expression itself; a-posteriori subtraction would round).
        rng = RandomStream(5)
        f = rng.normal(size=(10, 3))
        donor = rng.normal(size=(7, 3))
        config = NoiseInjectConfig(probability=1.0, scale=0.4)
        out = sequence_noise_inject(f, donor, config, rng)
        np.testing.assert_array_equal(out[:7], f[:7] + 0.4 * donor)
        np.testing.assert_array_equal(out[7:], f[7:])

    def test_longer_donor_truncated(self):
        rng = RandomStream(6)
        f = rng.normal(size=(5, 2))
        donor = rng.normal(size=(9, 2))
        config = NoiseInjectConfig(probability=1.0, scale=0.4)
        out = sequence_noise_inject(f, donor, config, rng)
        np.testing.assert_array_equal(out, f + 0.4 * donor[:5])

    def test_draw_consumed_either_way(self):
        f = np.zeros((4, 2))
        donor = np.ones((4, 2))
        a = RandomStream(7)
        sequence_noise_inject(f, donor, NoiseInjectConfig(probability=0.0), a)
        after_skip = a.random()
        b = RandomStream(7)
        sequence_noise_inject(f, donor, NoiseInjectConfig(probability=1.0), b)
        after_hit = b.random()
        assert after_skip == after_hit

    def test_pick_donor_respects_tolerance(self):
        lengths = [100, 119, 121, 79, 105]
        rng = RandomStream(8)
        seen = set()
        for _ in range(100):
            j = pick_donor(lengths, 0, 0.2, rng)
            assert j in (1, 4)
            seen.add(j)
        assert seen == {1, 4}

    def test_pick_donor_falls_back_when_no_match(self):
        assert pick_donor([10, 500], 0, 0.2, RandomStream(9)) == 1

    @staticmethod
    def full_scan_pick(lengths, target_index, tolerance, rng):
        """The donor draw as a scan over every length per call."""
        t_len = lengths[target_index]
        candidates = [
            i
            for i, n in enumerate(lengths)
            if i != target_index and abs(n - t_len) <= tolerance * t_len
        ]
        if not candidates:
            candidates = [i for i in range(len(lengths)) if i != target_index]
        if not candidates:
            return target_index
        return candidates[int(rng.integers(0, len(candidates)))]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=30),
        st.one_of(st.sampled_from([0.0, 0.05, 0.2]), st.floats(0.0, 3.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_pick_donor_pools_equal_the_full_scan(self, lengths, tolerance, seed):
        # The same candidates in the same order, so the same integer draw
        # picks the same donor, with and without the pools.
        pools = donor_pools(lengths, tolerance)
        for target in range(len(lengths)):
            want = self.full_scan_pick(lengths, target, tolerance, RandomStream(seed, target))
            assert pick_donor(lengths, target, tolerance, RandomStream(seed, target), pools) == want
            assert pick_donor(lengths, target, tolerance, RandomStream(seed, target)) == want


class TestSpecAugment:
    def test_zero_masks_identity(self):
        rng = RandomStream(9)
        f = rng.normal(size=(30, 8))
        config = SpecAugmentConfig(freq_masks=0, time_masks=0)
        np.testing.assert_array_equal(spec_augment(f, config, rng), f)

    def test_full_frequency_mask_fills_everything(self):
        f = RandomStream(10).normal(size=(20, 4))
        config = SpecAugmentConfig(
            freq_masks=1, freq_max_width=4, time_masks=0, max_time_ratio=0.0
        )
        # Scan seeds for the draw that selects the full width.
        for seed in range(200):
            rng = RandomStream(seed)
            out = spec_augment(f, config, rng)
            if np.all(out == f.mean()):
                break
        else:
            pytest.fail("no full-width draw found in 200 seeds")

    def test_shape_preserved_and_reproducible(self):
        f = RandomStream(11).normal(size=(50, 12))
        config = SpecAugmentConfig()
        a = spec_augment(f, config, RandomStream(12))
        b = spec_augment(f, config, RandomStream(12))
        assert a.shape == f.shape
        np.testing.assert_array_equal(a, b)

    def test_time_budget_respected(self):
        f = RandomStream(13).normal(size=(40, 6))
        config = SpecAugmentConfig(
            freq_masks=0, time_masks=4, time_max_width=40, max_time_ratio=0.2
        )
        fill = f.mean()
        for seed in range(30):
            out = spec_augment(f, config, RandomStream(seed))
            masked_rows = np.all(out == fill, axis=1).sum()
            assert masked_rows <= int(0.2 * 40)

    def test_width_distribution_uniform(self):
        # Widths should be uniform on {0..w}; chi-square at 0.01.
        w = 5
        config = SpecAugmentConfig(
            freq_masks=1, freq_max_width=w, time_masks=0, max_time_ratio=0.0
        )
        f = np.zeros((4, 10))
        f[:] = np.arange(10)  # no two columns equal, so width is recoverable
        rng = RandomStream(14)
        counts = np.zeros(w + 1)
        fill = f.mean()
        for _ in range(10_000):
            out = spec_augment(f, config, rng)
            width = int(np.sum(np.all(out == fill, axis=0)))
            counts[width] += 1
        expected = np.full(w + 1, 10_000 / (w + 1))
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=w)


class TestSwitchout:
    def test_u0_identity(self):
        config = SwitchoutConfig(vocab=4)
        assert switchout((), config, RandomStream(15)) == ()

    def test_disabled_identity(self):
        # `switchout = false` gives a recipe with `switchout = None`: the
        # batch member then keeps its labels, which the default recipe
        # replaces for some draws.
        cfg = default_config()
        rng = RandomStream(16)
        utts = [Utterance(f"u{i}", rng.normal(size=(12, 3)).astype(np.float32),
                          tuple(int(x) for x in rng.integers(0, 8, size=6))) for i in range(4)]
        lengths = np.array([u.num_frames for u in utts])
        recipe = build_recipe(with_settings(cfg, "training", switchout=False))
        assert recipe.switchout is None
        changed = 0
        for seed in range(50):
            for idx, utt in enumerate(utts):
                _, labels = _augment_batch_member(utt, utts, lengths, idx, recipe,
                                                  RandomStream(seed))
                assert labels == utt.labels
                _, labels = _augment_batch_member(utt, utts, lengths, idx, build_recipe(cfg),
                                                  RandomStream(seed))
                changed += labels != utt.labels
        assert changed > 0

    def test_tiny_temperature_mostly_identity(self):
        # tau -> 0+ puts all mass at n_hat = 0.
        config = SwitchoutConfig(temperature=1e-9, vocab=4)
        labels = (0, 1, 2, 3)
        rng = RandomStream(17)
        for _ in range(100):
            assert switchout(labels, config, rng) == labels

    def test_weights_at_an_overflowing_temperature_are_their_limit(self):
        # n / tau overflows for a subnormal tau; the weights are exp(-inf)
        # = 0, with nothing raised inside a training step's errstate.
        with np.errstate(over="raise", invalid="raise"):
            w = switchout_weights(3, 5e-324)
        assert w.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_u2_tau10_weights(self):
        w = switchout_weights(2, 10.0)
        z = w.sum()
        assert z == pytest.approx(2.723568, abs=1e-6)
        assert w[0] / z == pytest.approx(0.3672, abs=1e-4)

    def test_length_and_vocab_preserved(self):
        config = SwitchoutConfig(temperature=10.0, vocab=5)
        rng = RandomStream(18)
        for _ in range(200):
            labels = tuple(int(v) for v in rng.integers(0, 5, size=6))
            out = switchout(labels, config, rng)
            assert len(out) == 6
            assert all(0 <= lab < 5 for lab in out)

    def test_nhat_histogram_chi_square(self):
        # Empirical n_hat distribution over 1e5 draws matches
        # p(n) ∝ exp(-n/10) on {0..U}, chi-square at significance 0.01.
        U, tau = 4, 10.0
        weights = switchout_weights(U, tau)
        probs = weights / weights.sum()
        rng = RandomStream(19)
        counts = np.zeros(U + 1)
        for _ in range(100_000):
            counts[rng.choice_weighted(weights)] += 1
        expected = probs * 100_000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=U)

    def test_bad_temperature(self):
        with pytest.raises(ContractViolation):
            SwitchoutConfig(temperature=0.0, vocab=3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 6), max_size=12), min_size=1, max_size=5),
           st.sampled_from([5e-324, 1e-9, 0.5, 10.0]) | st.floats(0.01, 100.0),
           st.integers(0, 2**63))
    def test_equals_the_per_draw_reference(self, transcripts, temperature, seed):
        # Several transcripts through one stream: the same labels, and the
        # same draws consumed, as n_hat drawn from each call's weights.
        config = SwitchoutConfig(temperature=temperature, vocab=7)
        new, old = RandomStream(seed), RandomStream(seed)
        for labels in transcripts:
            assert switchout(labels, config, new) == switchout_reference(labels, config, old)
        assert new.random() == old.random()

    def test_one_table_per_length_and_temperature(self, monkeypatch):
        built, choices = [], []

        class Counted(CumulativeTable):
            __slots__ = ()

            def __init__(self, weights):
                built.append(tuple(weights))
                super().__init__(weights)

        monkeypatch.setattr(augment, "CumulativeTable", Counted)
        monkeypatch.setattr(RandomStream, "choice_weighted",
                            lambda self, weights: choices.append(weights))
        # One config, its temperature changed between calls.
        config = SwitchoutConfig(vocab=6)
        pairs = [(U, tau) for U in (1, 2, 3, 5) for tau in (10.0, 0.5)]
        rng = RandomStream(20)
        for _ in range(3):
            for U, tau in pairs:
                config.temperature = tau
                switchout(tuple(range(U)), config, rng)
        assert sorted(built) == sorted(tuple(switchout_weights(U, tau)) for U, tau in pairs)
        assert choices == []

