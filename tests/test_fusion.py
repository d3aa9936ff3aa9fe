import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_fixed_model
from transducer_workbench.data import Alphabet
from transducer_workbench.decoding import alsd_beam, exhaustive_decode
from transducer_workbench.errors import ContractViolation
from transducer_workbench.experiment import attach_lm_components
from transducer_workbench import fusion
from transducer_workbench.fusion import (
    CachedNBest,
    CombinationWeights,
    FusionScorer,
    FusionWeights,
    NBestRecord,
    combination_score,
    density_ratio_score,
    combine_rescore,
    read_nbest,
    rescore_nbest,
    top1_wer,
    tune_weights,
    write_nbest,
)
from transducer_workbench import model as model_module
from transducer_workbench import networks
from transducer_workbench.model import ModelConfig, TransducerModel, init_model
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    PredictionConfig,
    PrefixStates,
    init_char_lm_params,
    lm_next_logprobs,
    lm_score,
)
from transducer_workbench.numerics import RandomStream


def tiny_model(seed, mode="additive", num_labels=2):
    config = ModelConfig(
        num_labels=num_labels,
        encoder=EncoderConfig(layers=1, cells=4, stacking=1, skip=1, input_dim=3),
        prediction=PredictionConfig(cells=4, embed_dim=3),
        joint_dim=5,
        joint_mode=mode,
    )
    return init_model(config, RandomStream(seed))


def tiny_lm(seed, num_labels=2):
    return init_char_lm_params(num_labels, CharLMConfig(layers=1, cells=5, embed_dim=4), RandomStream(seed))


def counting(original, sink):
    """`original`, appending the arguments of every call to `sink`."""

    def wrapper(*args):
        sink.append(args)
        return original(*args)

    return wrapper


def lm_scored(hyps, source_lm, external_lm):
    """Hypotheses with full-sequence LM components filled, as the decoding
    stage stores them in its n-best files."""
    [(_, scored)] = attach_lm_components([("utt", hyps)], source_lm, external_lm)
    return scored


def fused(row, w):
    """The fused score of an n-best row under `w`, from its components."""
    if isinstance(w, CombinationWeights):
        return combination_score((row.transducer_a, row.transducer_b, row.source_lm,
                                  row.external_lm, len(row.labels)), w)
    return density_ratio_score((row.transducer_a, row.source_lm, row.external_lm,
                                len(row.labels)), w)


def cached(utt_id, reference, *hyps):
    """A CachedNBest from (words, transducer_a, source_lm, external_lm,
    label count[, transducer_b]) tuples."""
    rows = [NBestRecord((0,) * n, n, a, src, ext, *b) for _, a, src, ext, n, *b in hyps]
    return CachedNBest(utt_id, reference, rows, [hyp[0] for hyp in hyps])


class TestScoreArithmetic:
    def test_zero_weights_reduce_to_transducer(self):
        w = FusionWeights(0.0, 0.0, 0.0)
        assert density_ratio_score((-1.7, -9.0, -4.0, 5), w) == -1.7
        assert density_ratio_score((-1.7, 0.0, -4.0, 5), FusionWeights(0.0, 0.0, 0.0)) == -1.7

    def test_worked_density_ratio_example(self):
        w = FusionWeights(mu=0.5, lam=0.7, rho=0.2)
        score = density_ratio_score((-1.0, -2.0, -1.5, 3), w)
        assert score == pytest.approx(-0.45, abs=1e-12)

    def test_worked_shallow_example(self):
        shallow = FusionWeights(mu=0.0, lam=0.5, rho=0.1)
        assert density_ratio_score((-2.0, 0.0, -1.0, 2), shallow) == pytest.approx(-2.3, abs=1e-12)

    def test_shallow_equals_density_ratio_mu0(self):
        rng = RandomStream(1)
        for _ in range(50):
            trans, src, ext = rng.normal(size=3)
            length = int(rng.integers(0, 9))
            lam, rho = rng.uniform(0, 1, size=2)
            a = density_ratio_score((trans, 0.0, ext, length), FusionWeights(0.0, lam, rho))
            b = density_ratio_score((trans, src, ext, length), FusionWeights(0.0, lam, rho))
            assert a == b

    def test_worked_combination_example(self):
        w = CombinationWeights(alpha=0.5, beta=0.5, mu=0.5, lam=0.7, rho=0.2)
        score = (
            w.alpha * -1.0 + w.beta * -2.0 - w.mu * -2.0 + w.lam * -1.5 + w.rho * 3
        )
        assert score == pytest.approx(-0.95, abs=1e-12)

    def test_rank_invariance_under_constant_shift(self):
        rng = RandomStream(2)
        w = FusionWeights(0.4, 0.6, 0.1)
        comps = [
            (float(rng.normal()), float(rng.normal()), float(rng.normal()), int(rng.integers(0, 6)))
            for _ in range(10)
        ]
        base = [density_ratio_score(c, w) for c in comps]
        shifted = [density_ratio_score((c[0] + 7.5, c[1], c[2], c[3]), w) for c in comps]
        assert np.argsort(base).tolist() == np.argsort(shifted).tolist()


class TestFusionScorer:
    def test_requires_lms_for_nonzero_weights(self):
        with pytest.raises(ContractViolation):
            FusionScorer(FusionWeights(mu=0.5))
        with pytest.raises(ContractViolation):
            FusionScorer(FusionWeights(lam=0.5))

    def test_incremental_matches_full_scores(self):
        src = tiny_lm(3)
        ext = tiny_lm(4)
        # In-search fusion reads each LM's next-symbol rows by label prefix:
        # each prefix's label column, then the end column of the whole sequence.
        labels = (0, 1, 1, 0)
        for lm in (src, ext):
            rows = lm_next_logprobs([labels[:u] for u in range(len(labels) + 1)], PrefixStates(lm))
            total = 0.0
            for increment in rows[np.arange(len(labels) + 1), labels + (lm.eos,)].tolist():
                total += increment
            assert total == lm_score(labels, lm)[0]

    def test_search_fusion_agrees_with_rescoring(self):
        # Completed-hypothesis scores from fused search must equal
        # full-sequence density-ratio rescoring of the same hypotheses.
        model = tiny_model(5)
        src = tiny_lm(6)
        ext = tiny_lm(7)
        weights = FusionWeights(0.5, 0.7, 0.2)
        scorer = FusionScorer(weights, src, ext)
        rng = RandomStream(8)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(
            model, features, beam_width=64, n_best=5, expansion_cap=5, fusion=scorer
        )
        rescored = {r.labels: fused(r, weights) for r in rescore_nbest(nbest, weights, src, ext)}
        for hyp in nbest:
            assert hyp.score == pytest.approx(rescored[hyp.labels], abs=1e-10)

    def test_fused_search_reranks(self):
        # A strong external LM preferring one label changes the argmax.
        model = random_fixed_model(3, 4, 3, RandomStream(9))
        ext = tiny_lm(10)
        plain = alsd_beam(model, np.zeros(3), beam_width=64, n_best=8)
        scorer = FusionScorer(FusionWeights(0.0, 3.0, 0.0), external_lm=ext)
        fused = alsd_beam(model, np.zeros(3), beam_width=64, n_best=8, fusion=scorer)
        plain_scores = {h.labels: h.score for h in plain}
        common = [h for h in fused if h.labels in plain_scores]
        assert common, "searches should share some hypotheses"
        for hyp in common:
            ext_total = lm_score(hyp.labels, ext)[0]
            assert hyp.score == pytest.approx(
                plain_scores[hyp.labels] + 3.0 * ext_total, abs=1e-9
            )


class TestCombineRescore:
    def test_degenerate_union_matches_single_model(self):
        model_a = tiny_model(11)
        model_b = tiny_model(12, mode="multiplicative")
        src = tiny_lm(13)
        ext = tiny_lm(14)
        rng = RandomStream(15)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(model_a, features, beam_width=32, n_best=4, expansion_cap=5)
        w = CombinationWeights(alpha=1.0, beta=0.0, mu=0.5, lam=0.7, rho=0.2)
        combined = combine_rescore(features, lm_scored(nbest, src, ext), [], model_a, model_b)
        combined.sort(key=lambda c: (-fused(c, w), c.labels))
        w_single = FusionWeights(0.5, 0.7, 0.2)
        single = rescore_nbest(nbest, w_single, src, ext)
        assert [c.labels for c in combined] == [c.labels for c in single]
        for c, s in zip(combined, single):
            assert fused(c, w) == pytest.approx(fused(s, w_single), abs=1e-10)

    def test_identical_models_halves_agree(self):
        model = tiny_model(16)
        src = tiny_lm(17)
        ext = tiny_lm(18)
        rng = RandomStream(19)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(model, features, beam_width=32, n_best=4, expansion_cap=5)
        w_comb = CombinationWeights(0.5, 0.5, 0.5, 0.7, 0.2)
        scored = lm_scored(nbest, src, ext)
        combined = combine_rescore(features, scored, scored, model, model)
        w_single = FusionWeights(0.5, 0.7, 0.2)
        single = rescore_nbest(nbest, w_single, src, ext)
        by_labels = {c.labels: c for c in combined}
        for s in single:
            assert fused(by_labels[s.labels], w_comb) == pytest.approx(fused(s, w_single),
                                                                      abs=1e-10)

    def test_union_deduplicates_and_cross_scores(self):
        model_a = tiny_model(20)
        model_b = tiny_model(21, mode="multiplicative")
        rng = RandomStream(22)
        features = rng.normal(size=(3, 3))
        nb_a = alsd_beam(model_a, features, beam_width=32, n_best=4, expansion_cap=5)
        nb_b = alsd_beam(model_b, features, beam_width=32, n_best=4, expansion_cap=5)
        w = CombinationWeights(0.5, 0.5, 0.0, 0.0, 0.0)
        combined = combine_rescore(features, nb_a, nb_b, model_a, model_b)
        labels = [c.labels for c in combined]
        assert len(set(labels)) == len(labels)
        assert set(labels) == {h.labels for h in nb_a} | {h.labels for h in nb_b}
        for c in combined:
            assert c.transducer_b is not None
            assert c.length == len(c.labels)
            assert fused(c, w) == pytest.approx(
                0.5 * c.transducer_a + 0.5 * c.transducer_b, abs=1e-12
            )

    def test_length_cap_excludes_with_warning(self, caplog):
        # The cap is 2 * max(T_a, T_b) labels; three frames give T = 3. Only
        # a row from outside the program can be longer, as ALSD stops there.
        model_a = tiny_model(23)
        model_b = tiny_model(24)
        rng = RandomStream(25)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(model_a, features, beam_width=32, n_best=4, expansion_cap=5)
        at_cap = NBestRecord((1, 0) * 3, 6, -9.0, 0.0, 0.0)
        over_cap = NBestRecord((0, 1) * 3 + (0,), 7, -9.0, 0.0, 0.0)
        with caplog.at_level("WARNING"):
            combined = combine_rescore(features, list(nbest) + [at_cap, over_cap], [],
                                       model_a, model_b)
        assert {c.labels for c in combined} == {h.labels for h in nbest} | {at_cap.labels}
        dropped = [r.getMessage() for r in caplog.records if "dropping hypothesis" in r.message]
        assert dropped == ["combine_rescore: dropping hypothesis of length 7 (cap 6)"]

    @pytest.mark.parametrize("tied", [False, True])
    def test_rows_ranked_by_first_model_score_then_labels(self, monkeypatch, tied):
        # The order the zero weights CombinationWeights(1, 0, 0, 0, 0) give
        # to finite scores; with every transducer_a tied, label order alone.
        model_a = tiny_model(59)
        model_b = tiny_model(60, mode="multiplicative")
        features = RandomStream(61).normal(size=(4, 3))
        nb_a = alsd_beam(model_a, features, beam_width=16, n_best=8, expansion_cap=6)
        nb_b = alsd_beam(model_b, features, beam_width=16, n_best=8, expansion_cap=6)
        if tied:
            monkeypatch.setattr(model_a, "prefix_trie_nlls",
                                lambda H, sequences: np.full(len(sequences), 2.5))
        combined = combine_rescore(features, nb_a, nb_b, model_a, model_b)
        union = {h.labels for h in nb_a} | {h.labels for h in nb_b}
        assert len(combined) == len(union) > 2
        keys = [(-c.transducer_a, c.labels) for c in combined]
        assert keys == sorted(keys)
        zero = CombinationWeights(1.0, 0.0, 0.0, 0.0, 0.0)
        assert combined == sorted(combined, key=lambda c: (-fused(c, zero), c.labels))
        if tied:
            assert [c.labels for c in combined] == sorted(union)

    def test_score_decomposition_exact(self):
        model_a = tiny_model(26)
        model_b = tiny_model(27, mode="multiplicative")
        src = tiny_lm(28)
        ext = tiny_lm(29)
        rng = RandomStream(30)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(model_a, features, beam_width=16, n_best=4, expansion_cap=5)
        w = CombinationWeights(0.3, 0.7, 0.2, 0.5, 0.1)
        scored = lm_scored(nbest, src, ext)
        combined = combine_rescore(features, scored, [], model_a, model_b)
        # The one scoring path of tuning, reporting and verification.
        scores = fusion._utterance_scores(combined, fusion._grid_columns([w]))[0].tolist()
        for c, score in zip(combined, scores):
            total = (
                w.alpha * c.transducer_a
                + w.beta * c.transducer_b
                - w.mu * c.source_lm
                + w.lam * c.external_lm
                + w.rho * len(c.labels)
            )
            assert score == total

    def test_lm_components_come_from_the_lists(self):
        model_a = tiny_model(40)
        model_b = tiny_model(41, mode="multiplicative")
        src = tiny_lm(42)
        ext = tiny_lm(43)
        features = RandomStream(44).normal(size=(3, 3))
        nb_a = lm_scored(
            alsd_beam(model_a, features, beam_width=16, n_best=4, expansion_cap=5), src, ext
        )
        nb_b = lm_scored(
            alsd_beam(model_b, features, beam_width=16, n_best=4, expansion_cap=5), src, ext
        )
        combined = combine_rescore(features, nb_a, nb_b, model_a, model_b)
        assert combined
        for c in combined:
            assert c.source_lm == lm_score(c.labels, src)[0]
            assert c.external_lm == lm_score(c.labels, ext)[0]

    def test_disagreeing_lm_scores_rejected(self):
        # The same label sequence scored by two different source LMs.
        model = tiny_model(45)
        ext = tiny_lm(46)
        features = RandomStream(47).normal(size=(3, 3))
        nbest = alsd_beam(model, features, beam_width=16, n_best=4, expansion_cap=5)
        nb_a = lm_scored(nbest, tiny_lm(48), ext)
        nb_b = lm_scored(nbest, tiny_lm(49), ext)
        with pytest.raises(ContractViolation, match="different LMs"):
            combine_rescore(features, nb_a, nb_b, model, model)

    def test_lm_models_are_not_parameters(self):
        model = tiny_model(50)
        features = RandomStream(51).normal(size=(3, 3))
        nbest = alsd_beam(model, features, beam_width=16, n_best=4, expansion_cap=5)
        with pytest.raises(TypeError):
            combine_rescore(features, nbest, [], model, model, tiny_lm(52), tiny_lm(53))
        # Nor are weights: the rows carry every component, and only tuning
        # weighs them.
        with pytest.raises(TypeError):
            combine_rescore(features, nbest, [], CombinationWeights(), model, model)

    def test_one_block_step_per_trie_depth_and_one_joint_call(self, monkeypatch):
        model_a = tiny_model(54)
        model_b = tiny_model(55, mode="multiplicative")
        features = RandomStream(56).normal(size=(4, 3))
        nb_a = alsd_beam(model_a, features, beam_width=16, n_best=8, expansion_cap=6)
        nb_b = alsd_beam(model_b, features, beam_width=16, n_best=8, expansion_cap=6)
        calls = {"_label_forward": [], "joint_forward_lattice": []}
        for module, (name, sink) in zip((networks, model_module), calls.items()):
            monkeypatch.setattr(module, name, counting(getattr(module, name), sink))
        lattice_nll_calls = []
        monkeypatch.setattr(TransducerModel, "lattice_nll",
                            counting(TransducerModel.lattice_nll, lattice_nll_calls))
        combined = combine_rescore(features, nb_a, nb_b, model_a, model_b)

        union = {h.labels for h in nb_a} | {h.labels for h in nb_b}
        assert {c.labels for c in combined} == union
        prefixes = {labels[:u] for labels in union for u in range(1, len(labels) + 1)}
        assert len(prefixes) < sum(len(labels) for labels in union)  # prefixes are shared
        depth = max(map(len, union))
        assert depth < len(prefixes)  # a depth holds several prefixes
        assert lattice_nll_calls == []
        blocks, joints = calls["_label_forward"], calls["joint_forward_lattice"]
        for model in (model_a, model_b):
            own = [args for args in blocks if args[1] is model.prediction.embedding]
            assert len(own) == depth
            # One step (symbols (1, n_d)) over the n_d prefixes of depth d.
            shapes = [np.shape(args[0]) for args in own]
            assert shapes == [
                (1, sum(len(p) == d for p in prefixes)) for d in range(1, depth + 1)
            ]
            assert sum(n for _, n in shapes) == len(prefixes)
            assert sum(args[2] is model.joint for args in joints) == 1
        assert len(blocks) == 2 * depth and len(joints) == 2

    def test_one_prefix_table_per_model_per_utterance(self, monkeypatch):
        model_a = tiny_model(54)
        model_b = tiny_model(55, mode="multiplicative")
        features = RandomStream(56).normal(size=(4, 3))
        nb_a = alsd_beam(model_a, features, beam_width=16, n_best=8, expansion_cap=6)
        nb_b = alsd_beam(model_b, features, beam_width=16, n_best=8, expansion_cap=6)
        tables, filled = [], []

        class Recorded(PrefixStates):
            def __init__(self, params):
                super().__init__(params)
                tables.append(self)

            def rows(self, prefixes):
                filled.append((self, list(prefixes)))
                return super().rows(prefixes)

        blocks = []
        monkeypatch.setattr(model_module, "PrefixStates", Recorded)
        monkeypatch.setattr(networks, "_label_forward",
                            counting(networks._label_forward, blocks))
        combined = combine_rescore(features, nb_a, nb_b, model_a, model_b)
        # Each model fills its own table once, with every sequence of the
        # union, one block step per depth.
        union = sorted(c.labels for c in combined)
        assert [id(t.params) for t in tables] == [id(model_a.prediction), id(model_b.prediction)]
        assert [(t, sorted(seqs)) for t, seqs in filled] == [(t, union) for t in tables]
        prefixes = {labels[:u] for labels in union for u in range(len(labels) + 1)}
        depth = max(map(len, union))
        for table in tables:
            assert set(table.index) == prefixes
            own = [args for args in blocks if args[1] is table.params.embedding]
            assert [np.shape(args[0]) for args in own] == [
                (1, sum(len(p) == d for p in prefixes)) for d in range(1, depth + 1)
            ]

    def test_out_of_vocabulary_label_rejected(self):
        model = tiny_model(57)
        features = RandomStream(58).normal(size=(3, 3))
        bad = [NBestRecord(labels=(0, 2), length=2, transducer_a=0.0, source_lm=0.0, external_lm=0.0)]
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            combine_rescore(features, bad, [], model, model)


class TestTuning:
    def _cached(self):
        # Two utterances; hypothesis quality depends on the external LM.
        return [
            cached("u1", ("ab",), (("ab",), -1.0, -2.0, -1.0, 2), (("ax",), -0.9, -1.0, -5.0, 2)),
            cached("u2", ("ba",), (("ba",), -1.2, -2.0, -1.0, 2), (("bx",), -1.0, -1.0, -6.0, 2)),
        ]

    def test_zero_grid_returns_zero(self):
        result = tune_weights(self._cached(), mu_grid=(0.0,), lam_grid=(0.0,), rho_grid=(0.0,))
        assert result.weights == FusionWeights(0.0, 0.0, 0.0)

    def test_finds_helpful_lm_weight(self):
        result = tune_weights(self._cached())
        assert result.wer == 0.0
        assert result.weights.lam > 0.0

    def test_oracle_cell_is_optimal(self):
        nbests = self._cached()
        full = tune_weights(nbests)
        for lam in (0.0, 0.3, 0.9):
            sub = tune_weights(nbests, lam_grid=(lam,))
            assert full.wer <= sub.wer

    def test_ties_prefer_smaller_weights(self):
        result = tune_weights([cached("u", ("a",), (("a",), -1.0, -1.0, -1.0, 1))])
        assert result.weights == FusionWeights(0.0, 0.0, 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            tune_weights(self._cached(), mu_grid=())

    def test_combination_tuning(self):
        nbests = [
            cached("u", ("ab",), (("ab",), -2.0, -1.0, -1.0, 2, -0.5),
                   (("ax",), -1.0, -1.0, -1.0, 2, -3.0))
        ]
        result = tune_weights(
            nbests,
            mu_grid=(0.0,),
            lam_grid=(0.0,),
            rho_grid=(0.0,),
            alpha_beta_grid=((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)),
        )
        assert result.wer == 0.0
        assert result.weights.beta > 0.0

    def test_missing_transducer_b_rejected(self):
        # Tuning, reporting and verification share one scoring path, and none
        # of them scores a missing second-model component as zero.
        nbests = [
            cached("u", ("ab",), (("ab",), -2.0, -1.0, -1.0, 2, -0.5),
                   (("ax",), -1.0, -1.0, -1.0, 2))
        ]
        with pytest.raises(ContractViolation, match="transducer_b"):
            top1_wer(nbests, CombinationWeights(0.5, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(ContractViolation, match="transducer_b"):
            tune_weights(nbests, alpha_beta_grid=((0.5, 0.5),))
        assert top1_wer(nbests, FusionWeights(0.0, 0.0, 0.0)) == 1.0

    def test_empty_nbest_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            top1_wer([CachedNBest("u", ("a",), [], [])], FusionWeights())


class TestNBestIO:
    def test_roundtrip(self, tmp_path):
        model = tiny_model(31, num_labels=3)
        rng = RandomStream(32)
        alphabet = Alphabet(3, separator=2)
        path = tmp_path / "nbest.tsv"
        records = []
        for i in range(3):
            features = rng.normal(size=(3, 3))
            nbest = alsd_beam(model, features, beam_width=16, n_best=4, expansion_cap=5)
            records.append((f"utt-{i}", list(nbest)))
        src, ext = tiny_lm(33, 3), tiny_lm(34, 3)
        write_nbest(path, attach_lm_components(records, src, ext), alphabet)
        back = read_nbest(path, alphabet)
        assert set(back) == {"utt-0", "utt-1", "utt-2"}
        for utt_id, hyps in records:
            assert len(back[utt_id]) == len(hyps)
            for orig, loaded in zip(hyps, back[utt_id]):
                assert loaded.labels == orig.labels
                assert loaded.length == orig.alignment_length
                assert loaded.transducer_a == orig.transducer
                assert loaded.transducer_b is None
                assert loaded.source_lm == lm_score(orig.labels, src)[0]
                assert loaded.external_lm == lm_score(orig.labels, ext)[0]

    @staticmethod
    def _records(rng, combination):
        """Rows with full-precision floats, among them values whose shortest
        repr needs all 17 significant digits."""
        alphabet = Alphabet(4, separator=3)
        special = [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 5e-324, -1.7976931348623157e308, -0.0]
        records = []
        for i in range(4):
            rows = []
            for _ in range(int(rng.integers(1, 5))):
                values = [float(v) for v in rng.normal(scale=10.0, size=4)]
                values[int(rng.integers(0, 4))] = special[int(rng.integers(0, len(special)))]
                labels = tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 6))))
                rows.append(
                    NBestRecord(
                        labels=labels,
                        length=len(labels) + int(rng.integers(0, 9)),
                        transducer_a=values[0],
                        source_lm=values[1],
                        external_lm=values[2],
                        transducer_b=values[3] if combination else None,
                    )
                )
            records.append((f"u{i}", rows))
        return alphabet, records

    @pytest.mark.parametrize("combination", [False, True])
    def test_roundtrip_exact_floats(self, tmp_path, combination):
        alphabet, records = self._records(RandomStream(35 + combination), combination)
        path = tmp_path / "rows.tsv"
        write_nbest(path, records, alphabet)
        fields = {len(line.split("\t")) for line in path.read_text().splitlines()}
        assert fields == {7 if combination else 6}
        back = read_nbest(path, alphabet)
        assert list(back.items()) == records  # dataclass ==, so every float by ==
        again = tmp_path / "again.tsv"
        write_nbest(again, back.items(), alphabet)
        assert again.read_bytes() == path.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        alphabet, records = self._records(RandomStream(36), combination=False)
        path = tmp_path / "nbest.tsv"
        write_nbest(path, records, alphabet)
        before = path.read_bytes()

        def failing():
            yield records[0]
            yield records[1]
            raise RuntimeError("decoder crashed")

        with pytest.raises(RuntimeError, match="decoder crashed"):
            write_nbest(path, failing(), alphabet)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["nbest.tsv"]

    def test_combination_row_line(self, tmp_path):
        # A cross-scored row (`combine_rescore` sets `length` to the label
        # count) keeps both transducer columns, transducer_b after
        # transducer_a.
        alphabet = Alphabet(3, separator=2)
        row = NBestRecord((0, 2, 1), 3, -1.25, -3.0, -0.75, transducer_b=-2.5)
        path = tmp_path / "combination.tsv"
        write_nbest(path, [("u", [row])], alphabet)
        assert path.read_text() == "u\ta b\t3\t-1.25\t-2.5\t-3\t-0.75\n"
        assert read_nbest(path, alphabet)["u"] == [row]

    @pytest.mark.parametrize("fields", [5, 8])
    def test_wrong_field_count_rejected(self, tmp_path, fields):
        path = tmp_path / "bad.tsv"
        path.write_text("\t".join(["u", "a"] + ["1"] * (fields - 2)) + "\n")
        with pytest.raises(ContractViolation, match=f"line 1: {fields} fields"):
            read_nbest(path, Alphabet(3, separator=2))

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u\ta\t1\t-1\tnot-a-number\t-3\n")
        with pytest.raises(ContractViolation, match="line 1: could not convert"):
            read_nbest(path, Alphabet(3, separator=2))

    def test_mixed_widths_rejected(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("u\ta\t1\t-1\t-2\t-3\nu\tb\t1\t-1\t-1.5\t-2\t-3\n")
        with pytest.raises(ContractViolation, match="line 2: 7 fields, expected 6"):
            read_nbest(path, Alphabet(3, separator=2))

    def test_character_outside_the_alphabet_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u\ta\t1\t-1\t-2\t-3\nu\th\t1\t-1\t-2\t-3\n")
        with pytest.raises(ContractViolation, match="line 2: character 'h' outside the alphabet"):
            read_nbest(path, Alphabet(3, separator=2))

    @pytest.mark.parametrize("column", [3, 4, 5, 6])
    @pytest.mark.parametrize("value", ["nan", "+inf", "inf", "NaN", "Infinity"])
    def test_nan_and_positive_infinite_scores_rejected(self, tmp_path, column, value):
        # Each score column of a combination file, on the second line.
        fields = ["u", "a", "1", "-1", "-1.5", "-2", "-3"]
        fields[column] = value
        path = tmp_path / "bad.tsv"
        path.write_text("u\tb\t1\t-1\t-1.5\t-2\t-3\n" + "\t".join(fields) + "\n")
        with pytest.raises(ContractViolation, match="line 2: score .* is NaN or \\+inf"):
            read_nbest(path, Alphabet(3, separator=2))

    def test_negative_infinite_scores_kept(self, tmp_path):
        # -inf is the log-probability of an impossible event, so it stays legal.
        path = tmp_path / "nbest.tsv"
        path.write_text("u\ta\t1\t-inf\t-inf\t-inf\n")
        [row] = read_nbest(path, Alphabet(3, separator=2))["u"]
        assert row == NBestRecord((0,), 1, -math.inf, -math.inf, -math.inf)

    def test_byte_outside_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"u\ta\t1\t-1\t-2\t-3\nu\ta\xffb\t1\t-1\t-2\t-3\n")
        with pytest.raises(ContractViolation, match="n-best line 2: byte 0xff is not UTF-8"):
            read_nbest(path, Alphabet(3, separator=2))


# Scores as the format allows them: any float but NaN and +inf.
scores = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-math.inf))


@st.composite
def nbest_records(draw):
    """(utt_id, rows) records of one width, every utterance with a row."""
    width_b = draw(st.booleans())
    row = st.builds(
        NBestRecord,
        labels=st.lists(st.integers(0, 3), max_size=6).map(tuple),
        length=st.integers(0, 2**40),
        transducer_a=scores,
        source_lm=scores,
        external_lm=scores,
        transducer_b=scores if width_b else st.none(),
    )
    utt_ids = draw(st.lists(st.text("uv0-_", min_size=1, max_size=4), unique=True, max_size=4))
    return [(utt_id, draw(st.lists(row, min_size=1, max_size=4))) for utt_id in utt_ids]


class TestNBestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(nbest_records())
    def test_rows_round_trip_exactly(self, records):
        alphabet = Alphabet(4, separator=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.tsv"
            write_nbest(path, records, alphabet)
            back = read_nbest(path, alphabet)
            assert list(back.items()) == records  # dataclass ==, so every float by ==
            # The bytes again, so -0.0 stays -0.0 as well.
            again = Path(tmp) / "again.tsv"
            write_nbest(again, back.items(), alphabet)
            assert again.read_bytes() == path.read_bytes()
