import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_workbench.data import Alphabet
from transducer_workbench.decoding import alsd_beam
from transducer_workbench.errors import ContractViolation
from transducer_workbench.experiment import attach_lm_components
from transducer_workbench import fusion
from transducer_workbench.fusion import (
    CachedNBest,
    CombinationWeights,
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


def fresh_tables(*models):
    """One new prefix table per model, as `stage_combination` makes for a
    split."""
    return [PrefixStates(model.prediction) for model in models]


def combine(features, nbest_a, nbest_b, model_a, model_b, expansion_factor=3):
    """`combine_rescore` with fresh prefix tables, at the default
    `[decoding] expansion_factor`."""
    return combine_rescore(features, nbest_a, nbest_b, model_a, model_b,
                           tables=fresh_tables(model_a, model_b),
                           expansion_factor=expansion_factor)


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


class TestLMComponents:
    def test_incremental_matches_full_scores(self):
        # An LM table's next-symbol column, read along a sequence's prefix
        # chain (each prefix's label, then the end marker), sums left to
        # right to the sequence's `lm_score`, bit for bit.
        labels = (0, 1, 1, 0)
        for lm in (tiny_lm(3), tiny_lm(4)):
            table = PrefixStates(lm)
            rows = table.rows([labels[:u] for u in range(len(labels) + 1)])
            total = 0.0
            for increment in table.columns()[0][rows, labels + (lm.eos,)].tolist():
                total += increment
            assert total == lm_score(labels, lm)


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
        combined = combine(features, lm_scored(nbest, src, ext), [], model_a, model_b)
        combined.sort(key=lambda c: (-fused(c, w), c.labels))
        w_single = FusionWeights(0.5, 0.7, 0.2)
        single = rescore_nbest(nbest, w_single, src, ext)
        assert single == sorted(single, key=lambda r: (-fused(r, w_single), r.labels))
        assert {r.labels: r.length for r in single} == {h.labels: h.length for h in nbest}
        assert [(r.source_lm, r.external_lm) for r in single] == [
            (lm_score(r.labels, src), lm_score(r.labels, ext)) for r in single
        ]
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
        combined = combine(features, scored, scored, model, model)
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
        combined = combine(features, nb_a, nb_b, model_a, model_b)
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
        # The cap is ALSD's label cap, (expansion_factor - 1) * T' labels: 2
        # * T' at the default factor 3; three frames give T' = 3. Only a row
        # from outside the program can be longer, as ALSD stops there.
        model_a = tiny_model(23)
        model_b = tiny_model(24)
        rng = RandomStream(25)
        features = rng.normal(size=(3, 3))
        nbest = alsd_beam(model_a, features, beam_width=32, n_best=4, expansion_cap=5)
        for factor, cap in ((3, 6), (4, 9)):
            at_cap = NBestRecord(tuple((i + 1) % 2 for i in range(cap)), 3 + cap, -9.0, 0.0, 0.0)
            over_cap = NBestRecord(tuple(i % 2 for i in range(cap + 1)), 4 + cap, -9.0, 0.0, 0.0)
            caplog.clear()
            with caplog.at_level("WARNING"):
                combined = combine(features, list(nbest) + [at_cap, over_cap], [],
                                   model_a, model_b, expansion_factor=factor)
            assert {c.labels for c in combined} == {h.labels for h in nbest} | {at_cap.labels}
            dropped = [r.getMessage() for r in caplog.records
                       if "dropping hypothesis" in r.message]
            assert dropped == [
                f"combine_rescore: dropping hypothesis of length {cap + 1} (cap {cap})"
            ]

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
            forward = fusion.prefix_trie_forward

            def tied_a(blank, label, parents):
                alpha = forward(blank, label, parents)
                alpha[0, -1] = -2.5  # every sequence's transducer_a
                return alpha

            monkeypatch.setattr(fusion, "prefix_trie_forward", tied_a)
        combined = combine(features, nb_a, nb_b, model_a, model_b)
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
        combined = combine(features, scored, [], model_a, model_b)
        # The one scoring path of tuning, reporting and verification.
        # Equal words keep the rows in their order.
        nbest = CachedNBest("u", (), combined, [()] * len(combined))
        scores = fusion._utterance_scores(nbest, fusion._cell_axes(w))[0].tolist()
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
        combined = combine(features, nb_a, nb_b, model_a, model_b)
        assert combined
        for c in combined:
            assert c.source_lm == lm_score(c.labels, src)
            assert c.external_lm == lm_score(c.labels, ext)

    def test_disagreeing_lm_scores_rejected(self):
        # The same label sequence scored by two different source LMs.
        model = tiny_model(45)
        ext = tiny_lm(46)
        features = RandomStream(47).normal(size=(3, 3))
        nbest = alsd_beam(model, features, beam_width=16, n_best=4, expansion_cap=5)
        nb_a = lm_scored(nbest, tiny_lm(48), ext)
        nb_b = lm_scored(nbest, tiny_lm(49), ext)
        with pytest.raises(ContractViolation, match="different LMs"):
            combine(features, nb_a, nb_b, model, model)

    def test_lm_models_are_not_parameters(self):
        model = tiny_model(50)
        features = RandomStream(51).normal(size=(3, 3))
        nbest = alsd_beam(model, features, beam_width=16, n_best=4, expansion_cap=5)
        with pytest.raises(TypeError):
            combine_rescore(features, nbest, [], model, model, tiny_lm(52), tiny_lm(53),
                            tables=fresh_tables(model, model), expansion_factor=3)
        # Nor are weights: the rows carry every component, and only tuning
        # weighs them.
        with pytest.raises(TypeError):
            combine_rescore(features, nbest, [], CombinationWeights(), model, model,
                            tables=fresh_tables(model, model), expansion_factor=3)

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
        combined = combine(features, nb_a, nb_b, model_a, model_b)

        union = {h.labels for h in nb_a} | {h.labels for h in nb_b}
        assert {c.labels for c in combined} == union
        prefixes = {labels[:u] for labels in union for u in range(1, len(labels) + 1)}
        assert len(prefixes) < sum(len(labels) for labels in union)  # prefixes are shared
        depth = max(map(len, union))
        assert depth < len(prefixes)  # a depth holds several prefixes
        assert lattice_nll_calls == []
        blocks, joints = calls["_label_forward"], calls["joint_forward_lattice"]
        for model in (model_a, model_b):
            own = [args for args in blocks if args[1] is model.prediction]
            assert len(own) == depth + 1
            # The root's begin step, then one step (symbols (1, n_d)) over
            # the n_d prefixes of depth d.
            shapes = [np.shape(args[0]) for args in own]
            assert shapes == [(1, 1)] + [
                (1, sum(len(p) == d for p in prefixes)) for d in range(1, depth + 1)
            ]
            assert sum(n for _, n in shapes) == len(prefixes) + 1
            assert sum(args[2] is model.joint for args in joints) == 1
        assert len(blocks) == 2 * (depth + 1) and len(joints) == 2

    def test_one_prefix_table_per_model_per_utterance(self, monkeypatch):
        # Given fresh tables, a call fills each model's with the union's one
        # trie layout, one block step per depth. Given tables shared by
        # utterances, one per model as `stage_combination` passes them for
        # a split, the calls make no table, and each table steps only the
        # prefixes that no earlier utterance reached.
        model_a = tiny_model(54)
        model_b = tiny_model(55, mode="multiplicative")
        sizes = [(4, 6), (2, 6), (6, 18)]  # (frames, expansion cap)
        utterances = [RandomStream(56 + i).normal(size=(T, 3)) for i, (T, _) in enumerate(sizes)]
        nbests = [[alsd_beam(model, features, beam_width=16, n_best=8, expansion_cap=cap)
                   for model in (model_a, model_b)]
                  for features, (_, cap) in zip(utterances, sizes)]
        features, (nb_a, nb_b) = utterances[0], nbests[0]
        tables, filled = [], []
        real_init, real_add = PrefixStates.__init__, PrefixStates.add

        def recorded_init(self, params):
            real_init(self, params)
            tables.append(self)

        def recorded_add(self, blocks):
            filled.append((self, [prefix for block in blocks for prefix in block]))
            return real_add(self, blocks)

        blocks = []
        monkeypatch.setattr(PrefixStates, "__init__", recorded_init)
        monkeypatch.setattr(PrefixStates, "add", recorded_add)
        monkeypatch.setattr(networks, "_label_forward",
                            counting(networks._label_forward, blocks))
        combined = combine(features, nb_a, nb_b, model_a, model_b)
        # Each model fills its own table once, with every node of the
        # union's one trie layout, one block step per depth.
        union = sorted(c.labels for c in combined)
        assert [id(t.params) for t in tables] == [id(model_a.prediction), id(model_b.prediction)]
        prefixes = {labels[:u] for labels in union for u in range(len(labels) + 1)}
        layout = filled[0][1]
        assert sorted(layout) == sorted(prefixes - {()})
        assert [(t, seqs) for t, seqs in filled] == [(t, layout) for t in tables]
        depth = max(map(len, union))
        for table in tables:
            assert set(table.index) == prefixes
            own = [args for args in blocks if args[1] is table.params]
            # The root (depth 0) is stepped by the begin symbol.
            assert [np.shape(args[0]) for args in own] == [
                (1, sum(len(p) == d for p in prefixes)) for d in range(depth + 1)
            ]

        shared = fresh_tables(model_a, model_b)
        del tables[:], blocks[:]
        seen, nodes = {()}, 0
        for features, (nb_a, nb_b) in zip(utterances, nbests):
            del filled[:]
            combined = combine_rescore(features, nb_a, nb_b, model_a, model_b, tables=shared,
                                       expansion_factor=3)
            prefixes = {c.labels[:u] for c in combined for u in range(len(c.labels) + 1)}
            assert tables == []
            assert [t for t, _ in filled] == shared
            for table, seqs in filled:
                assert sorted(seqs) == sorted(prefixes - seen)
            seen |= prefixes
            nodes += len(prefixes) - 1
            for table in shared:
                assert set(table.index) == seen
        assert len(seen) - 1 < nodes  # later utterances reuse earlier prefixes
        for table in shared:
            # Every distinct prefix of the utterances is stepped once.
            assert sum(np.size(args[0]) for args in blocks if args[1] is table.params) == \
                len(seen) - 1

    def test_models_of_different_frame_rates_rejected(self):
        # Both modes of a run share `[model] stacking` and `skip`; a pair
        # whose encoder outputs differ in length is refused, not scored.
        model_a = tiny_model(62)
        config = ModelConfig(
            num_labels=2,
            encoder=EncoderConfig(layers=1, cells=4, stacking=2, skip=2, input_dim=3),
            prediction=PredictionConfig(cells=4, embed_dim=3),
            joint_dim=5,
        )
        model_b = init_model(config, RandomStream(63))
        features = RandomStream(64).normal(size=(4, 3))
        nbest = alsd_beam(model_a, features, beam_width=16, n_best=4, expansion_cap=6)
        with pytest.raises(ContractViolation, match="4 and 2 frames"):
            combine(features, nbest, [], model_a, model_b)
        with pytest.raises(ContractViolation, match="2 and 4 frames"):
            combine(features, [], nbest, model_b, model_a)

    def test_out_of_vocabulary_label_rejected(self):
        model = tiny_model(57)
        features = RandomStream(58).normal(size=(3, 3))
        bad = [NBestRecord(labels=(0, 2), length=2, transducer_a=0.0, source_lm=0.0, external_lm=0.0)]
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            combine(features, bad, [], model, model)


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

    def test_zero_weight_drops_a_minus_inf_score(self):
        # `read_nbest` accepts -inf, a log-probability of zero. Under a zero
        # weight its term adds nothing: 0 * -inf would be a NaN, which wins
        # `np.argmax`, and its RuntimeWarning is an error in this suite.
        inf = math.inf
        assert density_ratio_score((-50.0, -inf, -1.0, 1), FusionWeights()) == -50.0
        assert combination_score((-inf, -2.0, -1.0, -1.0, 1),
                                 CombinationWeights(0.0, 1.0)) == -2.0
        nbests = [cached("u", ("a",), (("a",), -1.0, -1.0, -1.0, 1),
                         (("b",), -50.0, -inf, -1.0, 1))]
        assert top1_wer(nbests, FusionWeights()) == 0.0
        result = tune_weights(nbests)
        assert (result.weights, result.wer) == (FusionWeights(), 0.0)
        for weights, b_row in [
            (CombinationWeights(1.0, 0.0), (("b",), -50.0, -1.0, -1.0, 1, -inf)),
            (CombinationWeights(0.0, 1.0), (("b",), -inf, -1.0, -1.0, 1, -50.0)),
        ]:
            nbests = [cached("u", ("a",), (("a",), -1.0, -1.0, -1.0, 1, -1.0), b_row)]
            assert top1_wer(nbests, weights) == 0.0
            assert tune_weights(nbests, alpha_beta_grid=((weights.alpha, weights.beta),)).wer == 0.0

    def test_empty_nbest_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            top1_wer([CachedNBest("u", ("a",), [], [])], FusionWeights())


class TestNBestRecord:
    def test_keyword_construction_and_default(self):
        row = NBestRecord(labels=(0, 2), length=5, transducer_a=-1.5, source_lm=-2.0,
                          external_lm=-3.0)
        assert row.transducer_b is None
        assert row == NBestRecord((0, 2), 5, -1.5, -2.0, -3.0, None)
        assert row._asdict() == dict(labels=(0, 2), length=5, transducer_a=-1.5, source_lm=-2.0,
                                     external_lm=-3.0, transducer_b=None)

    def test_immutable(self):
        row = NBestRecord((0,), 4, -1.0, -2.0, -3.0, transducer_b=-4.0)
        with pytest.raises(AttributeError):
            row.transducer_a = 0.0
        with pytest.raises(TypeError):
            row[2] = 0.0
        assert row == NBestRecord((0,), 4, -1.0, -2.0, -3.0, transducer_b=-4.0)

    def test_equal_exactly_when_every_field_is(self):
        fields = dict(labels=(0, 1), length=4, transducer_a=-1.0, source_lm=-2.0,
                      external_lm=-3.0, transducer_b=-4.0)
        row = NBestRecord(**fields)
        assert row == NBestRecord(**fields) and hash(row) == hash(NBestRecord(**fields))
        for name, other in dict(labels=(1, 0), length=5, transducer_a=-1.5, source_lm=-2.5,
                                external_lm=-3.5, transducer_b=None).items():
            assert row != NBestRecord(**{**fields, name: other}), name


class TestNBestIO:
    def test_file_bytes_round_trip(self, tmp_path):
        # read then write gives back the file's bytes: 17 significant
        # digits, -0, subnormals, -inf transducer scores and both widths.
        alphabet = Alphabet(3, separator=2)
        for text in (
            "u1\ta b\t5\t-1.25\t-3\t-0.75\n"
            "u1\t\t3\t-inf\t-0\t0.30000000000000004\n"
            "u0\tbba\t6\t-12.345678901234567\t4.9406564584124654e-324\t-1.0000000000000001e+300\n",
            "u\ta\t1\t-inf\t-2.5\t-0.33333333333333331\t-1.7976931348623157e+308\n"
            "v\tb a\t3\t-1\t-inf\t-2\t-3\n",
        ):
            path, again = tmp_path / "rows.tsv", tmp_path / "again.tsv"
            path.write_bytes(text.encode())
            write_nbest(again, read_nbest(path, alphabet).items(), alphabet)
            assert again.read_bytes() == text.encode()

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
                assert loaded.length == orig.length
                assert loaded.transducer_a == orig.transducer_a
                assert loaded.transducer_b is None
                assert loaded.source_lm == lm_score(orig.labels, src)
                assert loaded.external_lm == lm_score(orig.labels, ext)

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
        assert list(back.items()) == records  # field-wise ==, so every float by ==
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
        # -inf is the log-probability of an impossible event, so it stays
        # legal for either transducer.
        path = tmp_path / "nbest.tsv"
        path.write_text("u\ta\t1\t-inf\t-inf\t-2\t-3\n")
        [row] = read_nbest(path, Alphabet(3, separator=2))["u"]
        assert row == NBestRecord((0,), 1, -math.inf, -2.0, -3.0, transducer_b=-math.inf)

    @pytest.mark.parametrize("transducer", [-50.0, -math.inf])
    @pytest.mark.parametrize("combination", [False, True])
    @pytest.mark.parametrize("lm", ["source_lm", "external_lm"])
    def test_negative_infinite_lm_score_rejected(self, tmp_path, transducer, combination, lm):
        # The reference row, then a row with a -inf LM score. Under mu > 0 a
        # -inf source-LM score makes the density ratio +inf, the top-1 of
        # every such cell, or NaN next to a -inf transducer score. The LMs
        # never write -inf, so both LM columns refuse it.
        alphabet = Alphabet(3, separator=2)
        b = {"transducer_b": -1.0} if combination else {}
        bad = dict(source_lm=-1.0, external_lm=-1.0, **b)
        bad[lm] = -math.inf
        rows = [NBestRecord((0,), 4, -1.0, -1.0, -1.0, **b),
                NBestRecord((1,), 4, transducer, **bad)]
        path = tmp_path / "nbest.tsv"
        write_nbest(path, [("u", rows)], alphabet)
        with pytest.raises(ContractViolation, match="^n-best line 2: LM score -inf"):
            read_nbest(path, alphabet)

    def test_byte_outside_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"u\ta\t1\t-1\t-2\t-3\nu\ta\xffb\t1\t-1\t-2\t-3\n")
        with pytest.raises(ContractViolation, match="n-best line 2: byte 0xff is not UTF-8"):
            read_nbest(path, Alphabet(3, separator=2))


# Scores as the format allows them: any float but NaN and +inf for a
# transducer, any finite float for an LM.
lm_scores = st.floats(allow_nan=False, allow_infinity=False)
scores = st.one_of(lm_scores, st.just(-math.inf))


@st.composite
def nbest_records(draw):
    """(utt_id, rows) records of one width, every utterance with a row."""
    width_b = draw(st.booleans())
    row = st.builds(
        NBestRecord,
        labels=st.lists(st.integers(0, 3), max_size=6).map(tuple),
        length=st.integers(0, 2**40),
        transducer_a=scores,
        source_lm=lm_scores,
        external_lm=lm_scores,
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
            assert list(back.items()) == records  # field-wise ==, so every float by ==
            # The bytes again, so -0.0 stays -0.0 as well.
            again = Path(tmp) / "again.tsv"
            write_nbest(again, back.items(), alphabet)
            assert again.read_bytes() == path.read_bytes()
