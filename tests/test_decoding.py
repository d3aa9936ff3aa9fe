import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FixedLatticeModel,
    ReferenceHypothesis,
    alsd_beam_reference,
    blank_dominant_model,
    random_fixed_model,
    stepwise_lm_score,
    total_mass_over_lengths,
)
from transducer_workbench import experiment, fusion, networks
from transducer_workbench.decoding import (
    MERGES,
    alsd_beam,
    exhaustive_decode,
    exhaustive_search_cost,
    greedy_decode,
)
from transducer_workbench.errors import ContractViolation, SearchBudgetExceeded
from transducer_workbench.experiment import attach_lm_components
from transducer_workbench.fusion import FusionWeights, NBestRecord
from transducer_workbench.joint import JOINT_MODES
from transducer_workbench.model import ModelConfig, init_model
from transducer_workbench.networks import (
    CharLMConfig,
    EncoderConfig,
    PredictionConfig,
    PrefixStates,
    init_char_lm_params,
    lm_score,
    prefix_trie,
)
from transducer_workbench.numerics import NEG_INF, RandomStream, log_softmax, log_sum_exp


def tiny_real_model(seed=1, num_labels=2, joint_mode="multiplicative"):
    config = ModelConfig(
        num_labels=num_labels,
        encoder=EncoderConfig(layers=1, cells=4, stacking=1, skip=1, input_dim=3),
        prediction=PredictionConfig(cells=4, embed_dim=3),
        joint_dim=5,
        joint_mode=joint_mode,
    )
    return init_model(config, RandomStream(seed))


class TestGreedy:
    def test_blank_dominant_empty_output(self):
        model = blank_dominant_model(4, 3, 3)
        assert greedy_decode(model, np.zeros(4)) == ()

    def test_forced_single_label(self):
        # T=1: label 0 beats blank at u=0, then blank wins at u=1.
        logits = np.zeros((1, 2, 2))
        logits[0, 0] = [0.0, 3.0]
        logits[0, 1] = [3.0, 0.0]
        model = FixedLatticeModel(log_softmax(logits))
        assert greedy_decode(model, np.zeros(1)) == (0,)

    def test_truncation_at_the_symbol_cap(self):
        # Truncation is a result of max_symbols labels: the search stops as
        # soon as it reaches the cap.
        logits = np.zeros((2, 4, 2))
        logits[:, :, 1] = 5.0  # label always wins: can never advance t
        model = FixedLatticeModel(log_softmax(logits))
        assert greedy_decode(model, np.zeros(2), max_symbols=3) == (0, 0, 0)

    def test_matches_exhaustive_on_peaked_model(self):
        # With near-deterministic output distributions the greedy path is
        # the unique maximizer, so greedy equals the exhaustive argmax.
        rng = RandomStream(7)
        for trial in range(20):
            T, U_rows, K = 3, 3, 3
            winners = rng.integers(0, K, size=(T, U_rows))
            logits = np.zeros((T, U_rows, K))
            for t in range(T):
                for u in range(U_rows):
                    logits[t, u, winners[t, u]] = 12.0
            logits[:, U_rows - 1, :] = 0.0
            logits[:, U_rows - 1, 0] = 12.0  # force blanks once u saturates
            model = FixedLatticeModel(log_softmax(logits))
            greedy = greedy_decode(model, np.zeros(T), max_symbols=U_rows - 1)
            exact = exhaustive_decode(model, np.zeros(T), max_symbols=U_rows - 1)
            assert greedy == exact[0].labels


class TestALSD:
    def test_blank_dominant_single_empty_hypothesis(self):
        model = blank_dominant_model(5, 3, 3)
        nbest = alsd_beam(model, np.zeros(5), beam_width=4, n_best=4,
                          debug_invariants=True)
        assert nbest[0].labels == ()
        assert nbest[0].length == 5

    def test_equal_alignment_length_invariant(self):
        rng = RandomStream(11)
        model = random_fixed_model(4, 4, 3, rng)
        alsd_beam(model, np.zeros(4), beam_width=8, n_best=4, debug_invariants=True)

    def test_saturating_beam_matches_exhaustive(self):
        rng = RandomStream(13)
        for trial in range(20):
            T = int(rng.integers(1, 5))
            max_u = int(rng.integers(0, 4))
            model = random_fixed_model(T, max_u + 1, 3, rng)
            exact = exhaustive_decode(model, np.zeros(T), max_symbols=max_u)
            nbest = alsd_beam(
                model,
                np.zeros(T),
                beam_width=4096,
                n_best=5,
                expansion_cap=T + max_u,
                debug_invariants=True,
            )
            assert nbest[0].labels == exact[0].labels
            # With a saturating beam and log-sum-exp merging, completed
            # scores equal the exact marginals.
            exact_by_labels = {row.labels: row.transducer_a for row in exact}
            for row in nbest:
                assert row.transducer_a == pytest.approx(exact_by_labels[row.labels], abs=1e-10)

    def test_real_model_matches_exhaustive(self):
        model = tiny_real_model(seed=3)
        rng = RandomStream(4)
        for trial in range(5):
            features = rng.normal(size=(3, 3))
            exact = exhaustive_decode(model, features, max_symbols=2)
            nbest = alsd_beam(
                model, features, beam_width=512, n_best=3, expansion_cap=3 + 2
            )
            assert nbest[0].labels == exact[0].labels
            assert nbest[0].transducer_a == pytest.approx(exact[0].transducer_a, abs=1e-10)

    @pytest.mark.parametrize("joint_mode", ["additive", "multiplicative"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10**6), T=st.integers(1, 4), num_labels=st.integers(1, 3),
           max_u=st.integers(0, 3), n_best=st.integers(1, 40))
    def test_real_models_match_exhaustive_nbest(
        self, joint_mode, seed, T, num_labels, max_u, n_best
    ):
        # A saturating beam (as wide as the number of label sequences the
        # cap allows) with log-sum-exp merging scores every sequence of at
        # most max_u labels by its exact marginal, so the whole n-best list
        # is the head of exhaustive search's ranking.
        model = tiny_real_model(seed, num_labels, joint_mode)
        features = RandomStream(seed).normal(size=(T, 3))
        cap = T + max_u
        head = exhaustive_decode(model, features, max_symbols=max_u)[:n_best]
        nbest = alsd_beam(model, features, beam_width=sum(num_labels**u for u in range(cap + 1)),
                          n_best=n_best, expansion_cap=cap, debug_invariants=True)
        assert [row.labels for row in nbest] == [row.labels for row in head]
        assert [row.length for row in nbest] == [row.length for row in head]
        for row, exact in zip(nbest, head):
            assert row.transducer_a == pytest.approx(exact.transducer_a, abs=1e-10)

    def test_beam_monotonicity(self):
        rng = RandomStream(17)
        models = [random_fixed_model(4, 4, 3, rng) for _ in range(5)]
        for model in models:
            prev = -np.inf
            for width in (1, 2, 4, 8, 64):
                nbest = alsd_beam(model, np.zeros(4), beam_width=width, n_best=1)
                assert nbest[0].transducer_a >= prev - 1e-12
                prev = nbest[0].transducer_a

    def test_determinism(self):
        rng = RandomStream(19)
        model = random_fixed_model(4, 4, 3, rng)
        a = alsd_beam(model, np.zeros(4), beam_width=4, n_best=4)
        b = alsd_beam(model, np.zeros(4), beam_width=4, n_best=4)
        assert a == b

    def test_nbest_unique_and_sorted(self):
        rng = RandomStream(23)
        model = random_fixed_model(4, 4, 3, rng)
        nbest = alsd_beam(model, np.zeros(4), beam_width=16, n_best=8)
        labels = [row.labels for row in nbest]
        assert len(set(labels)) == len(labels)
        scores = [row.transducer_a for row in nbest]
        assert scores == sorted(scores, reverse=True)

    def test_label_dominant_beam_completes_at_the_label_cap(self):
        logits = np.zeros((3, 10, 2))
        logits[:, :, 1] = 8.0  # labels dominate; width-1 beam takes labels first
        model = FixedLatticeModel(log_softmax(logits))
        rows = alsd_beam(model, np.zeros(3), beam_width=1, expansion_cap=6)
        # Once another label would strand it, the beam must consume the
        # frames: it completes with cap - T' = 3 labels.
        assert len(rows) == 1
        assert rows[0].labels == (0, 0, 0)
        assert rows[0].length == 6

    def test_max_merge_selects_viterbi(self):
        rng = RandomStream(29)
        model = random_fixed_model(3, 3, 2, rng)
        nbest = alsd_beam(model, np.zeros(3), beam_width=1024, n_best=3, merge="max")
        # Viterbi score of y is the max over its alignments; compute directly.
        from transducer_workbench.lattice import alignment_log_prob, enumerate_alignments

        for row in nbest:
            aligns = enumerate_alignments(3, len(row.labels), list(row.labels))
            lat = model.logprob_lattice(None, list(row.labels))
            best = max(alignment_log_prob(lat, a) for a in aligns)
            assert row.transducer_a == pytest.approx(best, abs=1e-10)

    def test_parameter_validation(self):
        model = blank_dominant_model(3, 2, 2)
        with pytest.raises(ContractViolation):
            alsd_beam(model, np.zeros(3), beam_width=0)
        with pytest.raises(ContractViolation):
            alsd_beam(model, np.zeros(3), beam_width=2, expansion_cap=2)
        with pytest.raises(ContractViolation):
            alsd_beam(model, np.zeros(3), beam_width=2, merge="viterbi")
        with pytest.raises(ContractViolation):
            alsd_beam(model, np.zeros(3), beam_width=2, n_best=0)


MODEL_KINDS = ["fixed", "sparse", "ties", "additive", "multiplicative"]


def _drawn_model(kind, seed, T, num_labels):
    """A decoder model of `kind` over T frames (T' = T) and its features:
    a fixed lattice of random, sparse (-inf labels) or tied scores, or a
    tiny real model of a joint mode."""
    rng = RandomStream(seed)
    shape = (T, 2 * T + 1, num_labels + 1)
    if kind == "ties":  # two logit values: many equal scores
        return (FixedLatticeModel(log_softmax(rng.integers(0, 2, size=shape).astype(float))),
                np.zeros(T))
    if kind in ("fixed", "sparse"):
        model = random_fixed_model(*shape, rng)
        if kind == "sparse":  # unreachable labels score -inf
            mask = rng.random(shape) < 0.3
            mask[..., 0] = False
            model.lattice[mask] = NEG_INF
        return model, np.zeros(T)
    model = tiny_real_model(seed=seed, num_labels=num_labels, joint_mode=kind)
    return model, rng.normal(size=(T, 3))


def _alsd_outcome(search, model, features, **kwargs):
    """Every field of a search's n-best rows; the reference's hypotheses in
    the same layout, with zero LM components."""
    return [
        dict(labels=h.labels, length=h.alignment_length, transducer_a=h.transducer,
             source_lm=0.0, external_lm=0.0, transducer_b=None)
        if isinstance(h, ReferenceHypothesis) else vars(h)
        for h in search(model, features, **kwargs)
    ]


class TestArrayBeamOracle:
    """The array beam of `alsd_beam` against the object-per-candidate loop
    it replaced (`helpers.alsd_beam_reference`): every returned field must
    be equal."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(MODEL_KINDS),
        seed=st.integers(0, 10**6),
        T=st.integers(1, 5),
        num_labels=st.integers(1, 4),
        beam_width=st.integers(1, 8),
        n_best=st.integers(1, 40),
        merge=st.sampled_from(["logsumexp", "max"]),
        cap_extra=st.integers(0, 10),
    )
    def test_matches_object_per_candidate_reference(
        self, kind, seed, T, num_labels, beam_width, n_best, merge, cap_extra
    ):
        model, features = _drawn_model(kind, seed, T, num_labels)
        kwargs = dict(beam_width=beam_width, n_best=n_best, merge=merge,
                      expansion_cap=T + cap_extra, debug_invariants=True)
        assert _alsd_outcome(alsd_beam, model, features, **kwargs) == _alsd_outcome(
            alsd_beam_reference, model, features, **kwargs
        )

    def test_tight_caps_complete_in_both(self):
        # Labels dominate, so a narrow beam consumes frames only when the
        # cap forces it to.
        logits = np.zeros((3, 10, 3))
        logits[:, :, 1:] = 8.0
        model = FixedLatticeModel(log_softmax(logits))
        for cap in range(3, 9):
            kwargs = dict(beam_width=2, n_best=3, expansion_cap=cap)
            outcome = _alsd_outcome(alsd_beam, model, np.zeros(3), **kwargs)
            assert outcome
            assert all(len(row["labels"]) <= cap - 3 for row in outcome)
            assert outcome == _alsd_outcome(alsd_beam_reference, model, np.zeros(3), **kwargs)


def _char_lms(num_labels, layers, rng):
    config = CharLMConfig(layers=layers, cells=4, embed_dim=3)
    return tuple(init_char_lm_params(num_labels, config, rng.child(i)) for i in (1, 2))


def _decoded(model, rng, utterances=3, T=4):
    """(utt_id, rows) records of `utterances` ALSD searches."""
    return [(f"u{i}", alsd_beam(model, rng.normal(size=(T, 3)), beam_width=4, n_best=8))
            for i in range(utterances)]


class TestFusedLMState:
    """Fusion's LM state is a function of the label prefix: the decoding
    stage's `attach_lm_components` keeps one `PrefixStates` table per LM,
    the table `lm_score` reads, and fills it with each utterance's n-best
    label sequences before scoring them."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("merge", ["logsumexp", "max"])
    def test_zero_weights_return_the_unfused_nbest_bitwise(self, layers, merge):
        # The LM components are the only fields scoring changes, and under
        # zero weights every fused score is the transducer score, so the
        # search's ranking stands.
        zero = fusion._grid_columns([FusionWeights()])
        for seed in range(25):
            rng = RandomStream(seed)
            num_labels, T = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            model = tiny_real_model(seed, num_labels, ("additive", "multiplicative")[seed % 2])
            features = rng.normal(size=(T, 3))
            lms = _char_lms(num_labels, layers, rng)
            plain = alsd_beam(model, features, beam_width=int(rng.integers(1, 8)),
                              n_best=int(rng.integers(1, 30)), merge=merge)
            [(_, scored)] = attach_lm_components([("u", plain)], *lms)
            assert [NBestRecord(r.labels, r.length, r.transducer_a, 0.0, 0.0)
                    for r in scored] == plain
            fused = fusion._utterance_scores(scored, zero)[0].tolist()
            assert fused == [row.transducer_a for row in plain]
            ranked = sorted(range(len(scored)), key=lambda i: (-fused[i], scored[i].labels))
            assert ranked == list(range(len(scored)))

    @pytest.mark.parametrize("layers", [1, 2])
    def test_one_cache_entry_per_scored_prefix_and_no_stepwise_calls(self, layers, monkeypatch):
        def refuse(*args):
            raise AssertionError("n-best scoring called the stepwise LM oracle")

        for name in ("_lm_step", "lm_init_state", "lm_score_next", "lm_end_increment"):
            monkeypatch.setattr(networks, name, refuse)
        rng = RandomStream(31 + layers)
        lms = _char_lms(3, layers, rng)
        records = _decoded(tiny_real_model(7, 3, "additive"), rng)
        scored = {}  # id of a table -> (LM, the table, the sequences scored on it)
        read = experiment.lm_score

        def recording(sequence, params, table):
            scored.setdefault(id(table), (params, table, set()))[2].add(tuple(sequence))
            return read(sequence, params, table)

        rows = {id(lm): 0 for lm in lms}
        label_forward = networks._label_forward

        def counted(symbols, params, *args):
            if id(params) in rows:
                rows[id(params)] += np.asarray(symbols).size
            return label_forward(symbols, params, *args)

        monkeypatch.setattr(experiment, "lm_score", recording)
        monkeypatch.setattr(networks, "_label_forward", counted)
        attach_lm_components(records, *lms)
        assert sorted(id(lm) for lm, _, _ in scored.values()) == sorted(map(id, lms))
        for lm, table, sequences in scored.values():
            assert sequences == {row.labels for _, decoded in records for row in decoded}
            distinct = {seq[:u] for seq in sequences for u in range(len(seq) + 1)}
            assert set(table.index) == distinct
            assert rows[id(lm)] == len(distinct)  # each entry computed once

    @pytest.mark.parametrize("layers", [1, 2])
    def test_one_fill_and_one_block_per_depth_each_utterance(self, layers, monkeypatch):
        # Each utterance fills each LM's table once, with all its label
        # sequences. Its new prefixes extend rows of earlier utterances or
        # its own, so each LM steps them in no more blocks than they have
        # distinct depths, and each new prefix once.
        rng = RandomStream(41 + layers)
        lms = _char_lms(3, layers, rng)
        records = _decoded(tiny_real_model(9, 3, "additive"), rng, utterances=4, T=5)
        fills, blocks = [], []
        fill, label_forward = networks.PrefixStates.rows, networks._label_forward

        def recording(table, prefixes):
            if table.params.head is None:
                return fill(table, prefixes)
            new = {seq[:u] for seq in prefixes for u in range(len(seq) + 1)} - set(table.index)
            blocks.clear()
            result = fill(table, prefixes)
            fills.append((table.params, new, list(blocks)))
            return result

        def counted(symbols, params, *args):
            blocks.append((params, np.asarray(symbols).size))
            return label_forward(symbols, params, *args)

        monkeypatch.setattr(networks.PrefixStates, "rows", recording)
        monkeypatch.setattr(networks, "_label_forward", counted)
        attach_lm_components(records, *lms)
        assert [id(params) for params, _, _ in fills] == [*map(id, lms)] * len(records)
        assert max(len(new) for _, new, _ in fills) > 2
        for params, new, steps in fills:
            assert all(stepped is params for stepped, _ in steps)
            assert sum(rows for _, rows in steps) == len(new)  # each new prefix once
            assert len(steps) <= len({len(prefix) for prefix in new})

    def test_lm_without_every_decoder_label_refused(self):
        source, external = (init_char_lm_params(2, CharLMConfig(layers=1, cells=3, embed_dim=2),
                                                RandomStream(seed)) for seed in (4, 5))
        rows = [NBestRecord((0, 2), 5, -1.0, 0.0, 0.0)]  # label 2 is outside both LMs
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            attach_lm_components([("u", rows)], source, external)


@pytest.mark.parametrize("layers", [1, 2])
def test_fused_lm_components_equal_lm_score(layers):
    # The decoding stage scores every n-best row on one table per LM; its
    # LM components equal `lm_score` on a fresh table and the stepwise
    # oracle's left-to-right sum bit for bit.
    checked = 0
    for seed in range(20):
        rng = RandomStream(60 + seed)
        num_labels, T = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        lms = _char_lms(num_labels, layers, rng)
        model = tiny_real_model(seed, num_labels, ("additive", "multiplicative")[seed % 2])
        nbest = alsd_beam(model, rng.normal(size=(T, 3)), beam_width=int(rng.integers(1, 8)),
                          n_best=int(rng.integers(1, 30)))
        [(_, scored)] = attach_lm_components([("u", nbest)], *lms)
        for row in scored:
            for component, lm in zip((row.source_lm, row.external_lm), lms):
                assert component == lm_score(row.labels, lm)
                assert component == stepwise_lm_score(row.labels, lm)[0]
            checked += 1
    assert checked > 100


def _search(model, features, beam_width, n_best, merge, start=None):
    """ALSD's n-best rows and the greedy labels, both searches from
    `start`."""
    rows = alsd_beam(model, features, beam_width=beam_width, n_best=n_best, merge=merge,
                     start=start)
    return rows, greedy_decode(model, features, start=start)


def _shared_case(seed, joint_mode):
    """A tiny real model of `joint_mode`, the other mode's model, both
    character LMs, search settings and a few utterances, all from `seed`."""
    rng = RandomStream(seed)
    num_labels = int(rng.integers(1, 5))
    other = JOINT_MODES[1 - JOINT_MODES.index(joint_mode)]
    models = (tiny_real_model(seed, num_labels, joint_mode),
              tiny_real_model(seed + 1, num_labels, other))
    lms = _char_lms(num_labels, int(rng.integers(1, 3)), rng)
    search = {"beam_width": int(rng.integers(1, 6)), "n_best": int(rng.integers(1, 10))}
    utterances = [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(4)]
    return models, lms, search, utterances


ORDERS = {"given": lambda n: range(n), "reversed": lambda n: reversed(range(n))}
shared_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("joint_mode", JOINT_MODES)
class TestSharedPrefixTables:
    """The decoding stage shares one prefix table per model across its
    utterances, `attach_lm_components` one per LM across its records, and
    cross-scoring one per model across the unions of a split. A row does
    not depend on when or with what it was added, so every result through a
    shared table equals, bit for bit, the result through a fresh table per
    utterance, in the given utterance order and in reverse."""

    @shared_settings
    @given(st.integers(0, 2**16))
    def test_decoding_through_one_start_state(self, joint_mode, merge, seed):
        (model, _), _, search, utterances = _shared_case(seed, joint_mode)
        fresh = [_search(model, features, merge=merge, **search) for features in utterances]
        for order in ORDERS.values():
            start = model.init_decode_state()
            shared = {i: _search(model, utterances[i], merge=merge, start=start, **search)
                      for i in order(len(utterances))}
            assert [shared[i] for i in range(len(utterances))] == fresh
            assert len(start.table.parents) > 1

    @shared_settings
    @given(st.integers(0, 2**16))
    def test_lm_components_through_shared_tables(self, joint_mode, merge, seed):
        # `attach_lm_components` shares one table per LM across its records.
        (model, _), lms, search, utterances = _shared_case(seed, joint_mode)
        records = [(f"u{i}", rows) for i, features in enumerate(utterances)
                   if isinstance(rows := _search(model, features, merge=merge, **search)[0], list)]
        fresh = [scored for record in records for scored in attach_lm_components([record], *lms)]
        for order in ORDERS.values():
            ordered = [records[i] for i in order(len(records))]
            assert sorted(attach_lm_components(ordered, *lms)) == fresh

    @shared_settings
    @given(st.integers(0, 2**16))
    def test_combination_lays_out_each_union_once(self, joint_mode, merge, seed):
        # Both models score a union on one layout, which is the layout of a
        # fresh table. Through one table per model shared by every union,
        # as `stage_combination` passes them for a split, the rows equal
        # the fresh-table calls' in every utterance order.
        models, _, search, utterances = _shared_case(seed, joint_mode)
        nbests = [[_search(model, features, merge=merge, **search)[0] for model in models]
                  for features in utterances]
        nbests = [[rows if isinstance(rows, list) else [rows] for rows in pair] for pair in nbests]
        layouts = []

        def recorded(sequences):
            layouts.append(prefix_trie(sequences))
            return layouts[-1]

        with mock.patch.object(fusion, "prefix_trie", recorded):
            scored = [fusion.combine_rescore(features, *pair, *models)
                      for features, pair in zip(utterances, nbests)]
        assert len(layouts) == len(utterances)
        for trie, combined in zip(layouts, scored):
            union = [trie.prefixes[end] for end in trie.ends]
            assert sorted(union) == sorted(row.labels for row in combined)
            for model in models:
                fresh = PrefixStates(model.prediction)
                assert fresh.rows(union).tolist() == trie.ends
                assert (fresh.parents, fresh.labels) == (trie.parents, trie.labels)
        for order in ORDERS.values():
            tables = [PrefixStates(model.prediction) for model in models]
            again = {i: fusion.combine_rescore(utterances[i], *nbests[i], *models, tables=tables)
                     for i in order(len(utterances))}
            assert [again[i] for i in range(len(utterances))] == scored
            prefixes = {row.labels[:u] for rows in scored for row in rows
                        for u in range(len(row.labels) + 1)}
            assert all(set(table.index) == prefixes | {()} for table in tables)


class _Handle:
    """Opaque decoder-state handle: the wrapped state and the label prefix
    of each of its rows."""

    def __init__(self, inner, prefixes):
        self.inner = inner
        self.prefixes = prefixes


class CountingModel:
    """Decoder-model wrapper that records the block calls, the prefixes
    given a prediction row (in the order of their first request), how many
    of them each extend call added, and the prefixes whose rows the joint
    network reads."""

    def __init__(self, inner):
        self._inner = inner
        self.made: list[tuple[int, ...]] = []
        self.read: set[tuple[int, ...]] = set()
        self.new_rows: list[int] = []  # per extend call
        self.joint_calls = 0
        self.last_state = None

    @property
    def num_labels(self):
        return self._inner.num_labels

    def encode_features(self, features, aux=None):
        return self._inner.encode_features(features, aux)

    def init_decode_state(self):
        return _Handle(self._inner.init_decode_state(), [()])

    def extend_decode_state(self, state, prefixes):
        known = {(), *self.made}
        new = [prefix for prefix in dict.fromkeys(prefixes) if prefix not in known]
        self.made += new
        self.new_rows.append(len(new))
        self.last_state = self._inner.extend_decode_state(state.inner, prefixes)
        return _Handle(self.last_state, list(prefixes))

    def joint_log_probs(self, H_rows, state):
        assert len(H_rows) == len(state.prefixes)
        self.read.update(state.prefixes)
        self.joint_calls += 1
        return self._inner.joint_log_probs(H_rows, state.inner)

    def logprob_lattice(self, H, labels):
        return self._inner.logprob_lattice(H, labels)


def _counted_alsd(model, features, **kwargs):
    counting = CountingModel(model)
    return counting, alsd_beam(counting, features, **kwargs)


class TestLazyPredictionStates:
    CASES = [
        pytest.param(lambda: random_fixed_model(5, 6, 4, RandomStream(47)), np.zeros(5),
                     id="fixed"),
        pytest.param(lambda: tiny_real_model(seed=5, num_labels=3),
                     RandomStream(53).normal(size=(4, 3)), id="real"),
    ]

    @pytest.mark.parametrize("make_model,features", CASES)
    @pytest.mark.parametrize("beam_width", [1, 2, 4])
    @pytest.mark.parametrize("merge", ["logsumexp", "max"])
    def test_every_state_read_and_made_once(self, make_model, features, beam_width, merge):
        counting, _ = _counted_alsd(make_model(), features, beam_width=beam_width,
                                    n_best=2, merge=merge)
        assert counting.made
        assert counting.read >= set(counting.made)
        # One extend and one joint call per step, each over the whole beam.
        assert len(counting.new_rows) == counting.joint_calls
        table = getattr(counting.last_state, "table", None)
        if table is not None:  # the real model: one row per prefix per utterance
            assert list(table.index) == [(), *counting.made]

    @pytest.mark.parametrize("make_model,features", CASES)
    @pytest.mark.parametrize("beam_width", [1, 2, 4])
    def test_extensions_per_step_within_beam(self, make_model, features, beam_width):
        # Each step's extend call gives a row only to the beam's new
        # prefixes, so at most beam_width, whatever the cap.
        model = make_model()
        T = model.encode_features(features).shape[0]
        for cap in range(T, 3 * T + 1):
            counting, _ = _counted_alsd(model, features, beam_width=beam_width,
                                        expansion_cap=cap)
            assert counting.new_rows[0] == 0  # the empty prefix's row exists
            assert all(0 <= n <= beam_width for n in counting.new_rows)
            assert sum(counting.new_rows) == len(counting.made)


class TestEarlyStop:
    def test_blank_dominant_stops_early_with_exact_nbest(self):
        rng = RandomStream(59)
        T, max_u, n_best = 3, 6, 3
        logits = rng.normal(0, 0.5, size=(T, max_u + 1, 3))
        logits[:, :, 0] += 5.0
        model = FixedLatticeModel(log_softmax(logits))
        exact = exhaustive_decode(model, np.zeros(T), max_symbols=max_u)
        stopped, nbest = _counted_alsd(model, np.zeros(T), beam_width=4, n_best=n_best)
        # An n-best list longer than any reachable completed set disables
        # the stop, so this run covers the whole expansion cap.
        full, full_nbest = _counted_alsd(model, np.zeros(T), beam_width=4, n_best=10**6)
        assert stopped.joint_calls < full.joint_calls
        assert nbest == full_nbest[:n_best]
        assert [row.labels for row in nbest] == [row.labels for row in exact[:n_best]]
        for row, ref in zip(nbest, exact):
            assert row.transducer_a == pytest.approx(ref.transducer_a, abs=1e-10)

    @pytest.mark.parametrize("merge", ["logsumexp", "max"])
    def test_nbest_prefix_of_unstopped_search(self, merge):
        # An n-best list longer than any reachable completed set disables
        # the stop. Log-sum-exp merges of incomplete hypotheses can raise a
        # score, so a stop that ignored them would cut off better
        # hypotheses.
        for trial in range(300):
            rng = RandomStream(trial)
            T = int(rng.integers(1, 6))
            model = random_fixed_model(T, 2 * T + 1, int(rng.integers(2, 5)), rng)
            kwargs = dict(beam_width=int(rng.integers(1, 8)), merge=merge)
            n_best = int(rng.integers(1, 5))
            full = alsd_beam(model, np.zeros(T), n_best=10**6, **kwargs)
            nbest = alsd_beam(model, np.zeros(T), n_best=n_best, **kwargs)
            assert nbest == full[:n_best]


class TestExhaustive:
    def test_max_symbols_zero(self):
        rng = RandomStream(31)
        model = random_fixed_model(3, 1, 3, rng)
        out = exhaustive_decode(model, np.zeros(3), max_symbols=0)
        assert len(out) == 1
        assert out[0].labels == ()
        blanks = model.lattice[:, 0, 0].sum()
        assert out[0].transducer_a == pytest.approx(blanks, abs=1e-12)

    def test_candidate_count_single_label(self):
        rng = RandomStream(37)
        model = random_fixed_model(2, 3, 2, rng)
        out = exhaustive_decode(model, np.zeros(2), max_symbols=2)
        assert sorted(row.labels for row in out) == [(), (0,), (0, 0)]
        assert [row.length for row in out] == [2 + len(row.labels) for row in out]

    def test_mass_agrees_with_path_dp(self):
        # Independent oracle: summed per-sequence marginals must equal the
        # label-marginalized path-mass DP on history-independent models.
        rng = RandomStream(41)
        for trial in range(10):
            T = int(rng.integers(1, 5))
            max_u = int(rng.integers(0, 4))
            model = random_fixed_model(T, max_u + 1, int(rng.integers(2, 4)), rng)
            out = exhaustive_decode(model, np.zeros(T), max_symbols=max_u)
            total = log_sum_exp([row.transducer_a for row in out])
            assert total == pytest.approx(
                total_mass_over_lengths(model, max_u), abs=1e-10
            )

    def test_support_exhausted_normalizes_to_one(self):
        # When the model assigns zero label mass everywhere, the empty
        # sequence carries all the probability: sum = 1 exactly.
        logits = np.zeros((3, 1, 3))
        lat = log_softmax(logits)
        lat[:, :, 1:] = -np.inf
        lat[:, :, 0] = 0.0
        model = FixedLatticeModel(lat)
        out = exhaustive_decode(model, np.zeros(3), max_symbols=0)
        assert out[0].transducer_a == pytest.approx(0.0, abs=1e-12)

    def test_budget_refusal(self):
        rng = RandomStream(43)
        model = random_fixed_model(4, 4, 4, rng)
        with pytest.raises(SearchBudgetExceeded):
            exhaustive_decode(model, np.zeros(4), max_symbols=3, budget=10)

    def test_cost_formula(self):
        assert exhaustive_search_cost(2, 1, 2) == (
            math.comb(2, 0) + math.comb(3, 1) + math.comb(4, 2)
        )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    seed=st.integers(0, 10**6),
    T=st.integers(1, 5),
    num_labels=st.integers(1, 4),
    beam_width=st.integers(1, 8),
    n_best=st.integers(1, 40),
    data=st.data(),
)
def test_nbest_rows_unique_ranked_with_alignment_lengths(
    kind, seed, T, num_labels, beam_width, n_best, data
):
    # The contract of the search's output: at least one row and one row per
    # label sequence, ranked by (-transducer score, labels), each of at most
    # cap - T' labels and alignment length T' + |y|, with zero LM components.
    model, features = _drawn_model(kind, seed, T, num_labels)
    T_prime = model.encode_features(features).shape[0]
    cap = data.draw(st.integers(T_prime, 3 * T_prime), label="expansion_cap")
    rows = alsd_beam(model, features, beam_width=beam_width, n_best=n_best, expansion_cap=cap)
    labels = [row.labels for row in rows]
    assert 1 <= len(rows) <= n_best
    assert all(len(y) <= cap - T_prime for y in labels)
    assert len(set(labels)) == len(labels)
    keys = [(-row.transducer_a, row.labels) for row in rows]
    assert keys == sorted(keys)
    assert all(row.source_lm == row.external_lm == 0.0 for row in rows)
    assert [row.length for row in rows] == [T_prime + len(y) for y in labels]
