"""Property test: the vectorised weight tuning against a per-cell loop.

The oracle below scores every grid cell separately with scalar arithmetic,
picks each utterance's top-1 row under (-score, words), and counts its
edits with `compute_wer`, as tuning did before it was vectorised. The
vectorised search must return the same weights and the same WER, exactly.
|y| is the label count, which differs from a row's `length` field here,
as it does for decoder rows (their alignment length).
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_workbench import fusion
from transducer_workbench.fusion import (
    CachedNBest,
    CombinationWeights,
    FusionWeights,
    NBestRecord,
    TuneResult,
    combination_score,
    density_ratio_score,
    top1_wer,
    tune_weights,
)
from transducer_workbench.scoring import compute_wer


def oracle_score(row, w) -> float:
    length = len(row.labels)
    if isinstance(w, CombinationWeights):
        return (
            w.alpha * row.transducer_a
            + w.beta * row.transducer_b
            - w.mu * row.source_lm
            + w.lam * row.external_lm
            + w.rho * length
        )
    return row.transducer_a - w.mu * row.source_lm + w.lam * row.external_lm + w.rho * length


def oracle_cell_wer(nbests, w) -> float:
    errors = 0
    ref_words = 0
    for nbest in nbests:
        best, best_key = None, None
        for words, row in zip(nbest.words, nbest.rows):
            key = (-oracle_score(row, w), words)
            if best is None or key < best_key:
                best, best_key = words, key
        errors += compute_wer(list(nbest.reference), list(best))
        ref_words += len(nbest.reference)
    return errors / max(1, ref_words)


def oracle_tune(nbests, mu_grid, lam_grid, rho_grid, alpha_beta_grid=None) -> TuneResult:
    if alpha_beta_grid is None:
        cells = [FusionWeights(m, l, r) for m in mu_grid for l in lam_grid for r in rho_grid]
    else:
        cells = [
            CombinationWeights(a, b, m, l, r)
            for a, b in alpha_beta_grid
            for m in mu_grid
            for l in lam_grid
            for r in rho_grid
        ]
    best, best_key = None, None
    for w in cells:
        wer = oracle_cell_wer(nbests, w)
        if isinstance(w, CombinationWeights):
            magnitude = abs(w.alpha) + abs(w.beta) + abs(w.mu) + abs(w.lam) + abs(w.rho)
            tiebreak = (w.alpha, w.beta, w.mu, w.lam, w.rho)
        else:
            magnitude = abs(w.mu) + abs(w.lam) + abs(w.rho)
            tiebreak = (w.mu, w.lam, w.rho)
        key = (wer, magnitude, tiebreak)
        if best is None or key < best_key:
            best, best_key = TuneResult(w, wer), key
    return best


# Few distinct values, so that exact score ties between hypotheses with
# different words are common; the float draws cover everything else.
TIE_VALUES = (0.0, -0.5, -1.0, -1.5, -2.0, -3.0)
components = st.one_of(
    st.sampled_from(TIE_VALUES),
    st.floats(-20.0, 0.0, allow_nan=False, allow_infinity=False),
)
weight_values = st.one_of(
    st.sampled_from((0.0, 0.1, 0.3, 0.5, 1.0)),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
# Short word sequences over a tiny vocabulary: empty sequences and
# duplicate hypotheses within one list are frequent.
words = st.lists(st.sampled_from(("a", "b", "ab")), max_size=3).map(tuple)


# Components with -inf, the log-probability of an impossible event.
infinite_components = st.one_of(components, st.just(-math.inf))


@st.composite
def hypotheses(draw, combination, values=components):
    """(words, row) pairs; the row's `length` field is not its label count."""
    row = NBestRecord(
        labels=(0,) * draw(st.integers(0, 4)),
        length=draw(st.integers(5, 9)),
        transducer_a=draw(values),
        source_lm=draw(values),
        external_lm=draw(values),
        transducer_b=draw(values) if combination else None,
    )
    if draw(st.booleans()):
        # The same components under other words: a forced exact tie.
        return [(draw(words), row), (draw(words), row)]
    return [(draw(words), row)]


@st.composite
def nbest_lists(draw, combination):
    out = []
    for i in range(draw(st.integers(0, 4))):
        pairs = [h for group in draw(st.lists(hypotheses(combination), min_size=1, max_size=4))
                 for h in group]
        out.append(CachedNBest(f"u{i}", draw(words), [row for _, row in pairs],
                               [hyp_words for hyp_words, _ in pairs]))
    return out


grids = st.lists(weight_values, min_size=1, max_size=3).map(tuple)
alpha_beta_grids = st.lists(st.tuples(weight_values, weight_values), min_size=1, max_size=3)

# Derandomized and without an example database, so every run draws the
# same examples and writes nothing.
property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def axis_grid_scores(rows, pairs, mu_grid, lam_grid, rho_grid):
    """`_utterance_scores` of `rows`, in their order, over the axis grid,
    and the grid's cells in `itertools.product` order."""
    nbest = CachedNBest("u", (), rows, [()] * len(rows))  # equal words keep the order
    scores = fusion._utterance_scores(nbest, fusion._grid_axes(pairs, mu_grid, lam_grid, rho_grid))
    kind = CombinationWeights if pairs != [()] else FusionWeights
    cells = [kind(*pair, *rest) for pair, *rest in
             itertools.product(pairs, mu_grid, lam_grid, rho_grid)]
    return scores, cells


def scalar_score(row, w):
    """The fused-score formula on one row and one cell, with Python floats."""
    if isinstance(w, CombinationWeights):
        return combination_score((row.transducer_a, row.transducer_b, row.source_lm,
                                  row.external_lm, len(row.labels)), w)
    return density_ratio_score((row.transducer_a, row.source_lm, row.external_lm,
                                len(row.labels)), w)


class TestTuneWeightsAgainstPerCellLoop:
    @property_settings
    @given(st.lists(hypotheses(True), min_size=1, max_size=4),
           alpha_beta_grids, grids, grids, grids)
    def test_grid_scores_equal_scalar_scores(self, groups, pairs, mu_grid, lam_grid, rho_grid):
        rows = [row for group in groups for _, row in group]
        for grid_pairs in (pairs, [()]):
            scores, cells = axis_grid_scores(rows, grid_pairs, mu_grid, lam_grid, rho_grid)
            assert scores.shape == (len(cells), len(rows))
            for c, w in enumerate(cells):
                assert scores[c].tolist() == [oracle_score(row, w) for row in rows]

    @property_settings
    @given(st.lists(hypotheses(True, infinite_components), min_size=1, max_size=4),
           alpha_beta_grids, grids, grids, grids)
    def test_axis_grid_is_the_scalar_formula_bitwise(self, groups, pairs, mu_grid, lam_grid,
                                                     rho_grid):
        # -inf components under zero weights drop out, and under nonzero
        # ones give +-inf or NaN: every element, NaN bits included, must be
        # the scalar formula's.
        rows = [row for group in groups for _, row in group]
        for grid_pairs in (pairs, [()]):
            with np.errstate(invalid="ignore"):  # inf - inf is NaN on both sides
                scores, cells = axis_grid_scores(rows, grid_pairs, mu_grid, lam_grid, rho_grid)
                expected = np.array([[scalar_score(row, w) for row in rows] for w in cells],
                                    dtype=np.float64)
            assert scores.tobytes() == expected.tobytes()

    @property_settings
    @given(nbest_lists(False), grids, grids, grids)
    def test_fusion_grid(self, nbests, mu_grid, lam_grid, rho_grid):
        expected = oracle_tune(nbests, mu_grid, lam_grid, rho_grid)
        got = tune_weights(nbests, mu_grid=mu_grid, lam_grid=lam_grid, rho_grid=rho_grid)
        assert got.weights == expected.weights
        assert got.wer == expected.wer
        assert top1_wer(nbests, got.weights) == expected.wer

    @property_settings
    @given(nbest_lists(True), grids, grids, grids, alpha_beta_grids)
    def test_combination_grid(self, nbests, mu_grid, lam_grid, rho_grid, alpha_beta_grid):
        expected = oracle_tune(nbests, mu_grid, lam_grid, rho_grid, alpha_beta_grid)
        got = tune_weights(
            nbests, mu_grid=mu_grid, lam_grid=lam_grid, rho_grid=rho_grid,
            alpha_beta_grid=alpha_beta_grid,
        )
        assert got.weights == expected.weights
        assert got.wer == expected.wer
        assert top1_wer(nbests, got.weights) == expected.wer

    @property_settings
    @given(nbest_lists(True), weight_values, weight_values, weight_values,
           weight_values, weight_values)
    def test_single_cell_wer(self, nbests, alpha, beta, mu, lam, rho):
        for w in (FusionWeights(mu, lam, rho), CombinationWeights(alpha, beta, mu, lam, rho)):
            assert top1_wer(nbests, w) == oracle_cell_wer(nbests, w)
