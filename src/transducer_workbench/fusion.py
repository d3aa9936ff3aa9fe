"""Language-model fusion and two-model combination.

Scoring forms (all over complete label sequences y):

- density ratio:       log p(y|x) - mu*log p_src(y) + lam*log p_ext(y) + rho*|y|
                       (shallow fusion is the case mu = 0)
- combination:         alpha*log p(y|x; A) + beta*log p(y|x; B)
                       - mu*log p_src(y) + lam*log p_ext(y) + rho*|y|

|y| counts emitted labels (sentence markers excluded). During beam search
the same objective is applied per emitted symbol through FusionScorer, from
each LM's `networks.PrefixStates` table, whose columns `lm_score` reads
too: a completed hypothesis's LM components equal `lm_score` bit for bit.

Combination cross-scores each utterance's n-best union on the prefix trie of
its label sequences (`TransducerModel.prefix_trie_nlls`, one fresh table per
model), so a prefix that many hypotheses share is scored once per model. The
result agrees with `lattice_nll`, the per-sequence oracle, within
1e-12 * max(1, |nll|).

After the search, every n-best row is an `NBestRecord`: the rows of decoder
and combination files, cross-scored and rescored rows, and the rows that
weight tuning scores. Its one reader and writer, and the loader that turns
rows into tuning input, also live here.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import scoring
from .data import atomic_write, not_utf8
from .errors import ContractViolation
from .networks import CharLMParams, lm_score

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusionWeights:
    """mu: source-LM subtraction, lam: external LM, rho: length reward.
    All zero reduces every scorer to the plain transducer score."""

    mu: float = 0.0
    lam: float = 0.0
    rho: float = 0.0


@dataclass(frozen=True)
class CombinationWeights:
    alpha: float = 0.5
    beta: float = 0.5
    mu: float = 0.0
    lam: float = 0.0
    rho: float = 0.0


def density_ratio_score(components, w: FusionWeights) -> float:
    """components = (log p(y|x), log p_src(y), log p_ext(y), |y|).

    Elementwise on numpy arrays too: with weight fields of shape (cells, 1)
    and components of shape (hyps,) it scores a whole grid at once, with
    the same operations in the same order as the scalar call."""
    trans, src, ext, length = components
    return trans - w.mu * src + w.lam * ext + w.rho * length


def combination_score(components, w: CombinationWeights) -> float:
    """components = (log p(y|x; A), log p(y|x; B), log p_src(y), log p_ext(y),
    |y|); elementwise on numpy arrays like `density_ratio_score`."""
    trans_a, trans_b, src, ext, length = components
    return w.alpha * trans_a + w.beta * trans_b - w.mu * src + w.lam * ext + w.rho * length


class FusionScorer:
    """Weights and LMs of fusion inside beam search (`alsd_beam`), which
    reads each LM's rows by label prefix from a `PrefixStates` table
    (`networks.lm_next_logprobs`). LMs may be omitted when their weight is
    zero.
    """

    def __init__(
        self,
        weights: FusionWeights,
        source_lm: CharLMParams | None = None,
        external_lm: CharLMParams | None = None,
    ):
        if weights.mu != 0.0 and source_lm is None:
            raise ContractViolation("mu != 0 needs a source language model")
        if weights.lam != 0.0 and external_lm is None:
            raise ContractViolation("lam != 0 needs an external language model")
        self.weights = weights
        self.source_lm = source_lm
        self.external_lm = external_lm


# ---------------------------------------------------------------------------
# Rescoring


def rescore_nbest(
    hypotheses,
    weights: FusionWeights,
    source_lm: CharLMParams | None = None,
    external_lm: CharLMParams | None = None,
) -> list[NBestRecord]:
    """Density-ratio rescoring of decoder hypotheses with full-sequence LM
    scores. Returns their rows, `length` the label count, ranked by
    (-fused score, labels)."""
    rows = []
    for hyp in hypotheses:
        src = lm_score(hyp.labels, source_lm)[0] if source_lm is not None else 0.0
        ext = lm_score(hyp.labels, external_lm)[0] if external_lm is not None else 0.0
        rows.append(NBestRecord(hyp.labels, len(hyp.labels), hyp.transducer, src, ext))
    rows.sort(key=lambda r: (-density_ratio_score(
        (r.transducer_a, r.source_lm, r.external_lm, r.length), weights), r.labels))
    return rows


def combine_rescore(
    features, nbest_a, nbest_b, model_a, model_b, *, aux=None
) -> list[NBestRecord]:
    """Cross-score the union of two n-best lists: one row per unique label
    sequence, `length` its label count, with both transducers' scores,
    ranked by (-transducer_a, labels).

    Every sequence is scored by both transducers with exact lattice
    marginals. Each model scores the union in one `prefix_trie_nlls` call,
    on the prefix trie of a fresh table: one prediction-LSTM block step per
    trie depth (a row per distinct label prefix), one joint column and one
    alpha column per prefix. The scores agree with the per-sequence oracle
    `lattice_nll` within 1e-12 * max(1, |nll|); only the joint matmuls' row
    counts differ. The LM components are not recomputed: they are the
    `source_lm`/`external_lm` fields of the n-best entries (`Hypothesis` or
    `NBestRecord`), which the decoding stage fills with full-sequence
    `lm_score` values. Both lists must carry the same LM scores for a shared
    label sequence; entries whose LM components were never filled
    contribute 0.0. A sequence longer than 2 * max(T_a, T_b) labels, over
    the longer encoder output, is excluded with a logged warning: ALSD
    emits at most that many, so only an n-best file from outside the
    program can hold one.

    Raises ContractViolation when the two lists disagree on the LM scores of
    a label sequence, since they were then scored by different LMs.
    """
    H_a = model_a.encode_features(features, aux)
    H_b = model_b.encode_features(features, aux)
    cap = 2 * max(H_a.shape[0], H_b.shape[0])
    union: dict[tuple[int, ...], tuple[float, float]] = {}
    for hyp in itertools.chain(nbest_a, nbest_b):
        lm = (hyp.source_lm, hyp.external_lm)
        if union.setdefault(hyp.labels, lm) != lm:
            raise ContractViolation(
                f"combine_rescore: LM scores {union[hyp.labels]} and {lm} for labels "
                f"{hyp.labels}; the n-best lists were scored by different LMs"
            )
    kept = []
    for labels in union:
        if len(labels) > cap:
            logger.warning(
                "combine_rescore: dropping hypothesis of length %d (cap %d)", len(labels), cap
            )
            continue
        kept.append(labels)
    scores_a = (-model_a.prefix_trie_nlls(H_a, kept)).tolist()
    scores_b = (-model_b.prefix_trie_nlls(H_b, kept)).tolist()
    rows = [
        NBestRecord(labels, len(labels), trans_a, *union[labels], transducer_b=trans_b)
        for labels, trans_a, trans_b in zip(kept, scores_a, scores_b)
    ]
    rows.sort(key=lambda r: (-r.transducer_a, r.labels))
    return rows


# ---------------------------------------------------------------------------
# Weight tuning on cached components


@dataclass
class CachedNBest:
    """One utterance's tuning input: its n-best rows and the words of each,
    so tuning never re-runs a model or renders labels again. The rows are
    sorted once, stably, by their words, so the first maximum of a score
    column is the top-1 under (-score, words)."""

    utt_id: str
    reference: tuple[str, ...]
    rows: list[NBestRecord]
    words: list[tuple[str, ...]]

    def __post_init__(self):
        ranked = sorted(zip(self.words, self.rows, strict=True), key=lambda pair: pair[0])
        self.words = [words for words, _ in ranked]
        self.rows = [row for _, row in ranked]


def cached_nbests(rows_by_utt, alphabet, references) -> list[CachedNBest]:
    """Tuning input from n-best rows: `rows_by_utt` maps utterance id to
    `NBestRecord` rows, `references` maps utterance id to reference labels.
    One CachedNBest per reference, in id order; an utterance without rows
    gets one empty row with zero components, which scores as deleting
    every reference word."""
    cached = []
    for utt_id in sorted(references):
        rows = rows_by_utt.get(utt_id) or [NBestRecord((), 0, 0.0, 0.0, 0.0, transducer_b=0.0)]
        words = [tuple(alphabet.words(row.labels)) for row in rows]
        cached.append(CachedNBest(utt_id, tuple(alphabet.words(references[utt_id])), rows, words))
    return cached


@dataclass(frozen=True)
class TuneResult:
    weights: FusionWeights | CombinationWeights
    wer: float


DEFAULT_MU_GRID = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_LAM_GRID = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_RHO_GRID = tuple(round(0.1 * i, 1) for i in range(6))


def _grid_columns(cells):
    """The weight objects `cells`, all of one type, as one weights object
    whose fields are (cells, 1) columns."""
    kind = type(cells[0])
    names = [f.name for f in fields(kind)]
    return kind(*(np.array([getattr(w, n) for w in cells], dtype=np.float64)[:, None]
                  for n in names))


def _utterance_scores(rows, grid) -> np.ndarray:
    """Fused score of every row under every cell of `grid` (from
    `_grid_columns`), shape (cells, rows). The one scoring path of tuning,
    reporting and verification. |y| is the label count: a decoder row's
    `length` is its alignment length. Combination weights need transducer_b
    on every row."""
    trans_a = np.array([r.transducer_a for r in rows], dtype=np.float64)
    src = np.array([r.source_lm for r in rows], dtype=np.float64)
    ext = np.array([r.external_lm for r in rows], dtype=np.float64)
    length = np.array([len(r.labels) for r in rows], dtype=np.float64)
    if isinstance(grid, CombinationWeights):
        if any(r.transducer_b is None for r in rows):
            raise ContractViolation("combination scoring needs transducer_b components")
        trans_b = np.array([r.transducer_b for r in rows], dtype=np.float64)
        return combination_score((trans_a, trans_b, src, ext, length), grid)
    return density_ratio_score((trans_a, src, ext, length), grid)


def _grid_errors(nbests: list[CachedNBest], cells) -> np.ndarray:
    """Corpus edit count of the top-1 rows under each cell, shape (cells,).
    Top-1 is the first row under (-score, words): a CachedNBest's rows are
    sorted by words, and `np.argmax` returns the first maximum. Each chosen
    row's edit count is computed once."""
    grid = _grid_columns(cells)
    errors = np.zeros(len(cells), dtype=np.int64)
    for nbest in nbests:
        if not nbest.rows:
            raise ContractViolation(f"{nbest.utt_id}: n-best list is empty")
        top1 = np.argmax(_utterance_scores(nbest.rows, grid), axis=1)
        edits = np.zeros(len(nbest.rows), dtype=np.int64)
        for i in np.unique(top1):
            _, subs, dels, ins = scoring.compute_wer(list(nbest.reference), list(nbest.words[i]))
            edits[i] = subs + dels + ins
        errors += edits[top1]
    return errors


def top1_wer(nbests: list[CachedNBest], weights: FusionWeights | CombinationWeights) -> float:
    """Corpus WER of each utterance's top-1 hypothesis under `weights`, by
    the same scoring and tie-break as `tune_weights`."""
    errors = int(_grid_errors(nbests, [weights])[0])
    return errors / max(1, sum(len(nbest.reference) for nbest in nbests))


def tune_weights(
    dev_nbests: list[CachedNBest],
    mu_grid=DEFAULT_MU_GRID,
    lam_grid=DEFAULT_LAM_GRID,
    rho_grid=DEFAULT_RHO_GRID,
    alpha_beta_grid=None,
) -> TuneResult:
    """Exhaustive grid search minimizing corpus WER on cached components.

    All cells of one utterance are scored together, with the arithmetic of
    `density_ratio_score` / `combination_score`, so every score equals the
    scalar formula's bit for bit. Each utterance's top-1 row is the first
    under (-score, words), and the edit count of a row is computed at most
    once per call, as it does not depend on the weights.
    Cells tie-break toward smaller total |weights|, then lexicographically
    on the weights' field tuple, so results are deterministic. When
    `alpha_beta_grid` is given, the search runs over CombinationWeights
    (rows must carry transducer_b).
    """
    if not mu_grid or not lam_grid or not rho_grid:
        raise ContractViolation("tuning grid must be non-empty")
    if alpha_beta_grid is None:
        kind, pairs = FusionWeights, [()]
    elif alpha_beta_grid:
        kind, pairs = CombinationWeights, [(alpha, beta) for alpha, beta in alpha_beta_grid]
    else:
        raise ContractViolation("tuning grid must be non-empty")
    # Each cell's field tuple, as `astuple` gives it, in grid order.
    values = [(*pair, *rest) for pair, *rest in
              itertools.product(pairs, mu_grid, lam_grid, rho_grid)]
    errors = _grid_errors(dev_nbests, [kind(*v) for v in values])
    ref_words = max(1, sum(len(nbest.reference) for nbest in dev_nbests))
    wer, _, best = min((cell_errors / ref_words, sum(map(abs, v)), v)
                       for cell_errors, v in zip(errors.tolist(), values))
    return TuneResult(kind(*best), wer)


# ---------------------------------------------------------------------------
# N-best artifacts: one tab-separated format for decoder n-best files
# (`nbest_*.tsv`) and cross-scored combination files (`combination_*.tsv`).
# A row is
#
#     utt_id, label text, length, transducer_a, [transducer_b,] source LM, external LM
#
# `length` is the alignment length in decoder files and the label count in
# combination files; only combination files carry the transducer_b column.
# Floats are written with 17 significant digits, so they read back exactly.


@dataclass(frozen=True)
class NBestRecord:
    """One n-best row: a line of an n-best file, a cross-scored or rescored
    hypothesis, and tuning input. `length` is the alignment length in rows
    from the decoder and the label count elsewhere; the fused scores take
    |y| from `labels`."""

    labels: tuple[int, ...]
    length: int
    transducer_a: float
    source_lm: float
    external_lm: float
    transducer_b: float | None = None


def write_nbest(path, records, alphabet):
    """records: iterable of (utt_id, rows), one line per `NBestRecord`
    row; the transducer_b column is written when the row carries one.

    The file is written with `atomic_write`: `read_nbest` accepts a file
    cut at a line boundary, so a killed or failed write must never leave
    one at `path`."""
    with atomic_write(path) as f:
        for utt_id, rows in records:
            for row in rows:
                scores = (row.transducer_a, row.transducer_b, row.source_lm, row.external_lm)
                cols = [utt_id, alphabet.to_text(row.labels), str(row.length)]
                cols += [f"{x:.17g}" for x in scores if x is not None]
                f.write("\t".join(cols) + "\n")


def read_nbest(path, alphabet) -> dict[str, list[NBestRecord]]:
    """Rows by utterance id, in file order. Every line must have 6 fields
    (decoder file) or every line 7 (combination file), with text in the
    alphabet and numbers where the format has them. A score may be -inf (a
    log-probability of zero) but not NaN or +inf, which would win every
    argmax in tuning. Anything else, a byte that is not UTF-8 too, raises
    ContractViolation naming the line, since the files may come from
    outside the program."""
    out: dict[str, list[NBestRecord]] = {}
    width = None
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) not in (6, 7) or width not in (None, len(parts)):
                    expected = width or "6 or 7"
                    raise ContractViolation(
                        f"n-best line {lineno}: {len(parts)} fields, expected {expected}"
                    )
                width = len(parts)
                utt_id, text, length, trans_a, *trans_b, src, ext = parts
                try:
                    record = NBestRecord(
                        labels=alphabet.to_labels(text),
                        length=int(length),
                        transducer_a=float(trans_a),
                        source_lm=float(src),
                        external_lm=float(ext),
                        transducer_b=float(trans_b[0]) if trans_b else None,
                    )
                except (ValueError, ContractViolation) as exc:
                    raise ContractViolation(f"n-best line {lineno}: {exc}") from exc
                for score in (record.transducer_a, record.transducer_b, record.source_lm,
                              record.external_lm):
                    if score is not None and not score < math.inf:
                        raise ContractViolation(
                            f"n-best line {lineno}: score {score} is NaN or +inf"
                        )
                out.setdefault(utt_id, []).append(record)
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"n-best {not_utf8(path)}") from exc
    return out
