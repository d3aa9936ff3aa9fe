"""Inference: greedy decoding, alignment-length synchronous beam search
(every live hypothesis has consumed the same number of alignment symbols),
and an exhaustive-search oracle for tiny instances.

A decoder model is anything with:

    encode_features(features, aux=None) -> H          # per-frame vectors
    init_decode_state() -> state                      # prefix state handle
    extend_decode_state(state, label) -> state        # immutable extension
    joint_log_probs(h_vec, state) -> (K,) log-probs   # blank at index 0
    logprob_lattice(H, labels) -> (T, U+1, K)         # for exhaustive search
    num_labels -> int

State handles are never mutated, so beam branches can share them. A
state depends only on its label prefix, so `alsd_beam` keeps one state per
prefix per utterance and steps the prediction network lazily: a label
extension is scored from its parent's state, and its own state is made
only if it survives pruning. The frame-index convention mirrors the
lattice module: blanks read frame t, labels read frame min(t, T-1), and a
hypothesis is complete once it has consumed all T frames, after which it
may still extend by labels.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import ContractViolation, DecodeError, SearchBudgetExceeded
from .fusion import density_ratio_score
from .lattice import BLANK_ID, rnnt_forward
from .numerics import log_add

EXHAUSTIVE_BUDGET = 500_000


@dataclass(frozen=True)
class Hypothesis:
    """A partial or completed transduction with per-source score components.

    `score` is the pruning/ranking total: the transducer log-probability
    plus, when fusion is active, the weighted LM terms and length reward
    accumulated per emitted symbol. `alignment_length` counts consumed
    alignment symbols (blanks + labels).

    In `alsd_beam`, `pred_state` is None until the hypothesis survives
    pruning and is about to be extended; a returned hypothesis, or the
    `best_partial` of a `DecodeError`, may therefore carry None."""

    labels: tuple[int, ...]
    t_progress: int
    score: float
    transducer: float
    source_lm: float = 0.0
    external_lm: float = 0.0
    pred_state: Any = None
    fusion_state: Any = None

    @property
    def alignment_length(self) -> int:
        return self.t_progress + len(self.labels)


@dataclass
class NBestList:
    """Ranked unique-label hypotheses with retained score components."""

    hypotheses: list[Hypothesis]

    def __post_init__(self):
        seen = set()
        for a, b in itertools.pairwise(self.hypotheses):
            if a.score < b.score:
                raise ContractViolation("n-best list must be sorted by score")
        for hyp in self.hypotheses:
            if hyp.labels in seen:
                raise ContractViolation("duplicate label sequence in n-best list")
            seen.add(hyp.labels)

    def __len__(self):
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    def __getitem__(self, i):
        return self.hypotheses[i]

    @property
    def best(self) -> Hypothesis:
        return self.hypotheses[0]


@dataclass
class GreedyResult:
    labels: tuple[int, ...]
    truncated: bool = False


def greedy_decode(model, features, max_symbols: int | None = None, aux=None) -> GreedyResult:
    """Frame-by-frame argmax: emit labels until blank wins, then advance.

    Stops at t = T or after max_symbols emissions (sets the truncation flag).
    """
    H = model.encode_features(features, aux)
    T = H.shape[0]
    if max_symbols is None:
        max_symbols = 2 * T
    state = model.init_decode_state()
    labels: list[int] = []
    t = 0
    while t < T:
        logp = model.joint_log_probs(H[t], state)
        k = int(np.argmax(logp))
        if k == BLANK_ID:
            t += 1
            continue
        labels.append(k - 1)
        state = model.extend_decode_state(state, k - 1)
        if len(labels) >= max_symbols:
            return GreedyResult(tuple(labels), truncated=True)
    return GreedyResult(tuple(labels))


def _rank_key(hyp: Hypothesis):
    return (-hyp.score, hyp.labels)


def _fused_score(hyp_trans, src, ext, n_labels, fusion) -> float:
    if fusion is None:
        return hyp_trans
    return density_ratio_score((hyp_trans, src, ext, n_labels), fusion.weights)


def _merge(pool: dict, hyp: Hypothesis, merge: str, fusion) -> None:
    old = pool.get(hyp.labels)
    if old is None:
        pool[hyp.labels] = hyp
        return
    if merge == "max":
        if hyp.transducer <= old.transducer:
            return
        trans = hyp.transducer
    else:
        trans = log_add(old.transducer, hyp.transducer)
    # Same labels means identical LM components and states; only the
    # transducer mass differs between the merged paths.
    pool[hyp.labels] = replace(
        old,
        transducer=trans,
        score=_fused_score(trans, old.source_lm, old.external_lm, len(old.labels), fusion),
    )


def alsd_beam(
    model,
    features,
    beam_width: int,
    n_best: int = 1,
    expansion_cap: int | None = None,
    fusion=None,
    merge: str = "logsumexp",
    debug_invariants: bool = False,
    aux=None,
) -> NBestList:
    """Alignment-length synchronous beam search.

    Iteration i extends every live hypothesis by exactly one alignment
    symbol, so the whole beam always shares one alignment length. Label
    sequences arriving at the same length are merged (log-sum-exp of their
    transducer mass by default; "max" selects Viterbi semantics). Completed
    hypotheses (all T frames consumed) are set aside with their language
    model end-of-sequence increments applied, and may keep growing by
    trailing labels up to the expansion cap.

    Every extension is scored from its parent's prediction state; only the
    hypotheses that survive pruning get a state of their own, shared by
    label prefix. Without fusion, the search stops as soon as no live
    hypothesis can enter the n-best list.
    """
    if beam_width < 1:
        raise ContractViolation("beam_width must be >= 1")
    if n_best < 1:
        raise ContractViolation("n_best must be >= 1")
    if merge not in ("logsumexp", "max"):
        raise ContractViolation(f"unknown merge mode {merge!r}")
    H = model.encode_features(features, aux)
    T = H.shape[0]
    if expansion_cap is None:
        expansion_cap = 3 * T  # labels up to 2T
    if expansion_cap < T:
        raise ContractViolation("expansion_cap must be at least T")

    states = {(): model.init_decode_state()}
    live = [
        Hypothesis(
            labels=(),
            t_progress=0,
            score=0.0,
            transducer=0.0,
            pred_state=states[()],
            fusion_state=fusion.init_state() if fusion is not None else None,
        )
    ]
    completed: dict[tuple[int, ...], Hypothesis] = {}
    num_labels = model.num_labels

    for step in range(1, expansion_cap + 1):
        if debug_invariants and live:
            lengths = {hyp.alignment_length for hyp in live}
            assert len(lengths) == 1 and lengths == {step - 1}, (
                f"alignment lengths diverged at step {step}: {sorted(lengths)}"
            )
        expansions: dict[tuple[int, ...], Hypothesis] = {}
        for hyp in live:
            if hyp.pred_state is None:
                hyp = replace(hyp, pred_state=_prefix_state(model, states, hyp.labels))
            frame = min(hyp.t_progress, T - 1)
            logp = model.joint_log_probs(H[frame], hyp.pred_state)
            if hyp.t_progress < T:
                trans = hyp.transducer + float(logp[BLANK_ID])
                _merge(
                    expansions,
                    replace(
                        hyp,
                        t_progress=hyp.t_progress + 1,
                        transducer=trans,
                        score=_fused_score(
                            trans, hyp.source_lm, hyp.external_lm, len(hyp.labels), fusion
                        ),
                    ),
                    merge,
                    fusion,
                )
            for k in range(1, num_labels + 1):
                label = k - 1
                trans = hyp.transducer + float(logp[k])
                src, ext, fstate = hyp.source_lm, hyp.external_lm, hyp.fusion_state
                if fusion is not None:
                    src_inc, ext_inc, fstate = fusion.extend(hyp.fusion_state, label)
                    src += src_inc
                    ext += ext_inc
                _merge(
                    expansions,
                    Hypothesis(
                        labels=hyp.labels + (label,),
                        t_progress=hyp.t_progress,
                        transducer=trans,
                        source_lm=src,
                        external_lm=ext,
                        score=_fused_score(trans, src, ext, len(hyp.labels) + 1, fusion),
                        fusion_state=fstate,
                    ),
                    merge,
                    fusion,
                )
        for hyp in expansions.values():
            if hyp.t_progress == T:
                completed[hyp.labels] = _finalize(hyp, fusion)
        live = sorted(expansions.values(), key=_rank_key)[:beam_width]
        if not live:
            break
        # Exact early stop. Once every live hypothesis is complete, all share
        # one t and one label count with distinct labels, so no later merge
        # can add mass, and each extension adds a log-probability <= 0: no
        # descendant can beat live[0]. Later completions have more labels
        # than any held now, so they never replace one. Strict `<` keeps
        # the (-score, labels) tie-break exact. LM increments may be
        # positive, so the stop needs fusion off.
        if (
            fusion is None
            and len(completed) >= n_best
            and all(hyp.t_progress == T for hyp in live)
            and live[0].score < _nth_best(completed, n_best).score
        ):
            break

    if not completed:
        best_partial = live[0] if live else None
        raise DecodeError(
            f"no completed hypothesis within expansion cap {expansion_cap}",
            best_partial=best_partial,
        )
    ranked = sorted(completed.values(), key=_rank_key)
    return NBestList(ranked[:n_best])


def _nth_best(completed: dict, n: int) -> Hypothesis:
    return heapq.nsmallest(n, completed.values(), key=_rank_key)[-1]


def _prefix_state(model, states: dict, labels: tuple[int, ...]):
    """The prediction state of a label prefix, made from its parent
    prefix's state on first use. The parent is always present: it was live,
    and so was given its state, one step earlier."""
    if labels not in states:
        states[labels] = model.extend_decode_state(states[labels[:-1]], labels[-1])
    return states[labels]


def _finalize(hyp: Hypothesis, fusion) -> Hypothesis:
    """Apply LM end-of-sequence increments so completed-hypothesis scores
    equal full-sequence rescoring."""
    if fusion is None:
        return hyp
    src_end, ext_end = fusion.end_increments(hyp.fusion_state)
    src = hyp.source_lm + src_end
    ext = hyp.external_lm + ext_end
    return replace(
        hyp,
        source_lm=src,
        external_lm=ext,
        score=_fused_score(hyp.transducer, src, ext, len(hyp.labels), fusion),
    )


@dataclass(frozen=True)
class ScoredSequence:
    labels: tuple[int, ...]
    log_prob: float


def exhaustive_search_cost(T: int, num_labels: int, max_symbols: int) -> int:
    """Candidate-weighted path count: sum over u of |Y|^u * C(T+u, u)."""
    return sum(
        (num_labels**u) * math.comb(T + u, u) for u in range(max_symbols + 1)
    )


def exhaustive_decode(
    model, features, max_symbols: int, budget: int = EXHAUSTIVE_BUDGET, aux=None
) -> list[ScoredSequence]:
    """Exact p(y|x) for every label sequence up to max_symbols, ranked.

    Scores each candidate through the lattice forward pass, so the ranking
    marginalizes over alignments exactly. Refuses when the implied work
    exceeds the budget.
    """
    H = model.encode_features(features, aux)
    T = H.shape[0]
    cost = exhaustive_search_cost(T, model.num_labels, max_symbols)
    if cost > budget:
        raise SearchBudgetExceeded(
            f"exhaustive decode needs ~{cost} path evaluations, budget is {budget}"
        )
    out = []
    for U in range(max_symbols + 1):
        for labels in itertools.product(range(model.num_labels), repeat=U):
            lattice = model.logprob_lattice(H, list(labels))
            nll, _ = rnnt_forward(lattice, list(labels))
            out.append(ScoredSequence(labels=labels, log_prob=-nll))
    out.sort(key=lambda s: (-s.log_prob, s.labels))
    return out
