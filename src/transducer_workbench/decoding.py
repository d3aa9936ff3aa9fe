"""Inference: greedy decoding, alignment-length synchronous beam search
(every live hypothesis has consumed the same number of alignment symbols),
and an exhaustive-search oracle for tiny instances.

A decoder model is anything with:

    encode_features(features, aux=None) -> H          # per-frame vectors
    init_decode_state() -> state                      # the empty prefix, one row
    extend_decode_state(state, prefixes) -> state     # rows of `prefixes`, in order
    joint_log_probs(H_rows, state) -> (B, K) log-probs  # blank at index 0
    logprob_lattice(H, labels) -> (T, U+1, K)         # for exhaustive search
    num_labels -> int

A state is a block of label-prefix rows. `extend_decode_state` takes label
tuples and returns their rows in order, adding the ones its table lacks
(`TransducerModel` keeps them in a `networks.PrefixStates` table, one per
`init_decode_state` call); row i of `joint_log_probs` reads H_rows[i] and
prefix i. State handles are never mutated, so they can be shared, and a
state depends only on its label prefix. So both decoders take an optional
`start` state: a stage passes one start state per model to all its
utterances, which then share their prefix rows, and each utterance steps
only the prefixes no earlier one reached. The results do not depend on
what the start state's table holds. The searches treat states as opaque;
`alsd_beam` steps the prediction network lazily: a label extension is
scored from its parent's row, and gets a row of its own only if it survives
pruning. Each step makes one extend call for the whole beam and one joint
call over it; `greedy_decode` uses one-row blocks. The frame-index
convention mirrors the lattice module: blanks read frame t, labels read
frame min(t, T-1), and a hypothesis is complete once it has consumed all T
frames, after which it may still extend by labels.

The search holds its beam as parallel arrays and scores, merges and prunes
all candidates of a step as one (beam, K) array. It ranks by
(-transducer score, labels), always completes within its expansion cap,
and stops as soon as no live hypothesis can enter the n-best list. LM
fusion rescores its n-best lists afterwards (`fusion`). It returns
`fusion.NBestRecord` rows, the one row type of the n-best files, tuning
and combination; so does the exhaustive oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractViolation, SearchBudgetExceeded
from .fusion import NBestRecord
from .lattice import BLANK_ID, rnnt_forward
from .numerics import log_add

EXHAUSTIVE_BUDGET = 500_000
MERGES = ("logsumexp", "max")  # how ALSD merges two paths to one label sequence


def greedy_decode(
    model, features, max_symbols: int | None = None, aux=None, start=None
) -> tuple[int, ...]:
    """Frame-by-frame argmax: emit labels until blank wins, then advance.

    Returns the labels. Stops at t = T or after max_symbols emissions (2T
    by default), so a result of max_symbols labels was truncated. `start`
    is the empty prefix's state, `model.init_decode_state()` when None.
    """
    H = model.encode_features(features, aux)
    T = H.shape[0]
    if max_symbols is None:
        max_symbols = 2 * T
    state = model.init_decode_state() if start is None else start
    labels: list[int] = []
    t = 0
    while t < T:
        logp = model.joint_log_probs(H[t : t + 1], state)[0]
        k = int(np.argmax(logp))
        if k == BLANK_ID:
            t += 1
            continue
        labels.append(k - 1)
        state = model.extend_decode_state(state, [tuple(labels)])
        if len(labels) >= max_symbols:
            break
    return tuple(labels)


def alsd_cap(T: int, expansion_factor: int = 3) -> int:
    """ALSD's expansion cap: `expansion_factor` steps per encoder frame over T
    frames. Its label cap, cap - T, bounds decoding and combination alike."""
    return expansion_factor * max(1, T)


def alsd_beam(
    model,
    features,
    beam_width: int,
    n_best: int = 1,
    expansion_cap: int | None = None,
    merge: str = MERGES[0],
    debug_invariants: bool = False,
    aux=None,
    start=None,
) -> list[NBestRecord]:
    """Alignment-length synchronous beam search.

    Iteration i extends every live hypothesis by exactly one alignment
    symbol, so the whole beam always shares one alignment length. Label
    sequences arriving at the same length are merged (log-sum-exp of their
    transducer mass by default; "max" selects Viterbi semantics). Completed
    hypotheses (all T frames consumed) are set aside, and may keep growing
    by trailing labels up to the expansion cap (`alsd_cap(T)` when None).
    In the last T steps, a candidate survives only if it can still consume
    every frame by the cap (t + expansion_cap - step >= T); a merged pair
    shares its t, so the rule drops both or neither.

    The beam is held as parallel arrays (labels, t, transducer score). Each
    step's joint call returns the beam's (B, K) block of log-probabilities,
    and every candidate is scored at once as transducer[:, None] + log-probs.
    Live label sequences are distinct, so a candidate's label sequence L
    can arise at most twice in one step: as the blank extension of live L
    and as the label extension of live L[:-1] by L[-1]. Those pairs are
    merged in place; log_add and max are symmetric, so the result does not
    depend on their order. The beam is the `beam_width` best candidates by
    (-transducer score, labels): `np.partition` finds the beam_width-th
    score, and only the candidates at or above it are sorted, so ties stay
    exact. Only the `n_best` best completed hypotheses are kept, which is
    exact both for the result and for the early stop below.

    Each step scores the whole beam with one `extend_decode_state` call,
    which gives a prediction row to the prefixes new to the beam, and one
    `joint_log_probs` call over the beam's rows. Every extension is scored
    from its parent's row; only the hypotheses that survive pruning get a
    row of their own, shared by label prefix. The search always stops as
    soon as no live hypothesis can enter the n-best list. The search starts
    from `start`, the empty prefix's state, or from a new
    `model.init_decode_state()` when None.

    Returns at least one and at most `n_best` rows, ranked by
    (-transducer_a, labels), one per label sequence of at most
    expansion_cap - T labels: `length` is the alignment length T + |labels|,
    `transducer_a` the transducer score, and the LM components are 0.0
    (`experiment.attach_lm_components` fills them).
    """
    if beam_width < 1:
        raise ContractViolation("beam_width must be >= 1")
    if n_best < 1:
        raise ContractViolation("n_best must be >= 1")
    if merge not in MERGES:
        raise ContractViolation(f"unknown merge mode {merge!r}")
    H = model.encode_features(features, aux)
    T = H.shape[0]
    if expansion_cap is None:
        expansion_cap = alsd_cap(T)
    if expansion_cap < T:
        raise ContractViolation("expansion_cap must be at least T")

    K = model.num_labels + 1
    is_blank = np.arange(K) == BLANK_ID
    state = model.init_decode_state() if start is None else start
    # The beam, ranked by (-score, labels).
    labels: list[tuple[int, ...]] = [()]
    t = np.zeros(1, dtype=np.int64)
    trans = np.zeros(1)
    completed: list[tuple] = []  # the n_best best (-score, labels), ranked

    for step in range(1, expansion_cap + 1):
        ts = t.tolist()
        if debug_invariants:
            lengths = {ti + len(li) for ti, li in zip(ts, labels)}
            assert lengths == {step - 1}, (
                f"alignment lengths diverged at step {step}: {sorted(lengths)}"
            )
        state = model.extend_decode_state(state, labels)
        logp = model.joint_log_probs(H[np.minimum(t, T - 1)], state)
        cand = trans[:, None] + logp
        cand_t = t[:, None] + is_blank
        valid = cand_t <= T  # a complete hypothesis has no blank extension
        if step > expansion_cap - T:  # keep only what can still consume every frame
            valid &= cand_t >= T - (expansion_cap - step)
        index = {prefix: i for i, prefix in enumerate(labels)}
        for i, prefix in enumerate(labels):
            j = index.get(prefix[:-1]) if prefix and ts[i] < T else None
            if j is not None:
                k = prefix[-1] + 1
                a, b = cand[i, BLANK_ID], cand[j, k]
                cand[i, BLANK_ID] = max(a, b) if merge == "max" else log_add(a, b)
                valid[j, k] = False

        def labels_of(c):
            i, k = divmod(c, K)
            return labels[i] if k == BLANK_ID else labels[i] + (k - 1,)

        done = np.flatnonzero(valid & (cand_t == T))
        if len(done):
            final = cand.ravel()[done]
            floor = -completed[-1][0] if len(completed) == n_best else -np.inf
            kept = _best(final, n_best, lambda e: labels_of(int(done[e])), floor)
            completed = sorted(completed + [(-float(final[e]), key) for e, key in kept])[:n_best]

        flat = np.flatnonzero(valid)
        best = _best(cand.ravel()[flat], beam_width, lambda e: labels_of(int(flat[e])))
        chosen = flat[[e for e, _ in best]]
        labels = [key for _, key in best]
        t = cand_t.ravel()[chosen]
        trans = cand.ravel()[chosen]
        # Exact early stop. Once every live hypothesis is complete, all share
        # one t and one label count with distinct labels, so no later merge
        # can add mass, and each extension adds a log-probability <= 0: no
        # descendant can beat the best live one. Later completions have more
        # labels than any held now, so they never replace one. Strict `<`
        # keeps the (-score, labels) tie-break exact.
        if len(completed) == n_best and (t == T).all() and trans[0] < -completed[-1][0]:
            break

    return [NBestRecord(key, T + len(key), -neg_score, 0.0, 0.0) for neg_score, key in completed]


def _best(scores: np.ndarray, n: int, labels_of, floor: float = -np.inf) -> list:
    """The n best entries of `scores` at or above `floor`, by (-score,
    labels), as (index, labels) pairs in rank order. `np.partition` finds
    the n-th best score, and only the entries at or above it are sorted."""
    pick = scores >= floor
    if len(scores) > n:
        kth = np.partition(scores, len(scores) - n)[len(scores) - n]
        pick &= scores >= kth
    idx = np.flatnonzero(pick).tolist()
    ranked = sorted(zip((-scores[idx]).tolist(), map(labels_of, idx), idx))
    return [(e, key) for _, key, e in ranked[:n]]


def exhaustive_search_cost(T: int, num_labels: int, max_symbols: int) -> int:
    """Candidate-weighted path count: sum over u of |Y|^u * C(T+u, u)."""
    return sum(
        (num_labels**u) * math.comb(T + u, u) for u in range(max_symbols + 1)
    )


def exhaustive_decode(
    model, features, max_symbols: int, budget: int = EXHAUSTIVE_BUDGET, aux=None
) -> list[NBestRecord]:
    """Exact p(y|x) for every label sequence up to max_symbols, ranked by
    (-log p(y|x), labels): one row per sequence, with `transducer_a` the
    exact log p(y|x), `length` the alignment length T + |labels| and zero
    LM components.

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
            out.append(NBestRecord(labels, T + U, -nll, 0.0, 0.0))
    out.sort(key=lambda row: (-row.transducer_a, row.labels))
    return out
