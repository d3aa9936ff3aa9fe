"""Correctness checks run outside the timed region.

Each check returns a list of problems (empty = passed). They compare the
program's outputs with oracles or properties: alignment enumeration, a
directional central difference, exact lattice marginals, stepwise LM
scoring, and the benchmark's own Levenshtein distance and top-1 selection.
"""

from __future__ import annotations

import math

import numpy as np

from transducer_workbench.lattice import ENUMERATION_CAP, brute_force_nll
from transducer_workbench.networks import lm_end_increment, lm_init_state, lm_score_next
from transducer_workbench.numerics import RandomStream

NLL_TOL = 1e-9
SCORE_TOL = 1e-9
WER_TOL = 1e-12
# Enumeration is pure Python; sample the lattices with the fewest paths.
MAX_PATHS = 5000
ORACLE_SAMPLES = 4


def levenshtein(ref, hyp) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def _short_items(items, stacked_len, limit=ORACLE_SAMPLES):
    """The `limit` items whose lattices have the fewest alignments, among
    those within the enumeration cap and the path budget."""
    ranked = []
    for item in items:
        T, U = stacked_len(item), len(item[1])
        if T + U <= ENUMERATION_CAP and math.comb(T + U, U) <= MAX_PATHS:
            ranked.append((math.comb(T + U, U), item))
    ranked.sort(key=lambda p: p[0])
    return [item for _, item in ranked[:limit]]


def _stacked_frames(model, features) -> int:
    skip = model.config.encoder.skip
    return (features.shape[0] + skip - 1) // skip


# ---------------------------------------------------------------------------
# train


def check_train(models: dict, histories: dict, dataset, seed: int) -> list[str]:
    """`histories`: mode -> per-epoch train NLLs of the final round."""
    problems = []
    for mode, model in models.items():
        nlls = histories[mode]
        if len(nlls) < 2 or not nlls[-1] < nlls[0]:
            problems.append(f"{mode}: last epoch NLL {nlls[-1]} not below first {nlls[0]}")
        bad = [name for name, arr in model.arrays().items() if not np.isfinite(arr).all()]
        if bad:
            problems.append(f"{mode}: parameters {bad} are not finite")
            continue
        items = [(u.frames.astype(np.float64), u.labels) for u in dataset]
        short = _short_items(items, lambda it: _stacked_frames(model, it[0]))
        if not short:
            problems.append(f"{mode}: no utterance small enough for the enumeration oracle")
        for features, labels in short:
            nll, _ = model.loss_and_grads(features, labels)
            H = model.encode_features(features)
            oracle = brute_force_nll(model.logprob_lattice(H, labels), labels)
            if not abs(nll - oracle) <= NLL_TOL:
                problems.append(f"{mode}: lattice NLL {nll!r} != enumeration {oracle!r}")
        if short:
            problems += check_directional_derivative(model, *short[-1], RandomStream(seed).child(7))
    return problems


def check_directional_derivative(model, features, labels, rng, eps=1e-5) -> list[str]:
    """(L(p + eps d) - L(p - eps d)) / 2 eps must match <grad, d>."""
    _, grads = model.loss_and_grads(features, labels)
    params = model.arrays()
    direction = {k: rng.child(i).normal(size=v.shape) for i, (k, v) in enumerate(sorted(params.items()))}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items()) / norm
    saved = {k: v.copy() for k, v in params.items()}
    losses = []
    try:
        for sign in (1.0, -1.0):
            for k, v in params.items():
                v[:] = saved[k] + sign * eps * direction[k] / norm
            losses.append(model.loss(features, labels))
    finally:
        for k, v in params.items():
            v[:] = saved[k]
    numeric = (losses[0] - losses[1]) / (2 * eps)
    if not abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic)):
        return [f"directional derivative {analytic!r} != central difference {numeric!r}"]
    return []


# ---------------------------------------------------------------------------
# decode


def read_nbest_file(path, alphabet) -> dict:
    """utt_id -> list of (labels, transducer, source_lm, external_lm).
    Parsed here rather than by `fusion.read_nbest`, so the checks do not
    rely on the reader that `verify_report` uses."""
    out: dict[str, list] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            utt_id, text, _, trans, src, ext = line.rstrip("\n").split("\t")
            out.setdefault(utt_id, []).append(
                (alphabet.to_labels(text), float(trans), float(src), float(ext))
            )
    return out


def stepwise_lm_score(labels, lm) -> float:
    state = lm_init_state(lm)
    total = 0.0
    for label in labels:
        inc, state = lm_score_next(state, label, lm)
        total += inc
    return total + lm_end_increment(state, lm)


def check_decode(run_dir, models: dict, datasets: dict, alphabet, source_lm, external_lm) -> list[str]:
    problems = []
    lm_cache: dict = {}
    for mode, model in models.items():
        for split in ("dev", "test"):
            nbest = read_nbest_file(run_dir / f"nbest_{mode}_{split}.tsv", alphabet)
            for utt in datasets[split]:
                where = f"{mode}/{split}/{utt.utt_id}"
                hyps = nbest.get(utt.utt_id, [])
                if not hyps:
                    problems.append(f"{where}: empty n-best list")
                    continue
                if len({h[0] for h in hyps}) != len(hyps):
                    problems.append(f"{where}: duplicate label sequences")
                if any(a[1] < b[1] for a, b in zip(hyps, hyps[1:])):
                    problems.append(f"{where}: n-best not sorted by score")
                H = model.encode_features(utt.frames.astype(np.float64), utt.aux)
                for labels, trans, src, ext in hyps:
                    marginal = -model.lattice_nll(H, list(labels))
                    if not trans <= marginal + SCORE_TOL:
                        problems.append(
                            f"{where} {labels}: ALSD score {trans!r} above marginal {marginal!r}"
                        )
                    if labels not in lm_cache:
                        lm_cache[labels] = (
                            stepwise_lm_score(labels, source_lm),
                            stepwise_lm_score(labels, external_lm),
                        )
                    for kind, stored, oracle in zip(("source", "external"), (src, ext), lm_cache[labels]):
                        if not abs(stored - oracle) <= SCORE_TOL:
                            problems.append(
                                f"{where} {labels}: {kind} LM {stored!r} != stepwise {oracle!r}"
                            )
    return problems


# ---------------------------------------------------------------------------
# rescore


def _read_combination_file(path, alphabet) -> dict:
    """utt_id -> list of (labels, transducer_a, transducer_b, source, external)."""
    out: dict[str, list] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            utt_id, text, _, ta, tb, src, ext = line.rstrip("\n").split("\t")
            out.setdefault(utt_id, []).append(
                (alphabet.to_labels(text), float(ta), float(tb), float(src), float(ext))
            )
    return out


def corpus_wer(refs: dict, candidates: dict, score, alphabet) -> float:
    """Top-1 by (-score, words) per utterance, then corpus WER."""
    errors = words = 0
    for utt_id, ref in refs.items():
        scored = [(-score(c), tuple(alphabet.words(c[0]))) for c in candidates.get(utt_id, [])]
        best = min(scored) if scored else (0.0, ())
        ref_words = alphabet.words(ref)
        errors += levenshtein(ref_words, list(best[1]))
        words += len(ref_words)
    return errors / max(1, words)


def _fusion_score(w):
    return lambda c: c[1] - w["mu"] * c[2] + w["lam"] * c[3] + w["rho"] * len(c[0])


def _combination_score(w):
    return lambda c: (
        w["alpha"] * c[1] + w["beta"] * c[2] - w["mu"] * c[3] + w["lam"] * c[4] + w["rho"] * len(c[0])
    )


def check_rescore(run_dir, report: dict, refs: dict, alphabet, models: dict, datasets: dict) -> list[str]:
    """`refs`: split -> utt_id -> reference labels, read by the caller from
    the transcripts the set-up wrote."""
    problems = []
    for condition, entries in report["conditions"].items():
        for name, entry in entries.items():
            w = entry["weights"]
            files, scorer, zero = {}, None, None
            for split in ("dev", "test"):
                if condition == "combination":
                    files[split] = _read_combination_file(run_dir / f"combination_{split}.tsv", alphabet)
                    scorer = _combination_score(w)
                    zero = _combination_score(dict(w, mu=0.0, lam=0.0, rho=0.0))
                else:
                    files[split] = read_nbest_file(run_dir / f"nbest_{name}_{split}.tsv", alphabet)
                    scorer = _fusion_score(w)
                    zero = _fusion_score({"mu": 0.0, "lam": 0.0, "rho": 0.0})
                wer = corpus_wer(refs[split], files[split], scorer, alphabet)
                if not abs(wer - entry[f"{split}_wer"]) <= WER_TOL:
                    problems.append(
                        f"{condition}/{name}/{split}: reported WER {entry[f'{split}_wer']!r}, "
                        f"recomputed {wer!r}"
                    )
            untuned = corpus_wer(refs["dev"], files["dev"], zero, alphabet)
            if not entry["dev_wer"] <= untuned + WER_TOL:
                problems.append(
                    f"{condition}/{name}: tuned dev WER {entry['dev_wer']!r} above "
                    f"the zero-weight cell's {untuned!r}"
                )
    if "combination" in report["conditions"]:
        problems += _check_cross_scores(run_dir, alphabet, models, datasets)
    return problems


def _check_cross_scores(run_dir, alphabet, models: dict, datasets: dict) -> list[str]:
    problems = []
    model_a, model_b = list(models.values())[:2]
    for split in ("dev", "test"):
        rows = _read_combination_file(run_dir / f"combination_{split}.tsv", alphabet)
        items = []
        for utt in datasets[split]:
            features = utt.frames.astype(np.float64)
            for labels, ta, tb, _, _ in rows.get(utt.utt_id, []):
                items.append((features, labels, ta, tb, utt.aux))
        short = _short_items(items, lambda it: _stacked_frames(model_a, it[0]))
        if not short:
            problems.append(f"{split}: no cross-scored hypothesis small enough to enumerate")
        for features, labels, ta, tb, aux in short:
            for model, stored in ((model_a, ta), (model_b, tb)):
                H = model.encode_features(features, aux)
                oracle = -brute_force_nll(model.logprob_lattice(H, list(labels)), list(labels))
                if not abs(stored - oracle) <= NLL_TOL:
                    problems.append(f"{split} {labels}: cross-score {stored!r} != enumeration {oracle!r}")
    return problems
