"""Word error rate via Levenshtein alignment with unit costs."""

from __future__ import annotations

import numpy as np


def compute_wer(reference, hypothesis):
    """Align hypothesis to reference words; returns (wer, S, D, I).

    WER = (S + D + I) / max(1, len(reference)); empty sequences are legal.
    Backtrace prefers substitution/match, then deletion, then insertion, so
    the count split is deterministic (the total S+D+I is the edit distance
    regardless).
    """
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    wer = (subs + dels + ins) / max(1, n)
    return wer, subs, dels, ins


def corpus_wer(pairs) -> float:
    """Aggregate WER over (reference, hypothesis) word-sequence pairs; each
    sequence may be any iterable, read once."""
    errors = 0
    words = 0
    for ref, hyp in pairs:
        ref = list(ref)
        _, s, d, i = compute_wer(ref, hyp)
        errors += s + d + i
        words += len(ref)
    return errors / max(1, words)
