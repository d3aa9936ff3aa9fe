"""Word error rate via Levenshtein alignment with unit costs."""

from __future__ import annotations


def compute_wer(reference, hypothesis) -> int:
    """The word-level edit distance between reference and hypothesis: the
    least number of substitutions, deletions and insertions (S + D + I, the
    WER numerator) that turns one into the other. Either sequence may be
    empty, and each may be any iterable, read once.

    Two rows of the unit-cost dynamic program, as lists. Neighbouring
    cells differ by at most one, so a matching word takes the diagonal cell
    and any other takes one more than the least of its three neighbours.
    """
    ref = list(reference)
    prev = list(range(len(ref) + 1))
    for i, word in enumerate(hypothesis, 1):
        cur = [i]
        left = i
        for r, diag, up in zip(ref, prev, prev[1:]):
            left = diag if r == word else min(diag, up, left) + 1
            cur.append(left)
        prev = cur
    return prev[-1]


def corpus_wer(pairs) -> float:
    """Aggregate WER over (reference, hypothesis) word-sequence pairs: the
    summed edit distances over the summed reference lengths. Each sequence
    may be any iterable, read once."""
    errors = 0
    words = 0
    for ref, hyp in pairs:
        ref = list(ref)
        errors += compute_wer(ref, hyp)
        words += len(ref)
    return errors / max(1, words)
