import numpy as np
import pytest

from transducer_workbench.scoring import compute_wer, corpus_wer


def edit_distance_oracle(a, b):
    # Independent full-table recursion, min over all three moves.
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


class TestComputeWer:
    """`compute_wer` returns the edit distance S + D + I."""

    def test_identical(self):
        assert compute_wer("a b c".split(), "a b c".split()) == 0

    def test_substitution(self):
        assert compute_wer("a b c".split(), "a x c".split()) == 1
        assert corpus_wer([("a b c".split(), "a x c".split())]) == pytest.approx(1 / 3)

    def test_deletion(self):
        assert compute_wer("cat sat".split(), ["cat"]) == 1
        assert corpus_wer([("cat sat".split(), ["cat"])]) == pytest.approx(0.5)

    def test_insertion(self):
        assert compute_wer(["cat"], "cat sat".split()) == 1
        assert corpus_wer([(["cat"], "cat sat".split())]) == pytest.approx(1.0)

    def test_empty_reference(self):
        # Every hypothesis word is an insertion; `corpus_wer` normalizes by
        # max(1, |ref|).
        assert compute_wer([], ["x", "y"]) == 2
        assert corpus_wer([([], ["x", "y"])]) == 2.0

    def test_both_empty(self):
        assert compute_wer([], []) == 0

    def test_counts_match_distance_oracle(self):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            ref = [vocab[k] for k in rng.integers(0, 4, size=rng.integers(0, 9))]
            hyp = [vocab[k] for k in rng.integers(0, 4, size=rng.integers(0, 9))]
            assert compute_wer(ref, hyp) == edit_distance_oracle(ref, hyp)
            assert compute_wer(iter(ref), iter(hyp)) == edit_distance_oracle(ref, hyp)

    def test_cost_symmetry(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "b", "c"]
        for _ in range(100):
            ref = [vocab[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
            hyp = [vocab[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
            assert compute_wer(ref, hyp) == compute_wer(hyp, ref)  # same alignment cost
            # The distance is at least the length gap and at most the longer length.
            assert abs(len(ref) - len(hyp)) <= compute_wer(ref, hyp) <= max(len(ref), len(hyp))


def test_corpus_wer_aggregates_by_reference_length():
    pairs = [("a b".split(), "a b".split()), ("c d".split(), ["c"])]
    assert corpus_wer(pairs) == pytest.approx(1 / 4)


def test_corpus_wer_reads_iterator_sequences_once():
    # A generator reference counts its words, although computing the edits
    # consumes it; the result equals the list call.
    pairs = [("a b c".split(), "a x c".split()), (["d"], [])]
    expected = corpus_wer(pairs)
    assert expected == pytest.approx(2 / 4)
    assert corpus_wer((iter(ref), iter(hyp)) for ref, hyp in pairs) == expected
    assert corpus_wer(((word for word in ref), hyp) for ref, hyp in pairs) == expected
