import numpy as np
import pytest

from transducer_workbench.scoring import compute_wer, corpus_wer


def edit_distance_oracle(a, b):
    # Independent distance-only recursion used to audit the S+D+I split.
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


class TestComputeWer:
    def test_identical(self):
        assert compute_wer("a b c".split(), "a b c".split()) == (0.0, 0, 0, 0)

    def test_substitution(self):
        wer, s, d, i = compute_wer("a b c".split(), "a x c".split())
        assert (s, d, i) == (1, 0, 0)
        assert wer == pytest.approx(1 / 3)

    def test_deletion(self):
        wer, s, d, i = compute_wer("cat sat".split(), ["cat"])
        assert (s, d, i) == (0, 1, 0)
        assert wer == pytest.approx(0.5)

    def test_insertion(self):
        wer, s, d, i = compute_wer(["cat"], "cat sat".split())
        assert (s, d, i) == (0, 0, 1)
        assert wer == pytest.approx(1.0)

    def test_empty_reference(self):
        wer, s, d, i = compute_wer([], ["x", "y"])
        assert (s, d, i) == (0, 0, 2)
        assert wer == 2.0  # normalizer max(1, |ref|)

    def test_both_empty(self):
        assert compute_wer([], []) == (0.0, 0, 0, 0)

    def test_counts_match_distance_oracle(self):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            ref = [vocab[k] for k in rng.integers(0, 4, size=rng.integers(0, 9))]
            hyp = [vocab[k] for k in rng.integers(0, 4, size=rng.integers(0, 9))]
            _, s, d, i = compute_wer(ref, hyp)
            assert s + d + i == edit_distance_oracle(ref, hyp)

    def test_cost_symmetry(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "b", "c"]
        for _ in range(100):
            ref = [vocab[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
            hyp = [vocab[k] for k in rng.integers(0, 3, size=rng.integers(0, 7))]
            _, s1, d1, i1 = compute_wer(ref, hyp)
            _, s2, d2, i2 = compute_wer(hyp, ref)
            assert s1 + d1 + i1 == s2 + d2 + i2  # same alignment cost
            assert (d1, i1) == (i2, d2)  # deletions and insertions swap roles


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
