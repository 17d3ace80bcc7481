"""Unit and property tests for the edit distance and its pair kernel.

:func:`edit_distance` is the scalar reference; the bit-parallel
:class:`EncodedSequences` kernel must return the same exact distance
for every pair, whatever cutoff Algorithm 1 later compares it with.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.editdist import EncodedSequences, edit_distance

WORDS = st.text(alphabet="ACDEFGHIK", max_size=25)
LONG_WORDS = st.text(alphabet="ACD", max_size=150)
ANY_WORDS = st.text(max_size=70)


def kernel_distances(a_seqs, b_seqs):
    """The pair kernel over ``zip(a_seqs, b_seqs)``, as a list."""
    n = len(a_seqs)
    encoded = EncodedSequences(list(a_seqs) + list(b_seqs))
    return encoded.distances(np.arange(n), np.arange(n) + n).tolist()


def kernel_distance(a, b):
    return kernel_distances([a], [b])[0]


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook full-matrix implementation (test oracle)."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


@pytest.mark.parametrize(
    "a,b,d",
    [
        ("", "", 0),
        ("A", "", 1),
        ("", "ACD", 3),
        ("KITTEN", "SITTING", 3),
        ("FLAW", "LAWN", 2),
        ("PEPTIDE", "PEPTIDE", 0),
        ("AAAA", "AAA", 1),
        ("ACDE", "ECDA", 2),
    ],
)
def test_known_distances(a, b, d):
    assert edit_distance(a, b) == d


@pytest.mark.parametrize(
    "a,b,d",
    [
        ("", "", 0),
        ("A", "", 1),
        ("", "ACD", 3),
        ("KITTEN", "SITTING", 3),
        ("FLAW", "LAWN", 2),
        ("PEPTIDE", "PEPTIDE", 0),
        ("AAAA", "AAA", 1),
        ("ACDE", "ECDA", 2),
    ],
)
def test_kernel_known_distances(a, b, d):
    assert kernel_distance(a, b) == d
    assert kernel_distance(b, a) == d


def test_bounded_exact_when_within():
    """A distance within the cutoff is exact (KITTEN/SITTING = 3)."""
    for cutoff in (3, 10):
        assert kernel_distance("KITTEN", "SITTING") == 3 <= cutoff


def test_bounded_sentinel_when_exceeded():
    """Beyond the cutoff the kernel still returns the exact distance."""
    assert kernel_distance("KITTEN", "SITTING") == 3  # > cutoff 2
    assert kernel_distance("AAAA", "CCCC") == 4  # > cutoff 1


def test_bounded_zero_bound():
    assert kernel_distance("AAA", "AAA") == 0
    assert kernel_distance("AAA", "AAC") == 1


def test_length_gap_shortcut():
    """Length gaps larger than any cutoff: the distance is the gap."""
    assert kernel_distance("A" * 30, "A") == 29
    assert kernel_distance("A", "A" * 30) == 29
    assert kernel_distance("A" * 100, "C") == 100  # pattern spans two words
    assert kernel_distance("", "A" * 130) == 130


def test_kernel_empty_batch_and_empty_strings():
    assert EncodedSequences([]).distances([], []).size == 0
    assert kernel_distances(["", "", "ACD"], ["", "ACD", ""]) == [0, 3, 3]


@given(WORDS, WORDS)
def test_matches_reference(a, b):
    assert edit_distance(a, b) == reference_levenshtein(a, b)


@given(st.lists(st.tuples(WORDS, WORDS), max_size=12))
def test_bounded_matches_reference(pairs):
    """One kernel call over a batch of pairs == the reference per pair."""
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    assert kernel_distances(a, b) == [reference_levenshtein(x, y) for x, y in pairs]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(LONG_WORDS, LONG_WORDS), min_size=1, max_size=6))
def test_kernel_carries_across_words(pairs):
    """Patterns longer than 64 symbols: add and shift carries cross words."""
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    assert kernel_distances(a, b) == [edit_distance(x, y) for x, y in pairs]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ANY_WORDS, ANY_WORDS), min_size=1, max_size=6))
def test_kernel_any_unicode(pairs):
    """Any ``str`` works: symbols are UTF-32 code points."""
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    assert kernel_distances(a, b) == [edit_distance(x, y) for x, y in pairs]


def test_kernel_lone_surrogates_and_nul():
    assert kernel_distance("a\ud800b", "a\udc00b") == 1
    assert kernel_distance("\ud800", "\ud800") == 0
    assert kernel_distance("A\x00", "A") == 1


@given(WORDS, WORDS)
def test_symmetry(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(WORDS)
def test_identity(a):
    assert edit_distance(a, a) == 0


@given(WORDS, WORDS)
def test_length_difference_lower_bound(a, b):
    assert edit_distance(a, b) >= abs(len(a) - len(b))


@given(WORDS, WORDS)
def test_max_length_upper_bound(a, b):
    assert edit_distance(a, b) <= max(len(a), len(b))


@settings(max_examples=40)
@given(WORDS, WORDS, WORDS)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(WORDS, st.integers(min_value=0, max_value=10), st.data())
def test_single_edit_within_distance_one(a, pos, data):
    """Applying one random substitution yields distance <= 1."""
    if not a:
        return
    pos = pos % len(a)
    ch = data.draw(st.sampled_from("ACDEFGHIK"))
    mutated = a[:pos] + ch + a[pos + 1 :]
    assert edit_distance(a, mutated) <= 1
