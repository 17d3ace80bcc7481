"""Levenshtein edit distance: a scalar reference and a bit-parallel pair kernel.

Algorithm 1 compares sequences against group seeds, so edit distance is
the whole cost of grouping.  Two implementations live here:

* :func:`edit_distance` — the textbook two-row dynamic program over one
  pair.  It is the reference the tests compare the kernel against.
* :class:`EncodedSequences` — a sequence set encoded once, answering
  exact distances for many ``(pattern, text)`` pairs per call with
  Myers' bit-vector algorithm in Hyyrö's formulation.  It is what
  :func:`~repro.core.grouping.group_peptides` runs.

Kernel layout.  The sequences become one padded code matrix over their
own alphabet (``np.unique`` over UTF-32 code points, so any ``str``
works).  Each sequence gets one ``Peq`` row: ``peq[k, c]`` holds a
``W``-word ``uint64`` bitmask with bit ``i`` set where sequence ``k``
has symbol ``c`` at position ``i``, ``W = ceil(longest / 64)``.  One
DP column for every pair of a call is about twenty ``uint64`` ufunc
passes, so a call costs ``longest text × W`` array steps and no
per-pair Python.  The add and the shifts carry across words, which
keeps one code path for 6-residue peptides (``W = 1``) and whole
proteins alike.  The top DP row of a global distance is ``j``, so the
horizontal-positive vector shifts a 1 into bit 0 every column.

Memory is ``n × alphabet × W`` words for the masks plus ``n × longest``
small integers for the codes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["edit_distance", "EncodedSequences"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)
_TOP = np.uint64(63)


def edit_distance(a: str, b: str) -> int:
    """Exact Levenshtein distance between ``a`` and ``b``.

    Two-row dynamic program, O(len(a)·len(b)) time, O(min) space.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + cost,  # substitution / match
            )
        previous = current
    return previous[-1]


class EncodedSequences:
    """A sequence set encoded for batched exact Levenshtein distances.

    Attributes
    ----------
    lengths:
        int64 code-point count per sequence.
    codes:
        ``(n, longest)`` symbol ids, zero-padded past each row's end.
    peq:
        ``(n, alphabet, W)`` uint64 match masks (see module docstring).
    """

    __slots__ = ("lengths", "codes", "peq")

    def __init__(self, sequences: Sequence[str]) -> None:
        n = len(sequences)
        self.lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=n)
        longest = int(self.lengths.max()) if n else 0
        points = np.frombuffer(
            "".join(sequences).encode("utf-32-le", "surrogatepass"), dtype="<u4"
        )
        alphabet, symbols = np.unique(points, return_inverse=True)
        in_row = np.arange(longest) < self.lengths[:, None]
        self.codes = np.zeros((n, longest), dtype=np.min_scalar_type(alphabet.size))
        self.codes[in_row] = symbols
        words = max(1, -(-longest // 64))
        self.peq = np.zeros((n, max(1, alphabet.size), words), dtype=np.uint64)
        for i in range(longest):
            rows = np.flatnonzero(in_row[:, i])
            self.peq[rows, self.codes[rows, i], i // 64] |= _ONE << np.uint64(i % 64)

    def distances(self, patterns: np.ndarray, texts: np.ndarray) -> np.ndarray:
        """Exact ``d(seq[patterns[p]], seq[texts[p]])`` for every pair ``p``.

        Distances are symmetric, so which side is the pattern only
        changes the cost: ``W`` follows the longest pattern of the call
        and the step count the longest text.
        """
        pat = np.asarray(patterns, dtype=np.int64)
        txt = np.asarray(texts, dtype=np.int64)
        m = self.lengths[pat]
        n = self.lengths[txt]
        if not pat.size:
            return np.zeros(0, dtype=np.int64)
        # Longest text first: the pairs still reading at column j are a
        # prefix, so each step works on slices, never on masks.
        by_text = np.argsort(-n, kind="stable")
        pat, txt, m, n = pat[by_text], txt[by_text], m[by_text], n[by_text]
        words = max(1, -(-int(m.max()) // 64))
        peq = self.peq[:, :, :words]
        last = np.maximum(m - 1, 0)
        hit = np.zeros((pat.size, words), dtype=np.uint64)
        hit[np.arange(pat.size), last // 64] = _ONE << (last % 64).astype(np.uint64)
        hit[m == 0] = 0
        pv = np.full((pat.size, words), _ONES)
        mv = np.zeros((pat.size, words), dtype=np.uint64)
        score = m.copy()
        reading = np.searchsorted(-n, -np.arange(int(n[0])), side="left")
        for j, k in enumerate(reading.tolist()):
            eq_words = peq[pat[:k], self.codes[txt[:k], j]]
            for w in range(words):
                eq = eq_words[:, w]
                p, q = pv[:k, w], mv[:k, w]
                xv = eq | q
                total = (eq & p) + p
                wrapped = total < p
                if w:  # the add's carry out of word w-1 enters word w
                    total += carry
                    wrapped |= total < carry
                carry = wrapped
                xh = (total ^ p) | eq
                ph = q | ~(xh | p)
                mh = p & xh
                score[:k] += (ph & hit[:k, w]) != 0
                score[:k] -= (mh & hit[:k, w]) != 0
                ph_top, mh_top = ph >> _TOP, mh >> _TOP
                ph <<= _ONE
                mh <<= _ONE
                if w:  # the shifts carry the top bits of word w-1
                    ph |= ph_carry
                    mh |= mh_carry
                else:  # global distance: the top DP row is j
                    ph |= _ONE
                ph_carry, mh_carry = ph_top, mh_top
                pv[:k, w] = mh | ~(xv | ph)
                mv[:k, w] = ph & xv
        out = np.empty_like(score)
        out[by_text] = np.where(m == 0, n, score)
        return out
