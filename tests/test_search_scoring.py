"""Tests for hyperscore-style candidate scoring."""

from math import lgamma, log1p

import numpy as np
import pytest

from reference import regenerated_score
from repro.chem.fragments import fragment_mzs
from repro.chem.peptide import Peptide
from repro.index.arena import FragmentArena
from repro.search.scoring import score_candidates, score_many
from repro.spectra.model import Spectrum

PEPTIDES = [Peptide("AAAGGGK"), Peptide("CCDDEEK"), Peptide("WWYYFFK")]
ARENA = FragmentArena.from_peptides(PEPTIDES)


def spectrum_of(peptide):
    mzs = fragment_mzs(peptide)
    return Spectrum(
        scan_id=1, precursor_mz=500.0, charge=2,
        mzs=mzs, intensities=np.ones_like(mzs),
    )


def test_exact_match_scores_highest():
    q = spectrum_of(PEPTIDES[0])
    out = score_candidates(
        q, ARENA, np.array([0, 1, 2]), fragment_tolerance=0.05
    )
    assert out.scores[0] > out.scores[1]
    assert out.scores[0] > out.scores[2]
    assert out.n_matched[0] == fragment_mzs(PEPTIDES[0]).size


def test_exact_match_score_value():
    """Score = lgamma(n+1) + log1p(sum matched intensities)."""
    q = spectrum_of(PEPTIDES[0])
    out = score_candidates(q, ARENA, np.array([0]), fragment_tolerance=0.05)
    n = fragment_mzs(PEPTIDES[0]).size
    expected = lgamma(n + 1) + log1p(float(n))  # all intensities 1.0
    assert np.isclose(out.scores[0], expected)


def test_no_candidates():
    q = spectrum_of(PEPTIDES[0])
    out = score_candidates(q, ARENA, np.array([], dtype=np.int64),
                           fragment_tolerance=0.05)
    assert out.scores.size == 0
    assert out.candidates_scored == 0
    assert out.residues_scored == 0


def test_unmatched_candidate_scores_zero():
    # WWYYFFR shares no fragment with AAAGGGK (different termini, so
    # even the y1 ions differ) — must score exactly zero.
    universe = FragmentArena.from_peptides(PEPTIDES + [Peptide("WWYYFFR")])
    q = spectrum_of(PEPTIDES[0])
    out = score_candidates(q, universe, np.array([3]), fragment_tolerance=0.05)
    assert out.n_matched[0] == 0
    assert out.scores[0] == 0.0


def test_work_counters():
    q = spectrum_of(PEPTIDES[0])
    out = score_candidates(q, ARENA, np.array([0, 2]), fragment_tolerance=0.05)
    assert out.candidates_scored == 2
    assert out.residues_scored == PEPTIDES[0].length + PEPTIDES[2].length


def test_tolerance_controls_matching():
    q = spectrum_of(PEPTIDES[0])
    shifted = Spectrum(
        scan_id=1, precursor_mz=500.0, charge=2,
        mzs=q.mzs + 0.03, intensities=q.intensities,
    )
    tight = score_candidates(shifted, ARENA, np.array([0]),
                             fragment_tolerance=0.01)
    loose = score_candidates(shifted, ARENA, np.array([0]),
                             fragment_tolerance=0.05)
    assert tight.n_matched[0] == 0
    assert loose.n_matched[0] > 0


def test_precomputed_fragments_identical():
    """Arena fragments score exactly like fragments regenerated per candidate."""
    q = spectrum_of(PEPTIDES[1])
    a = score_candidates(q, ARENA, np.array([0, 1, 2]),
                         fragment_tolerance=0.05)
    b = regenerated_score(q, PEPTIDES, np.array([0, 1, 2]),
                          fragment_tolerance=0.05)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.n_matched, b.n_matched)
    assert a.residues_scored == b.residues_scored


def test_subset_scores_match_full_scores():
    """Scoring a subset must give bit-identical per-candidate scores
    (the distributed == serial invariant)."""
    q = spectrum_of(PEPTIDES[0])
    full = score_candidates(q, ARENA, np.array([0, 1, 2]),
                            fragment_tolerance=0.05)
    for i in range(3):
        solo = score_candidates(q, ARENA, np.array([i]),
                                fragment_tolerance=0.05)
        assert solo.scores[0] == full.scores[i]
        assert solo.n_matched[0] == full.n_matched[i]


def test_empty_query_spectrum():
    q = Spectrum(1, 500.0, 2, np.array([]), np.array([]))
    out = score_candidates(q, ARENA, np.array([0, 1]), fragment_tolerance=0.05)
    assert np.all(out.scores == 0.0)
    assert np.all(out.n_matched == 0)


def test_intensity_weighting():
    """Higher matched intensity -> higher score at equal match count."""
    mzs = fragment_mzs(PEPTIDES[0])
    weak = Spectrum(1, 500.0, 2, mzs, np.full(mzs.size, 0.1))
    strong = Spectrum(1, 500.0, 2, mzs.copy(), np.full(mzs.size, 1.0))
    s_weak = score_candidates(weak, ARENA, np.array([0]), fragment_tolerance=0.05)
    s_strong = score_candidates(strong, ARENA, np.array([0]), fragment_tolerance=0.05)
    assert s_strong.scores[0] > s_weak.scores[0]


def test_trailing_zero_fragment_candidate_keeps_every_credit():
    """A candidate followed only by zero-fragment candidates sums all of
    its own credits, on the per-spectrum path and the block path."""
    arena = FragmentArena(
        np.array([100.0, 200.0, 300.0]),
        np.array([0, 3, 3]),
        lengths=np.array([4, 1]),
        masses=np.array([500.0, 100.0], dtype=np.float32),
    )
    q = Spectrum(1, 500.0, 2, np.array([100.0, 200.0, 300.0]), np.array([1.0, 2.0, 4.0]))
    expected = lgamma(4) + log1p(7.0)  # ln 3! + ln 8
    assert round(expected, 4) == 3.8712
    alone = score_candidates(q, arena, np.array([0]), fragment_tolerance=0.05)
    trailed = score_candidates(q, arena, np.array([0, 1]), fragment_tolerance=0.05)
    assert alone.scores[0] == pytest.approx(expected, abs=1e-12)
    assert trailed.scores.tolist() == [alone.scores[0], 0.0]
    assert trailed.n_matched.tolist() == [3, 0]
    # Two small-gather spectra with candidates form one block.
    block = score_many([q, q], [np.array([0, 1])] * 2, fragment_tolerance=0.05, arena=arena)
    for out in block:
        assert out.scores.tolist() == [alone.scores[0], 0.0]
        assert out.n_matched.tolist() == [3, 0]
