"""Tests for the SLM fragment-ion index."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from reference import arena_of, bruteforce_filter, index_over
from repro.chem.fragments import fragment_mzs
from repro.chem.peptide import Peptide
from repro.errors import ConfigurationError
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.spectra.model import Spectrum

PEPTIDES = [
    Peptide("AAAGGGK"),
    Peptide("CCDDEEK"),
    Peptide("MMNNQQR"),
    Peptide("WWYYFFK"),
    Peptide("AAAGGGR"),
]

SETTINGS = SLMIndexSettings(shared_peak_threshold=2)


def spectrum_of(peptide, scan=1, charge=2):
    mzs = fragment_mzs(peptide)
    from repro.constants import PROTON

    return Spectrum(
        scan_id=scan,
        precursor_mz=(peptide.mass + charge * PROTON) / charge,
        charge=charge,
        mzs=mzs,
        intensities=np.ones_like(mzs),
    )


def test_index_sizes():
    idx = index_over(PEPTIDES, SETTINGS)
    assert len(idx) == 5
    assert idx.n_ions == sum(2 * (p.length - 1) for p in PEPTIDES)


def test_empty_index():
    idx = index_over([], SETTINGS)
    assert len(idx) == 0
    assert idx.n_ions == 0
    res = idx.filter(spectrum_of(PEPTIDES[0]))
    assert res.candidates.size == 0


def test_own_spectrum_is_top_candidate():
    idx = index_over(PEPTIDES, SETTINGS)
    res = idx.filter(spectrum_of(PEPTIDES[2]))
    assert 2 in res.candidates
    best = res.candidates[np.argmax(res.shared_peaks)]
    assert best == 2


def test_exact_spectrum_matches_all_ions():
    idx = index_over(PEPTIDES, SETTINGS)
    res = idx.filter(spectrum_of(PEPTIDES[0]))
    i = list(res.candidates).index(0)
    assert res.shared_peaks[i] >= 2 * (PEPTIDES[0].length - 1)


def test_threshold_filters():
    strict = SLMIndexSettings(shared_peak_threshold=1000)
    idx = index_over(PEPTIDES, strict)
    res = idx.filter(spectrum_of(PEPTIDES[0]))
    assert res.candidates.size == 0


def test_precursor_window_filters():
    windowed = SLMIndexSettings(shared_peak_threshold=2, precursor_tolerance=0.1)
    idx = index_over(PEPTIDES, windowed)
    res = idx.filter(spectrum_of(PEPTIDES[0]))
    masses = idx.masses[res.candidates]
    assert np.all(np.abs(masses - PEPTIDES[0].mass) <= 0.1 + 1e-3)


def test_open_search_flag():
    assert SLMIndexSettings().is_open_search
    assert SLMIndexSettings(precursor_tolerance=float("inf")).is_open_search
    assert not SLMIndexSettings(precursor_tolerance=5.0).is_open_search


def test_work_counters_positive():
    idx = index_over(PEPTIDES, SETTINGS)
    res = idx.filter(spectrum_of(PEPTIDES[1]))
    assert res.buckets_scanned > 0
    assert res.ions_scanned > 0


def test_empty_spectrum_no_work():
    idx = index_over(PEPTIDES, SETTINGS)
    s = Spectrum(1, 500.0, 2, np.array([]), np.array([]))
    res = idx.filter(s)
    assert res.candidates.size == 0
    assert res.ions_scanned == 0


def test_precomputed_fragments_equivalent():
    """An arena flattened from per-peptide fragment arrays indexes the same."""
    frags = [fragment_mzs(p) for p in PEPTIDES]
    a = index_over(PEPTIDES, SETTINGS)
    b = SLMIndex(arena_of(frags), SETTINGS)
    assert np.array_equal(a.ion_parents, b.ion_parents)
    assert np.array_equal(a.bucket_offsets, b.bucket_offsets)


def test_invalid_settings_rejected():
    with pytest.raises(ConfigurationError):
        SLMIndexSettings(resolution=0.0)
    with pytest.raises(ConfigurationError):
        SLMIndexSettings(fragment_tolerance=-1.0)
    with pytest.raises(ConfigurationError):
        SLMIndexSettings(shared_peak_threshold=0)
    with pytest.raises(ConfigurationError):
        SLMIndexSettings(precursor_tolerance=-0.1)


def test_ions_of():
    idx = index_over(PEPTIDES, SETTINGS)
    assert idx.ions_of(0) == 2 * (PEPTIDES[0].length - 1)


def test_partition_union_equals_whole():
    """Filtering partial indexes and merging = filtering the full index.

    This is the core invariant that makes distributed search correct.
    """
    full = index_over(PEPTIDES, SETTINGS)
    part_a = index_over(PEPTIDES[:2], SETTINGS)
    part_b = index_over(PEPTIDES[2:], SETTINGS)
    q = spectrum_of(PEPTIDES[4])
    res_full = full.filter(q)
    res_a, res_b = part_a.filter(q), part_b.filter(q)
    merged = {}
    for cid, c in zip(res_a.candidates, res_a.shared_peaks):
        merged[int(cid)] = int(c)
    for cid, c in zip(res_b.candidates, res_b.shared_peaks):
        merged[int(cid) + 2] = int(c)
    expected = {
        int(cid): int(c)
        for cid, c in zip(res_full.candidates, res_full.shared_peaks)
    }
    assert merged == expected


@hsettings(max_examples=15, deadline=None)
@given(st.data())
def test_filter_matches_bruteforce_property(data):
    """Vectorized filtration == quadratic reference on random inputs."""
    seqs = data.draw(
        st.lists(
            st.text(alphabet="ACDEFGHIKLMNPQRSTVWY", min_size=3, max_size=12),
            min_size=1,
            max_size=8,
        )
    )
    peptides = [Peptide(s) for s in seqs]
    settings = SLMIndexSettings(shared_peak_threshold=1)
    idx = index_over(peptides, settings)
    target = data.draw(st.integers(min_value=0, max_value=len(peptides) - 1))
    q = spectrum_of(peptides[target])
    fast = idx.filter(q)
    slow = bruteforce_filter(peptides, settings, q)
    assert np.array_equal(fast.candidates, slow.candidates)
    assert np.array_equal(fast.shared_peaks, slow.shared_peaks)
