"""Tests for the precursor-major chunked index (paper Fig. 1 scheme)."""

import numpy as np
import pytest

from reference import index_over
from repro.chem.fragments import fragment_mzs
from repro.chem.peptide import Peptide
from repro.errors import ConfigurationError
from repro.index.arena import FragmentArena
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndexSettings
from repro.spectra.model import Spectrum
from repro.constants import PROTON

PEPTIDES = [
    Peptide("GGGGK"),        # light
    Peptide("AAAGGGK"),
    Peptide("CCDDEEK"),
    Peptide("MMNNQQRK"),
    Peptide("WWYYFFKK"),     # heavy
    Peptide("WWWWYYYYK"),
]

SETTINGS = SLMIndexSettings(shared_peak_threshold=2)


def chunked(settings=SETTINGS, chunk_entries=2):
    arena = FragmentArena.from_peptides(PEPTIDES, settings.fragmentation)
    return ChunkedIndex(arena, settings, chunk_entries=chunk_entries)


def spectrum_of(peptide, charge=2):
    mzs = fragment_mzs(peptide)
    return Spectrum(
        scan_id=1,
        precursor_mz=(peptide.mass + charge * PROTON) / charge,
        charge=charge,
        mzs=mzs,
        intensities=np.ones_like(mzs),
    )


def test_chunk_count():
    ci = chunked()
    assert ci.n_chunks == 3
    assert len(ci) == 6


def test_chunks_sorted_by_mass():
    ci = chunked()
    assert np.all(ci.mass_min <= ci.mass_max)
    assert np.all(ci.mass_max[:-1] <= ci.mass_min[1:])
    masses = np.array([p.mass for p in PEPTIDES], dtype=np.float32)[ci.positions]
    assert np.array_equal(masses.astype(np.float64), ci.masses64)
    first = np.arange(0, len(ci), ci.chunk_entries)
    assert np.array_equal(ci.mass_min, ci.masses64[first])


def test_filter_ids_in_input_space():
    """Chunked filtration must agree with one flat index, array for array."""
    ci = chunked()
    flat = index_over(PEPTIDES, SETTINGS)
    for target in range(len(PEPTIDES)):
        q = spectrum_of(PEPTIDES[target])
        a = ci.filter(q)
        b = flat.filter(q)
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.shared_peaks, b.shared_peaks)


def test_open_search_visits_all_chunks():
    ci = chunked()
    assert ci.chunks_for(spectrum_of(PEPTIDES[0])) == [0, 1, 2]


def test_windowed_search_prunes_chunks():
    windowed = SLMIndexSettings(shared_peak_threshold=2, precursor_tolerance=1.0)
    ci = chunked(windowed)
    # The lightest peptide's window should not touch the heaviest chunk.
    visited = ci.chunks_for(spectrum_of(PEPTIDES[0]))
    assert 0 in visited
    assert len(visited) < ci.n_chunks


def test_windowed_counters_smaller_than_open():
    windowed = SLMIndexSettings(shared_peak_threshold=2, precursor_tolerance=1.0)
    open_s = SLMIndexSettings(shared_peak_threshold=2)
    q = spectrum_of(PEPTIDES[0])
    ions_windowed = chunked(windowed).filter(q).ions_scanned
    ions_open = chunked(open_s).filter(q).ions_scanned
    assert 0 < ions_windowed < ions_open


def test_invalid_chunking_rejected():
    with pytest.raises(ConfigurationError):
        chunked(chunk_entries=0)
