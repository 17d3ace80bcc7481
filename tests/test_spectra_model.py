"""Tests for the Spectrum value type."""

import numpy as np
import pytest

from repro.constants import PROTON
from repro.errors import InvalidSpectrumError
from repro.spectra.model import Spectrum


def make(mzs, intens, **kw):
    defaults = dict(scan_id=1, precursor_mz=500.0, charge=2)
    defaults.update(kw)
    return Spectrum(mzs=np.asarray(mzs, float), intensities=np.asarray(intens, float), **defaults)


def test_basic_construction():
    s = make([100.0, 200.0], [1.0, 0.5])
    assert s.n_peaks == 2
    assert s.charge == 2


def test_neutral_mass():
    s = make([100.0], [1.0], precursor_mz=500.0, charge=2)
    assert np.isclose(s.neutral_mass, 500.0 * 2 - 2 * PROTON)


def test_unsorted_peaks_sorted_on_construction():
    s = make([300.0, 100.0, 200.0], [3.0, 1.0, 2.0])
    assert np.array_equal(s.mzs, [100.0, 200.0, 300.0])
    assert np.array_equal(s.intensities, [1.0, 2.0, 3.0])


def test_mismatched_arrays_rejected():
    with pytest.raises(InvalidSpectrumError, match="differ"):
        make([100.0, 200.0], [1.0])


def test_2d_arrays_rejected():
    with pytest.raises(InvalidSpectrumError, match="one-dimensional"):
        Spectrum(1, 500.0, 2, np.ones((2, 2)), np.ones((2, 2)))


def test_zero_charge_rejected():
    with pytest.raises(InvalidSpectrumError, match="charge"):
        make([100.0], [1.0], charge=0)


def test_negative_precursor_rejected():
    with pytest.raises(InvalidSpectrumError, match="precursor"):
        make([100.0], [1.0], precursor_mz=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_precursor_rejected(bad):
    """NaN passes ``<= 0``; it must not pass construction."""
    with pytest.raises(InvalidSpectrumError, match="precursor"):
        make([100.0], [1.0], precursor_mz=bad)


def test_nonpositive_mz_rejected():
    with pytest.raises(InvalidSpectrumError, match="positive"):
        make([0.0, 100.0], [1.0, 1.0])


def test_negative_intensity_rejected():
    with pytest.raises(InvalidSpectrumError, match="non-negative"):
        make([100.0, 200.0], [1.0, -1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_intensity_rejected(bad):
    """NaN passes ``< 0``; it must not pass construction."""
    with pytest.raises(InvalidSpectrumError, match="non-negative"):
        make([100.0, 200.0], [1.0, bad])


def test_empty_spectrum_allowed():
    s = make([], [])
    assert s.n_peaks == 0


def test_copy_is_deep():
    s = make([100.0], [1.0], true_peptide=3)
    c = s.copy()
    c.mzs[0] = 999.0
    assert s.mzs[0] == 100.0
    assert c.true_peptide == 3


def test_true_peptide_default_none():
    assert make([100.0], [1.0]).true_peptide is None
