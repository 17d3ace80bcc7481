"""Query-spectrum preprocessing (SLM-Transform fragment extraction).

The paper configures SLM-Transform to "extract the 100 most intense
peaks from each query spectrum" (Section V-A.3).  Preprocessing is part
of the *parallel* work each rank performs on every query, so the
distributed engine charges its cost to the rank clocks.

:func:`preprocess_packed` is the one batch kernel: it reads the input
spectra straight into the flat :class:`~repro.spectra.packed.PackedSpectra`
columns and works on those — validation, the ``min_mz`` mask, top-N
selection (one NaN-padded ``np.partition`` per width group for every
spectrum that needs one) and a segmented-max normalisation.  The
service packs a batch with it; :func:`preprocess_batch` is its
``to_spectra()``, so the serial oracle, the simulated engine and the
service run the same kernel.  :func:`preprocess_spectrum` is the
per-spectrum reference the kernel is pinned to byte for byte
(test-enforced).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from repro.constants import DEFAULT_TOP_PEAKS
from repro.errors import ConfigurationError, InvalidSpectrumError
from repro.index.arena import segment_kth
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra

__all__ = [
    "PreprocessConfig",
    "preprocess_spectrum",
    "preprocess_packed",
    "preprocess_batch",
]


@dataclass(frozen=True, slots=True)
class PreprocessConfig:
    """Peak-picking parameters.

    Attributes
    ----------
    top_peaks:
        Keep at most this many most-intense peaks (paper: 100).
    min_mz:
        Discard peaks below this m/z (instrument low-mass cutoff).
    normalize:
        Rescale retained intensities to max 1.0.
    """

    top_peaks: int = DEFAULT_TOP_PEAKS
    min_mz: float = 0.0
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.top_peaks < 1:
            raise ConfigurationError(f"top_peaks must be >= 1, got {self.top_peaks}")
        if self.min_mz < 0:
            raise ConfigurationError(f"min_mz must be >= 0, got {self.min_mz}")


def preprocess_spectrum(
    spectrum: Spectrum, config: PreprocessConfig = PreprocessConfig()
) -> Spectrum:
    """Return a new spectrum with only the top-N most intense peaks.

    Peaks below ``min_mz`` are dropped first; the remaining peaks are
    ranked by intensity (ties broken by m/z for determinism) and the
    strongest ``top_peaks`` survive, re-sorted by m/z.
    """
    mzs, intens = spectrum.mzs, spectrum.intensities
    if config.min_mz > 0 and mzs.size:
        keep = mzs >= config.min_mz
        mzs, intens = mzs[keep], intens[keep]
    if mzs.size > config.top_peaks:
        # argsort on (-intensity, mz): lexsort keys are last-key-major.
        order = np.lexsort((mzs, -intens))[: config.top_peaks]
        mzs, intens = mzs[order], intens[order]
        order = np.argsort(mzs, kind="stable")
        mzs, intens = mzs[order], intens[order]
    else:
        mzs, intens = mzs.copy(), intens.copy()
    if config.normalize and intens.size and intens.max() > 0:
        intens = intens / intens.max()
    return Spectrum(
        scan_id=spectrum.scan_id,
        precursor_mz=spectrum.precursor_mz,
        charge=spectrum.charge,
        mzs=mzs,
        intensities=intens,
        true_peptide=spectrum.true_peptide,
    )


def _validated_columns(spectra: Sequence[Spectrum]) -> PackedSpectra:
    """The batch as fresh packed columns, after every check ``Spectrum`` makes.

    The checks run on the columns, so they also see values written into
    a spectrum after its construction.
    """
    mz_rows = [s.mzs for s in spectra]
    int_rows = [s.intensities for s in spectra]
    shapes = [a.shape for a in mz_rows]
    if any(len(shape) != 1 for shape in shapes) or shapes != [a.shape for a in int_rows]:
        raise InvalidSpectrumError("peak arrays must be one-dimensional and equally long")
    charges = np.array([s.charge for s in spectra], np.int64)
    precursors = np.array([s.precursor_mz for s in spectra], np.float64)
    if np.any(charges < 1):
        raise InvalidSpectrumError(f"charge must be >= 1, got {charges.min()}")
    if not np.all((precursors > 0) & (precursors < np.inf)):
        raise InvalidSpectrumError("precursor m/z must be positive and finite")
    offsets = np.zeros(len(spectra) + 1, np.int64)
    np.cumsum([shape[0] for shape in shapes], out=offsets[1:])
    if spectra:
        mzs = np.concatenate(mz_rows, dtype=np.float64)
        intensities = np.concatenate(int_rows, dtype=np.float64)
    else:
        mzs = intensities = np.empty(0)
    if np.any(mzs <= 0):  # NaN m/z passes, as it does the constructor
        raise InvalidSpectrumError("fragment m/z values must be positive")
    if not np.all((intensities >= 0) & (intensities < np.inf)):
        raise InvalidSpectrumError("intensities must be finite and non-negative")
    labels = [-1 if s.true_peptide is None else s.true_peptide for s in spectra]
    return PackedSpectra(
        mzs=mzs,
        intensities=intensities,
        offsets=offsets,
        scan_ids=np.array([s.scan_id for s in spectra], np.int64),
        precursor_mzs=precursors,
        charges=charges,
        true_peptides=np.array(labels, np.int64),
    )


def _reorder_rows(rows, offsets, mzs, intens, order_of) -> None:
    """Re-order the peaks of each listed row in place by ``order_of(mzs, intens)``."""
    for r in np.unique(rows).tolist():
        lo, hi = offsets[r], offsets[r + 1]
        order = order_of(mzs[lo:hi], intens[lo:hi]) + lo
        mzs[lo:hi], intens[lo:hi] = mzs[order], intens[order]


def preprocess_packed(
    spectra: Sequence[Spectrum], config: PreprocessConfig = PreprocessConfig()
) -> PackedSpectra:
    """Validate and preprocess a batch straight into packed columns.

    Byte for byte ``PackedSpectra.from_spectra([preprocess_spectrum(s,
    config) for s in spectra])``, in array passes over the whole batch:
    the ``Spectrum`` value checks (plus finite intensities); the
    ``min_mz`` mask; rows left unsorted by a write after construction
    sorted as the constructor sorts them, and rows wider than
    ``top_peaks`` put in (m/z, NaN last, position) order; top-N as a
    :func:`~repro.index.arena.segment_kth` intensity threshold whose
    ties are taken in row order (the reference's smaller-m/z tie-break),
    with picks that share an m/z re-ordered by intensity; and a
    ``np.maximum.reduceat`` row maximum that divides each peak, as the
    reference divides by ``intens.max()``.
    """
    packed = _validated_columns(list(spectra))
    mzs, intens, offsets = packed.mzs, packed.intensities, packed.offsets
    if config.min_mz > 0 and mzs.size:
        keep = mzs >= config.min_mz
        mzs, intens = mzs[keep], intens[keep]
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
    k, n = config.top_peaks, packed.n_spectra
    wide = np.diff(offsets) > k
    row = np.repeat(np.arange(n), np.diff(offsets))
    within = row[1:] == row[:-1]
    nan = np.isnan(mzs)
    down = (mzs[1:] < mzs[:-1]) | (wide[row[1:]] & nan[:-1] & ~nan[1:])
    stable = lambda m, _: np.argsort(m, kind="stable")  # noqa: E731
    _reorder_rows(row[1:][within & down], offsets, mzs, intens, stable)
    if wide.any():
        neg = -intens
        cut = segment_kth(neg, offsets, k)[row]  # NaN on rows kept whole
        above = neg < cut
        need = k - np.bincount(row[above], minlength=n)
        tie = neg == cut
        seen = np.cumsum(tie)
        seen -= np.concatenate(([0], seen))[offsets[:-1]][row]
        keep = np.isnan(cut) | above | (tie & (seen <= need[row]))
        mzs, intens, row = mzs[keep], intens[keep], row[keep]
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
        nan = np.isnan(mzs)
        same = (mzs[1:] == mzs[:-1]) | (nan[1:] & nan[:-1])
        dup = row[1:][(row[1:] == row[:-1]) & wide[row[1:]] & same]
        by_intensity = lambda m, i: np.lexsort((-i, m))  # noqa: E731
        _reorder_rows(dup, offsets, mzs, intens, by_intensity)
    if config.normalize and mzs.size:
        filled = np.flatnonzero(np.diff(offsets))
        peak = np.zeros(n)
        peak[filled] = np.maximum.reduceat(intens, offsets[filled])
        scale = peak[row]
        positive = scale > 0
        intens[positive] = intens[positive] / scale[positive]
    return replace(packed, mzs=mzs, intensities=intens, offsets=offsets)


def preprocess_batch(
    spectra: Sequence[Spectrum], config: PreprocessConfig = PreprocessConfig()
) -> List[Spectrum]:
    """:func:`preprocess_packed` as spectra (views of the packed columns)."""
    return preprocess_packed(spectra, config).to_spectra()
