"""The :class:`Spectrum` value type.

A tandem MS/MS spectrum: a precursor (m/z and charge) plus peak arrays.
Instances are lightweight wrappers around numpy arrays; the arrays are
never copied on construction, only validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import PROTON
from repro.errors import InvalidSpectrumError

__all__ = ["Spectrum"]


@dataclass(slots=True)
class Spectrum:
    """One experimental MS/MS spectrum.

    Attributes
    ----------
    scan_id:
        Scan number within its source file (unique per run).
    precursor_mz:
        Measured precursor mass-to-charge ratio.
    charge:
        Assumed precursor charge state (>= 1).
    mzs:
        Fragment peak m/z values, float64, ascending.
    intensities:
        Fragment peak intensities, float64, same length as ``mzs``.
    true_peptide:
        Ground-truth generating peptide index for synthetic data
        (``None`` for real/unknown spectra).  Used only by validation
        tests, never by the search path.
    """

    scan_id: int
    precursor_mz: float
    charge: int
    mzs: np.ndarray
    intensities: np.ndarray
    true_peptide: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        self.mzs = np.asarray(self.mzs, dtype=np.float64)
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        if self.mzs.ndim != 1 or self.intensities.ndim != 1:
            raise InvalidSpectrumError("peak arrays must be one-dimensional")
        if self.mzs.shape != self.intensities.shape:
            raise InvalidSpectrumError(
                f"mzs ({self.mzs.size}) and intensities ({self.intensities.size}) differ"
            )
        if self.charge < 1:
            raise InvalidSpectrumError(f"charge must be >= 1, got {self.charge}")
        # NaN passes every ordered comparison, and a NaN neutral mass
        # turns the flat precursor window into an open search while
        # chunk and shard pruning drop everything — so test finiteness.
        if not (math.isfinite(self.precursor_mz) and self.precursor_mz > 0):
            raise InvalidSpectrumError(
                f"precursor m/z must be positive and finite, got {self.precursor_mz}"
            )
        if self.mzs.size and np.any((self.mzs <= 0) | (self.mzs == np.inf)):
            raise InvalidSpectrumError("fragment m/z values must be positive and below +inf")
        if self.mzs.size and np.any(np.diff(self.mzs) < 0):
            # Sort once here so every consumer can assume ascending order.
            order = np.argsort(self.mzs, kind="stable")
            self.mzs = self.mzs[order]
            self.intensities = self.intensities[order]
        # NaN passes ``< 0`` too, and a NaN at a top-N cut breaks the
        # selection: intensities must be finite.
        if not np.all((self.intensities >= 0) & (self.intensities < np.inf)):
            raise InvalidSpectrumError("intensities must be finite and non-negative")

    @property
    def n_peaks(self) -> int:
        """Number of fragment peaks."""
        return int(self.mzs.size)

    @property
    def neutral_mass(self) -> float:
        """Neutral precursor mass implied by ``precursor_mz`` and ``charge``."""
        return self.precursor_mz * self.charge - self.charge * PROTON

    def copy(self) -> "Spectrum":
        """Deep copy (peak arrays are copied)."""
        return Spectrum(
            scan_id=self.scan_id,
            precursor_mz=self.precursor_mz,
            charge=self.charge,
            mzs=self.mzs.copy(),
            intensities=self.intensities.copy(),
            true_peptide=self.true_peptide,
        )
