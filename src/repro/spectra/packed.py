"""The wire form of a preprocessed query batch: seven flat columns.

HiCOPS's flat-array discipline (PAPERS.md) on the query side: a batch
of :class:`~repro.spectra.model.Spectrum` objects travels — through a
worker pipe or a :class:`~repro.parallel.shared_spectra.SharedSpectraStore`
— as one :class:`PackedSpectra`, seven array headers to pickle however
many spectra it holds.  The master builds the columns with
:func:`~repro.spectra.preprocess.preprocess_packed`, which validates
every value on the columns themselves (so a value written into a
spectrum after its construction is caught too) before any batch is
sent.  The receiving side checks structure only
(:meth:`PackedSpectra.defect`) — a truncated column or a broken offset
table must be refused, never sliced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from repro.spectra.model import Spectrum

__all__ = ["PackedSpectra"]

_PER_SPECTRUM = ("scan_ids", "precursor_mzs", "charges", "true_peptides")


@dataclass(frozen=True, slots=True)
class PackedSpectra:
    """One query batch as flat columns.

    ``mzs`` / ``intensities`` hold every spectrum's peaks back to back
    (float64); spectrum ``i`` owns ``offsets[i]:offsets[i + 1]`` (int64
    CSR).  The other columns hold one value per spectrum, with
    ``true_peptides`` −1 for ``None``.
    """

    mzs: np.ndarray
    intensities: np.ndarray
    offsets: np.ndarray
    scan_ids: np.ndarray
    precursor_mzs: np.ndarray
    charges: np.ndarray
    true_peptides: np.ndarray

    @classmethod
    def from_spectra(cls, spectra: Sequence[Spectrum]) -> "PackedSpectra":
        """Flatten ``spectra`` (peak arrays are copied once)."""
        offsets = np.zeros(len(spectra) + 1, dtype=np.int64)
        np.cumsum([s.mzs.size for s in spectra], out=offsets[1:])
        if spectra:
            mzs = np.concatenate([s.mzs for s in spectra])
            intensities = np.concatenate([s.intensities for s in spectra])
        else:
            mzs = intensities = np.empty(0, dtype=np.float64)
        labels = [-1 if s.true_peptide is None else s.true_peptide for s in spectra]
        return cls(
            mzs=mzs,
            intensities=intensities,
            offsets=offsets,
            scan_ids=np.array([s.scan_id for s in spectra], np.int64),
            precursor_mzs=np.array([s.precursor_mz for s in spectra], np.float64),
            charges=np.array([s.charge for s in spectra], np.int64),
            true_peptides=np.array(labels, np.int64),
        )

    def to_spectra(self) -> List[Spectrum]:
        """Rebuild the spectrum list as zero-copy slices of the columns.

        Bypasses ``Spectrum.__post_init__`` on purpose: re-validating
        every array would sit on the worker's critical path.  Call
        :meth:`defect` first on columns that crossed a process or file
        boundary.
        """
        mzs, intensities = self.mzs, self.intensities
        bounds = self.offsets.tolist()
        new = object.__new__
        spectra: List[Spectrum] = []
        for i, (scan_id, precursor_mz, charge, true) in enumerate(
            zip(*(getattr(self, name).tolist() for name in _PER_SPECTRUM))
        ):
            s = new(Spectrum)
            s.scan_id = scan_id
            s.precursor_mz = precursor_mz
            s.charge = charge
            s.mzs = mzs[bounds[i] : bounds[i + 1]]
            s.intensities = intensities[bounds[i] : bounds[i + 1]]
            s.true_peptide = None if true < 0 else true
            spectra.append(s)
        return spectra

    def defect(self) -> Optional[str]:
        """What is structurally wrong with the columns, or ``None``."""
        n, offsets = self.n_spectra, self.offsets
        for name in _PER_SPECTRUM:
            if getattr(self, name).shape != (n,):
                return f"{name} has shape {getattr(self, name).shape}, not ({n},)"
        if self.mzs.ndim != 1 or self.mzs.shape != self.intensities.shape:
            return f"peak columns differ: {self.mzs.shape} vs {self.intensities.shape}"
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            return "offsets must be a 1-d table starting at 0"
        if offsets[-1] != self.mzs.size:
            return f"offsets end at {offsets[-1]} but there are {self.mzs.size} peaks"
        if np.any(offsets[1:] < offsets[:-1]):
            return "offsets decrease"
        return None

    @property
    def n_spectra(self) -> int:
        """Spectra in the batch (by the offset table)."""
        return max(int(self.offsets.size) - 1, 0)

    @property
    def nbytes(self) -> int:
        """Total bytes of the seven columns."""
        return sum(getattr(self, f.name).nbytes for f in fields(self))
