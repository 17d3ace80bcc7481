"""Theoretical fragment (b/y ion) generation.

A tandem MS/MS spectrum of a peptide is dominated by its *b* ions
(N-terminal prefixes) and *y* ions (C-terminal suffixes).  The SLM
index stores exactly these fragment m/z values; the synthetic query
generator perturbs them.  Masses follow the standard relations::

    b_i  = sum(residues[:i])  + sum(mod deltas in prefix)  + PROTON
    y_i  = sum(residues[-i:]) + sum(mod deltas in suffix) + WATER + PROTON

Higher charge states divide the neutral fragment mass accordingly:
``mz = (M + z * PROTON) / z``.

One implementation serves every caller: :func:`fragment_mzs_batch`
builds the fragments of a whole entry list in blocks of
:data:`FRAGMENT_BLOCK` rows, and :func:`fragment_mzs` is its one-row
result.  Per block it fills a zero-padded residue-mass matrix from a
byte → mass table, adds modification deltas with ``np.add.at`` (in
order, so two mods on one residue add as a loop would), takes the
row-wise ``np.cumsum`` (sequential, so every prefix sum is the one a
per-peptide ``cumsum`` gives), evaluates the b/y expressions in one
fixed operation order, parks the cells past each row's end at ``+inf``
and sorts each row.  The first ``count`` cells of a row are then
bit-for-bit the sorted fragments of that entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.constants import AA_MONO, PROTON, WATER_MONO
from repro.errors import ConfigurationError, InvalidSequenceError

if TYPE_CHECKING:
    from repro.chem.peptide import Peptide

__all__ = [
    "FRAGMENT_BLOCK",
    "FragmentationSettings",
    "fragment_mzs",
    "fragment_mzs_batch",
    "theoretical_spectrum",
]

#: Rows per block of :func:`fragment_mzs_batch`.  Scratch is a few
#: ``FRAGMENT_BLOCK × longest sequence`` float64 matrices — 5.4 MB
#: for 40-residue peptides at one charge, 8 MB at two (tracemalloc
#: peak less the output) — so a full
#: database build never holds more than one block's worth at once.
FRAGMENT_BLOCK = 2048

_RESIDUE_MASS = np.full(256, np.nan)
for _aa, _mass in AA_MONO.items():
    _RESIDUE_MASS[ord(_aa)] = _mass


@dataclass(frozen=True, slots=True)
class FragmentationSettings:
    """Controls which fragment series are generated.

    Attributes
    ----------
    charges:
        Fragment charge states to emit (the SLM-Transform default
        indexes 1+ and 2+ fragments; the paper's ~2L ions per length-L
        peptide corresponds to 1+ only, which is our default).
    include_b:
        Emit the b-ion series.
    include_y:
        Emit the y-ion series.
    """

    charges: Tuple[int, ...] = (1,)
    include_b: bool = True
    include_y: bool = True

    def __post_init__(self) -> None:
        if not self.charges:
            raise ConfigurationError("at least one fragment charge state is required")
        if any(z < 1 for z in self.charges):
            raise ConfigurationError(f"fragment charges must be >= 1, got {self.charges}")
        if not (self.include_b or self.include_y):
            raise ConfigurationError("at least one ion series must be enabled")

    @property
    def ions_per_residue(self) -> float:
        """Expected number of generated ions per residue.

        A length-L peptide has L-1 cleavage sites; each enabled series
        contributes one ion per site per charge.  Used by the memory
        model to size index structures without generating fragments.
        """
        series = int(self.include_b) + int(self.include_y)
        return series * len(self.charges) * 1.0


def fragment_mzs(
    peptide: Peptide,
    settings: FragmentationSettings = FragmentationSettings(),
) -> np.ndarray:
    """Return the sorted m/z values of all configured fragments.

    Fragments of length-1 .. length-(L-1) prefixes (b) and suffixes (y)
    are generated for every configured charge state.  A length-1
    peptide has no internal cleavage site and yields an empty array.

    Returns
    -------
    numpy.ndarray
        Sorted float64 array of fragment m/z values.
    """
    mzs, _ = fragment_mzs_batch([peptide.sequence], [peptide.mods], settings)
    return mzs


def fragment_mzs_batch(
    sequences: Sequence[str],
    mods: Sequence[Tuple[Tuple[int, float], ...]],
    settings: FragmentationSettings = FragmentationSettings(),
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted fragment m/z of many entries as one flat CSR pair.

    ``sequences[i]`` with modifications ``mods[i]`` (``(position,
    delta)`` pairs, as :attr:`Peptide.mods`) owns
    ``mzs[offsets[i]:offsets[i + 1]]``, which equals
    ``fragment_mzs(Peptide(sequences[i], mods[i]), settings)`` byte for
    byte.  Returns ``(mzs, offsets)``: float64 and int64 of length
    ``len(sequences) + 1``.
    """
    if len(mods) != len(sequences):
        raise ConfigurationError(
            f"{len(mods)} mod tuples for {len(sequences)} sequences"
        )
    series = int(settings.include_b) + int(settings.include_y)
    pieces = series * len(settings.charges)
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(pieces * np.maximum(lengths - 1, 0), out=offsets[1:])
    mzs = np.empty(int(offsets[-1]), dtype=np.float64)
    for lo in range(0, lengths.size, FRAGMENT_BLOCK):
        hi = min(lo + FRAGMENT_BLOCK, lengths.size)
        if offsets[hi] > offsets[lo]:
            mzs[offsets[lo] : offsets[hi]] = _fragment_block(
                sequences[lo:hi], mods[lo:hi], lengths[lo:hi], settings, pieces
            )
    return mzs, offsets


def _fragment_block(
    sequences: Sequence[str],
    mods: Sequence[Tuple[Tuple[int, float], ...]],
    lengths: np.ndarray,
    settings: FragmentationSettings,
    pieces: int,
) -> np.ndarray:
    """Entry-major concatenation of the block's sorted fragment rows."""
    rows, width = lengths.size, int(lengths.max())
    residue = np.zeros((rows, width), dtype=np.float64)
    in_row = np.arange(width) < lengths[:, None]
    masses = _RESIDUE_MASS[np.frombuffer("".join(sequences).encode("ascii"), np.uint8)]
    if np.isnan(masses).any():
        raise InvalidSequenceError("sequences contain residues outside the alphabet")
    residue[in_row] = masses
    cells = [
        (row * width + pos, delta)
        for row, row_mods in enumerate(mods)
        for pos, delta in row_mods
    ]
    if cells:
        where, deltas = zip(*cells)
        np.add.at(residue.reshape(-1), np.array(where), np.array(deltas))
    cumulative = np.cumsum(residue, axis=1)
    total = cumulative[np.arange(rows), np.maximum(lengths - 1, 0), None]
    prefix_neutral = cumulative[:, :-1]  # b fragments: residues[:i], i = 1..L-1
    suffix_neutral = total - prefix_neutral + WATER_MONO
    ions = np.empty((rows, pieces, width - 1), dtype=np.float64)
    piece = 0
    for z in settings.charges:
        if settings.include_b:
            ions[:, piece] = (prefix_neutral + z * PROTON) / z
            piece += 1
        if settings.include_y:
            ions[:, piece] = (suffix_neutral + z * PROTON) / z
            piece += 1
    np.copyto(ions, np.inf, where=~in_row[:, None, 1:])
    ions = ions.reshape(rows, -1)
    ions.sort(axis=1)
    count = pieces * np.maximum(lengths - 1, 0)
    return ions[np.arange(ions.shape[1]) < count[:, None]]


def theoretical_spectrum(
    peptide: Peptide,
    settings: FragmentationSettings = FragmentationSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(mzs, intensities)`` for a theoretical spectrum.

    Theoretical intensities follow the simple triangular profile used
    by shared-peak engines: mid-sequence fragments are most intense.
    The intensity model only matters to the synthetic spectra
    generator; shared-peak filtration ignores intensities.
    """
    mzs = fragment_mzs(peptide, settings)
    n = mzs.size
    if n == 0:
        return mzs, np.empty(0, dtype=np.float64)
    # Triangular profile over the sorted m/z order, normalized to max 1.
    ramp = np.minimum(np.arange(1, n + 1), np.arange(n, 0, -1)).astype(np.float64)
    intensities = ramp / ramp.max()
    return mzs, intensities
