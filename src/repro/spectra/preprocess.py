"""Query-spectrum preprocessing (SLM-Transform fragment extraction).

The paper configures SLM-Transform to "extract the 100 most intense
peaks from each query spectrum" (Section V-A.3).  Preprocessing is part
of the *parallel* work each rank performs on every query, so the
distributed engine charges its cost to the rank clocks.

:func:`preprocess_batch` runs a **batched selection kernel**: spectra
needing top-N selection are packed into one padded matrix and the
selection runs as a single ``np.argpartition`` over the batch (O(peaks)
instead of a per-spectrum O(n log n) double sort), with intensity ties
at the cut resolved by m/z through a second masked partition.  Results
are bit-identical to per-spectrum :func:`preprocess_spectrum` calls —
the selected peak *sets* and their output order match exactly
(test-enforced) — so the serial, parallel, and service engines all see
the same query peaks regardless of which path preprocessed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.constants import DEFAULT_TOP_PEAKS
from repro.errors import ConfigurationError
from repro.spectra.model import Spectrum

__all__ = [
    "PreprocessConfig",
    "preprocess_spectrum",
    "preprocess_batch",
]

#: Element budget of one padded selection matrix (rows × max peaks).
#: Rows are grouped by ascending width and chunked under this bound,
#: so a stray million-peak spectrum cannot blow the padding up to
#: rows × 1e6 for the whole batch.  8M float64 elements ≈ 64 MB per
#: matrix, two matrices live at once.
_SELECT_BUDGET = 1 << 23


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


def _select_top_peaks(
    mz_rows: List[np.ndarray], int_rows: List[np.ndarray], k: int
) -> List[np.ndarray]:
    """Batched top-``k`` selection over rows that all exceed ``k`` peaks.

    Packs the rows into one padded matrix (m/z padded with ``+inf``,
    intensity with ``-inf`` so padding can never be selected) and picks
    each row's ``k`` most intense peaks with a single axis-1
    ``np.argpartition``.  Intensity ties straddling the cut are
    resolved exactly as the per-spectrum path's ``lexsort((mz,
    -intensity))`` does — smaller m/z wins — via a second partition
    over the tie pool's m/z values; peaks tied on *both* intensity and
    m/z at the cut are value-identical, so taking first occurrences
    preserves bit-identity.  Both tie stages are skipped outright when
    no row has a contested cut (the common case for real intensity
    data).

    Each row's m/z values must be ascending (every
    :class:`~repro.spectra.model.Spectrum` guarantees this), which is
    what lets the kernel read the final (m/z asc, intensity desc,
    position asc) output order straight off the selection mask in
    column order — only rows with duplicate selected m/z values (rare)
    pay a small per-row re-sort.

    Returns per-row index arrays into the original rows, ordered as the
    per-spectrum path orders its output.
    """
    m = len(mz_rows)
    widths = np.fromiter((a.size for a in mz_rows), dtype=np.int64, count=m)
    w = int(widths.max())
    M = np.full((m, w), np.inf)
    I = np.full((m, w), -np.inf)
    for i, (mz, it) in enumerate(zip(mz_rows, int_rows)):
        M[i, : mz.size] = mz
        I[i, : it.size] = it

    # Indices of each row's k largest intensities (boundary ties
    # arbitrary — only the threshold value is read off them).
    part = np.argpartition(I, w - k, axis=1)[:, w - k :]
    thresh = np.take_along_axis(I, part, axis=1).min(axis=1)
    above = I > thresh[:, None]
    # The threshold element itself always ties, so 1 <= need <= k.
    need = k - above.sum(axis=1)
    tie = I == thresh[:, None]

    if np.array_equal(tie.sum(axis=1), need):
        # No contested cut anywhere: every tie is selected.
        keep = above | tie
    else:
        mz_tie = np.where(tie, M, np.inf)
        # need-th smallest tie m/z per row; np.partition with the set
        # of needed positions places each in sorted position rowwise.
        kths = np.unique(need - 1)
        part_mz = np.partition(mz_tie, kths, axis=1)
        cutoff = part_mz[np.arange(m), need - 1]
        below_cut = tie & (M < cutoff[:, None])
        at_cut = tie & (M == cutoff[:, None])
        need_at = need - below_cut.sum(axis=1)
        # First `need_at` of the (value-identical) peaks at the cutoff.
        at_rank = np.cumsum(at_cut, axis=1)
        keep = above | below_cut | (at_cut & (at_rank <= need_at[:, None]))

    # keep has exactly k true cells per row; nonzero's row-major order
    # yields them per row in column order = ascending m/z already.
    cols_kept = np.nonzero(keep)[1]
    mz_kept = M[keep]
    # Rows holding duplicate m/z values among their selected peaks need
    # the per-spectrum path's (m/z asc, intensity desc, position asc)
    # tie order restored; everyone else is already in final order.
    dup = mz_kept[1:] == mz_kept[:-1]
    dup[k - 1 :: k] = False  # row boundaries are not ties
    orders = [cols_kept[i * k : (i + 1) * k] for i in range(m)]
    if dup.any():
        int_kept = I[keep]
        for i in set((np.flatnonzero(dup) // k).tolist()):
            seg = slice(i * k, (i + 1) * k)
            fix = np.lexsort((-int_kept[seg], mz_kept[seg]))
            orders[i] = orders[i][fix]
    return orders


def _normalized(intens: np.ndarray, normalize: bool) -> np.ndarray:
    if normalize and intens.size and intens.max() > 0:
        return intens / intens.max()
    return intens


def preprocess_batch(
    spectra: Sequence[Spectrum], config: PreprocessConfig = PreprocessConfig()
) -> List[Spectrum]:
    """Preprocess every spectrum in ``spectra`` (batched kernel).

    Bit-identical to mapping :func:`preprocess_spectrum` over the
    batch — same peak sets, same order, same normalized values — but
    the top-N selection of every spectrum that needs one runs in a
    handful of whole-batch ``np.argpartition`` calls instead of two
    sorts per spectrum.
    """
    spectra = list(spectra)
    k = config.top_peaks

    # Per-spectrum post-min_mz views, and which spectra need selection.
    kept_mzs: List[np.ndarray] = []
    kept_int: List[np.ndarray] = []
    select: List[int] = []
    for i, s in enumerate(spectra):
        mzs, intens = s.mzs, s.intensities
        if config.min_mz > 0 and mzs.size:
            mask = mzs >= config.min_mz
            mzs, intens = mzs[mask], intens[mask]
        kept_mzs.append(mzs)
        kept_int.append(intens)
        if mzs.size > k:
            select.append(i)

    if select:
        # Group by ascending width and chunk under the padding budget,
        # so one huge spectrum cannot inflate every row's padding.
        select.sort(key=lambda i: kept_mzs[i].size)
        pos = 0
        while pos < len(select):
            end = pos + 1
            while end < len(select):
                rows = end - pos + 1
                if rows * kept_mzs[select[end]].size > _SELECT_BUDGET:
                    break
                end += 1
            chunk = select[pos:end]
            orders = _select_top_peaks(
                [kept_mzs[i] for i in chunk],
                [kept_int[i] for i in chunk],
                k,
            )
            for i, order in zip(chunk, orders):
                kept_mzs[i] = kept_mzs[i][order]
                kept_int[i] = kept_int[i][order]
            pos = end

    out: List[Spectrum] = []
    for s, mzs, intens in zip(spectra, kept_mzs, kept_int):
        # min_mz masking and top-N gathers already produced fresh
        # arrays; only the pass-through case still aliases the input.
        if mzs is s.mzs:
            mzs = mzs.copy()
        if intens is s.intensities:
            intens = intens.copy()
        out.append(
            Spectrum(
                scan_id=s.scan_id,
                precursor_mz=s.precursor_mz,
                charge=s.charge,
                mzs=mzs,
                intensities=_normalized(intens, config.normalize),
                true_peptide=s.true_peptide,
            )
        )
    return out
