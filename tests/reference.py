"""Test-only reference implementations the kernels are pinned against.

``src/`` holds one implementation of each kernel, and every kernel takes
one complete :class:`~repro.index.arena.FragmentArena`.  The slower,
simpler formulations they replaced live here, so each suite compares
the product kernel with an independent statement of what it computes:

* :func:`bruteforce_filter` — per-peptide peak matching over fragments
  regenerated with :func:`~repro.chem.fragments.fragment_mzs` (no
  index, no arena),
* :func:`index_gather_filter` — filtration through an explicit per-ion
  ``concat_ranges`` + ``np.take`` gather,
* :func:`dense_score` — the dense scoring body (every gathered fragment
  pays the binary search and the element-wise passes),
  fed either by an arena gather (:func:`dense_score_candidates`) or by
  per-candidate fragment regeneration (:func:`regenerated_score`).

Plus the builders the suites share: :func:`arena_of` (a complete arena
from per-entry fragment arrays), :func:`fragments_of` and
:func:`index_over` (the flat index over a peptide list), and the one
oracle comparison, :func:`assert_same_results`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.chem.fragments import FragmentationSettings, fragment_mzs
from repro.chem.peptide import Peptide
from repro.index.arena import FragmentArena, concat_ranges
from repro.index.slm import FilterResult, SLMIndex, SLMIndexSettings
from repro.search.scoring import ScoringOutcome, _lgamma_counts
from repro.spectra.model import Spectrum

# -- the oracle comparison ---------------------------------------------


def assert_same_results(serial, results):
    """``results`` equal the serial engine's ``serial`` spectrum by
    spectrum: scan ids, candidate counts, and every PSM's (entry id,
    score, shared peaks), in rank order."""
    assert len(serial.spectra) == len(results.spectra)
    for a, b in zip(serial.spectra, results.spectra):
        assert a.scan_id == b.scan_id
        assert a.n_candidates == b.n_candidates
        assert [(p.entry_id, p.score, p.shared_peaks) for p in a.psms] == [
            (p.entry_id, p.score, p.shared_peaks) for p in b.psms
        ]


# -- builders ----------------------------------------------------------


def arena_of(
    arrays: Sequence[np.ndarray],
    *,
    lengths: np.ndarray | None = None,
    masses: np.ndarray | None = None,
) -> FragmentArena:
    """A complete arena over per-entry fragment arrays, entry-major.

    Unspecified metadata is filled in: ``lengths`` default to one
    residue per entry, ``masses`` to zero.
    """
    n = len(arrays)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    mzs = np.concatenate(arrays) if offsets[-1] else np.empty(0, dtype=np.float64)
    return FragmentArena(
        mzs,
        offsets,
        lengths=np.ones(n, dtype=np.int64) if lengths is None else lengths,
        masses=np.zeros(n, dtype=np.float32) if masses is None else masses,
    )


def fragments_of(arena: FragmentArena, entry_id: int) -> np.ndarray:
    """Entry ``entry_id``'s fragment m/z values (a view into the arena)."""
    return arena.mzs[arena.offsets[entry_id] : arena.offsets[entry_id + 1]]


def index_over(
    peptides: Sequence[Peptide], settings: SLMIndexSettings = SLMIndexSettings()
) -> SLMIndex:
    """The flat index over ``peptides`` (local ids = list positions)."""
    return SLMIndex(FragmentArena.from_peptides(peptides, settings.fragmentation), settings)


# -- filtration --------------------------------------------------------


def bruteforce_filter(
    peptides: Sequence[Peptide], settings: SLMIndexSettings, spectrum: Spectrum
) -> FilterResult:
    """Quadratic per-peptide peak matching with regenerated fragments.

    Same bucket quantization and ion-multiplicity semantics as the
    index (each (ion, peak window) containment adds one), and the same
    precursor predicate: float64 arithmetic over float32 masses, a
    peptide is dropped when ``|mass - neutral| > tolerance``.  Work
    counters are not modelled (reported as 0).
    """
    r = settings.resolution
    tol = settings.fragment_tolerance
    inv_r = 1.0 / r
    counts = np.zeros(len(peptides), dtype=np.int32)
    for local_id, pep in enumerate(peptides):
        mzs = fragment_mzs(pep, settings.fragmentation)
        buckets = np.sort(np.floor(mzs * inv_r).astype(np.int64))
        shared = 0
        for mz in spectrum.mzs:
            lo = int(np.floor((mz - tol) / r))
            hi = int(np.floor((mz + tol) / r)) + 1
            shared += int(
                np.searchsorted(buckets, hi, side="left")
                - np.searchsorted(buckets, lo, side="left")
            )
        counts[local_id] = shared
    if not settings.is_open_search:
        masses = np.array([p.mass for p in peptides], dtype=np.float32)
        outside = np.abs(masses.astype(np.float64) - spectrum.neutral_mass) > float(
            settings.precursor_tolerance
        )
        counts[outside] = 0
    cands = np.flatnonzero(counts >= settings.shared_peak_threshold).astype(np.int32)
    return FilterResult(
        candidates=cands,
        shared_peaks=counts[cands],
        buckets_scanned=0,
        ions_scanned=0,
    )


def index_gather_filter(index: SLMIndex, spectrum: Spectrum) -> FilterResult:
    """Per-spectrum filtration through an explicit per-ion index array."""
    n = index.n_peptides
    r = index.settings.resolution
    tol = index.settings.fragment_tolerance
    lo = np.floor((spectrum.mzs - tol) / r).astype(np.int64)
    hi = np.floor((spectrum.mzs + tol) / r).astype(np.int64) + 1
    np.clip(lo, 0, index.n_buckets, out=lo)
    np.clip(hi, 0, index.n_buckets, out=hi)
    valid = hi > lo
    lo, hi = lo[valid], hi[valid]
    gather = concat_ranges(index.bucket_offsets[lo], index.bucket_offsets[hi])
    counts = np.bincount(np.take(index.ion_parents, gather), minlength=n)
    if not index.settings.is_open_search:
        index._apply_precursor_window(counts, spectrum.neutral_mass)
    cands = np.flatnonzero(counts >= index.settings.shared_peak_threshold)
    return FilterResult(
        candidates=cands.astype(np.int32),
        shared_peaks=counts[cands].astype(np.int32),
        buckets_scanned=int((hi - lo).sum()),
        ions_scanned=int(gather.size),
    )


# -- scoring -----------------------------------------------------------


def dense_score(
    spectrum: Spectrum,
    theo_all: np.ndarray,
    sizes: np.ndarray,
    residues: int,
    *,
    fragment_tolerance: float,
) -> tuple[ScoringOutcome, np.ndarray]:
    """Score candidates laid end to end in ``theo_all``: ``(outcome, mask)``.

    Every fragment gets the exact nearest-peak test; ``mask`` marks the
    matched ones.  Each candidate's intensity sum folds exactly its own
    credits, zeros kept: ``reduceat`` over the starts of the non-empty
    candidates only.
    """
    n = int(sizes.size)
    q_mzs = spectrum.mzs
    q_int = spectrum.intensities
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    m = theo_all.size
    intensity_sums = np.zeros(n, dtype=np.float64)
    if q_mzs.size and m:
        qn = q_mzs.size
        pos = np.searchsorted(q_mzs, theo_all)
        left = np.maximum(pos - 1, 0)
        right = np.minimum(pos, qn - 1)
        d_left = np.abs(theo_all - q_mzs[left])
        d_right = np.abs(theo_all - q_mzs[right])
        use_left = d_left <= d_right
        mask = np.minimum(d_left, d_right) <= fragment_tolerance
        mask_cum = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(mask, out=mask_cum[1:])
        matched = (mask_cum[bounds[1:]] - mask_cum[bounds[:-1]]).astype(np.int32)
        nearest = np.where(use_left, left, right)
        credit = q_int[nearest]
        credit[~mask] = 0.0
        nonempty = sizes > 0
        intensity_sums[nonempty] = np.add.reduceat(credit, bounds[:-1][nonempty])
    else:
        mask = np.zeros(m, dtype=bool)
        matched = np.zeros(n, dtype=np.int32)
    scores = np.where(
        matched > 0, _lgamma_counts(matched) + np.log1p(intensity_sums), 0.0
    )
    outcome = ScoringOutcome(
        scores=scores,
        n_matched=matched,
        candidates_scored=n,
        residues_scored=int(residues),
    )
    return outcome, mask


def dense_score_candidates(spectrum, candidate_ids, *, fragment_tolerance, arena):
    """:func:`dense_score` over an arena gather: ``(outcome, theo_all, mask)``."""
    cids = np.asarray(candidate_ids, dtype=np.int64)
    theo_all, sizes = arena.gather_flat(cids)
    outcome, mask = dense_score(
        spectrum,
        theo_all,
        sizes,
        int(arena.lengths[cids].sum()),
        fragment_tolerance=fragment_tolerance,
    )
    return outcome, theo_all, mask


def regenerated_score(
    spectrum: Spectrum,
    peptides: Sequence[Peptide],
    candidate_ids: np.ndarray,
    *,
    fragment_tolerance: float,
    fragmentation: FragmentationSettings = FragmentationSettings(),
) -> ScoringOutcome:
    """:func:`dense_score` over fragments regenerated per candidate.

    Each candidate's fragments come from
    :func:`~repro.chem.fragments.fragment_mzs` and its residues from
    the peptide, concatenated in candidate order.
    """
    parts = [fragment_mzs(peptides[int(c)], fragmentation) for c in candidate_ids]
    theo_all = np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
    sizes = np.array([p.size for p in parts], dtype=np.int64)
    residues = sum(peptides[int(c)].length for c in candidate_ids)
    outcome, _ = dense_score(
        spectrum, theo_all, sizes, residues, fragment_tolerance=fragment_tolerance
    )
    return outcome
