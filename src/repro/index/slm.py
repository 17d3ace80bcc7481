"""The SLM fragment-ion index.

Structure (mirroring the SLM-Transform C++ layout):

* every indexed peptide's theoretical b/y fragments are quantized to
  integer buckets of width ``resolution`` (``r = 0.01`` Da default),
* ion entries are stored bucket-major in one flat ``int32`` array of
  parent-peptide local ids (4 bytes/ion, as in the original whose 2G-ion
  limit equals 8 GB),
* an ``int32`` bucket-offset array (CSR) maps a bucket id to its
  ion-entry slice (the ion limit keeps every offset below 2^31),
* a mass table stores each entry's neutral mass (float32) for the
  optional precursor window filter.

Querying a spectrum walks each query peak's tolerance window
(±ΔF → a contiguous bucket range), gathers parent ids, and counts the
matched ion entries per peptide (*shared ions* — each indexed ion
falling inside any query peak's window contributes one count, exactly
the tally a fragment-ion index accumulates).  Peptides reaching the
shared-peak threshold become scoring candidates.

The index also reports exact *work counters* (buckets and ion entries
touched, candidates produced) which the distributed runtime converts to
virtual time; this is what makes load-imbalance experiments
deterministic.

For the rank body's top-k pruning, :meth:`SLMIndex.match_bounds` caps
each candidate's matched-fragment count with the same windows plus a
one-bucket rim on either side (``search/rank.py``, "Top-k pruning").

Batched filtration (:meth:`SLMIndex.filter_many`) does the window
arithmetic once per batch but gathers and counts one spectrum at a
time, so its only ion-sized scratch is 4 B/ion of the largest single
spectrum's gather, whatever the batch size.

This flat index is the open-search rank index and the serial oracle's.
A windowed rank index is :class:`~repro.index.chunks.ChunkedIndex`,
which keeps its own flat precursor-major arrays and shares only
:class:`FilterResult`, the settings, :func:`peak_windows` and the
window predicate's form with this class.  Both take the same
input: one complete :class:`~repro.index.arena.FragmentArena`
(``SLMIndex(arena, settings)``), which each quantizes and sorts once
(:meth:`~repro.index.arena.FragmentArena.quantize`).  Nothing stores a
built index: an index archive
(:meth:`~repro.search.database.IndexedDatabase.save`) holds the arena's
m/z data, so reopening one costs this build alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.chem.fragments import FragmentationSettings
from repro.constants import (
    DEFAULT_FRAGMENT_TOLERANCE,
    DEFAULT_RESOLUTION,
    DEFAULT_SHARED_PEAK_THRESHOLD,
)
from repro.errors import ConfigurationError
from repro.index.arena import (
    FragmentArena,
    Workspace,
    check_ion_count,
    concat_ranges,
    thread_workspace,
)
from repro.spectra.model import Spectrum

__all__ = ["SLMIndexSettings", "FilterResult", "SLMIndex"]


@dataclass(frozen=True, slots=True)
class SLMIndexSettings:
    """Index/query settings (defaults = paper Section V-A.3).

    Attributes
    ----------
    resolution:
        Bucket width ``r`` in Da.
    fragment_tolerance:
        ΔF, half-width of the peak match window in Da.
    shared_peak_threshold:
        Minimum shared peaks for a peptide to become a candidate.
    precursor_tolerance:
        ΔM in Da; ``None`` or ``inf`` = open search (paper default).
    fragmentation:
        Which theoretical ion series are indexed.
    """

    resolution: float = DEFAULT_RESOLUTION
    fragment_tolerance: float = DEFAULT_FRAGMENT_TOLERANCE
    shared_peak_threshold: int = DEFAULT_SHARED_PEAK_THRESHOLD
    precursor_tolerance: float | None = None
    fragmentation: FragmentationSettings = field(default_factory=FragmentationSettings)

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ConfigurationError(f"resolution must be > 0, got {self.resolution}")
        if self.fragment_tolerance < 0:
            raise ConfigurationError(
                f"fragment_tolerance must be >= 0, got {self.fragment_tolerance}"
            )
        if self.shared_peak_threshold < 1:
            raise ConfigurationError(
                f"shared_peak_threshold must be >= 1, got {self.shared_peak_threshold}"
            )
        if self.precursor_tolerance is not None and self.precursor_tolerance < 0:
            raise ConfigurationError(
                f"precursor_tolerance must be >= 0 or None, got {self.precursor_tolerance}"
            )

    @property
    def is_open_search(self) -> bool:
        """True when no precursor window is applied."""
        return self.precursor_tolerance is None or np.isinf(self.precursor_tolerance)


@dataclass(slots=True)
class FilterResult:
    """Outcome of shared-peak filtration for one query spectrum.

    Attributes
    ----------
    candidates:
        Local peptide ids whose shared-peak count reached the threshold.
    shared_peaks:
        Shared-peak count per candidate (aligned with ``candidates``).
    buckets_scanned:
        Number of index buckets inspected.
    ions_scanned:
        Number of ion entries gathered across all inspected buckets
        (the dominant filtration cost).
    """

    candidates: np.ndarray
    shared_peaks: np.ndarray
    buckets_scanned: int
    ions_scanned: int


def peak_windows(
    mzs: np.ndarray, settings: SLMIndexSettings, top: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each peak's bucket window ``[lo, hi)``, clipped to ``[0, top]``.

    The one statement of the window arithmetic, shared by flat and
    chunked filtration and :meth:`SLMIndex.match_bounds`.  After
    clipping, ``hi >= lo`` always holds (``hi > lo`` before it and
    clipping is monotone), so empty windows are zero-width spans that
    drop out of every segment sum and out of the gather.  A NaN or
    ±inf peak gets the empty window ``[0, 0)``; the bounds are clipped
    while still floats, so the ``int64`` cast is exact and no window
    depends on how the platform casts a non-finite value.
    """
    r = settings.resolution
    frag_tol = settings.fragment_tolerance
    lo = np.floor((mzs - frag_tol) / r)
    hi = np.floor((mzs + frag_tol) / r) + 1
    void = ~np.isfinite(mzs)
    if void.any():
        lo[void] = 0
        hi[void] = 0
    np.clip(lo, 0, top, out=lo)
    np.clip(hi, 0, top, out=hi)
    return lo.astype(np.int64), hi.astype(np.int64)


class SLMIndex:
    """A searchable fragment-ion index over one fragment arena.

    Parameters
    ----------
    arena:
        The :class:`~repro.index.arena.FragmentArena` to index; local
        ids are its entry positions.  The build quantizes and sorts
        it once (:meth:`~repro.index.arena.FragmentArena.quantize`),
        and the precursor filter reads the arena's float32
        ``masses``.  The index keeps those masses and the per-entry
        ion counts, not the arena, and holds no peptide table: callers
        that need peptides keep them beside the index (an
        :class:`~repro.search.database.IndexedDatabase`).
    settings:
        Index/query settings.

    Notes
    -----
    Construction materializes flat bucket/parent arrays alongside
    their sorted copies before the transients are freed — the source of
    the paper's "2× temporary memory" remark (Section V-B); the memory
    model accounts for it.
    """

    def __init__(self, arena: FragmentArena, settings: SLMIndexSettings) -> None:
        check_ion_count(arena.n_ions)
        self.settings = settings
        n = arena.n_entries
        self.n_peptides = n
        self.masses = arena.masses
        #: Indexed ions per peptide (int64, length ``len(self)``).
        self.ion_counts: np.ndarray = arena.counts
        self._masses64: np.ndarray | None = None

        # --- transient construction state (freed on return) ---------
        # The flat bucket array is entry-major (zero-fragment entries
        # contribute nothing), so its stable sort order makes the ions
        # bucket-major with ties in entry order; bucket counts come
        # straight from the unsorted array (bincount is
        # order-independent).
        all_buckets, order = arena.quantize(settings.resolution)
        all_parents = np.repeat(
            np.arange(n, dtype=np.int32), arena.counts
        ) if n else np.empty(0, dtype=np.int32)
        self.ion_parents: np.ndarray = all_parents[order]

        self.n_buckets = int(all_buckets.max()) + 1 if all_buckets.size else 0
        counts = np.bincount(
            all_buckets, minlength=self.n_buckets
        ) if all_buckets.size else np.zeros(0, dtype=np.int64)
        self.bucket_offsets = np.zeros(self.n_buckets + 1, dtype=np.int32)
        if self.n_buckets:
            np.cumsum(counts, out=self.bucket_offsets[1:])

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return self.n_peptides

    @property
    def n_ions(self) -> int:
        """Total indexed ion entries."""
        return int(self.ion_parents.size)

    def ions_of(self, local_id: int) -> int:
        """Number of indexed ions of peptide ``local_id`` (O(1))."""
        if not 0 <= local_id < self.n_peptides:
            return 0
        return int(self.ion_counts[local_id])

    @property
    def masses64(self) -> np.ndarray:
        """Peptide masses widened to float64 (lazy, cached).

        Masses are *stored* float32 (the 4-byte-per-entry paper layout)
        but every precursor-window comparison happens in float64 — the
        same dtype :class:`~repro.index.chunks.ChunkedIndex` prunes
        chunks with — so flat, chunked, and batched filtration
        evaluate one consistent predicate at window boundaries.  The
        widening itself is exact (every float32 is a float64).
        """
        if self._masses64 is None:
            self._masses64 = self.masses.astype(np.float64)
        return self._masses64

    # -- querying ------------------------------------------------------

    def _apply_precursor_window(
        self, counts: np.ndarray, neutral_mass: float
    ) -> None:
        """Zero ``counts`` for peptides outside ``neutral_mass ± ΔM``, in place.

        The single authoritative form of the precursor predicate —
        float64 arithmetic over the float32-stored masses (see
        :attr:`masses64`) — shared by every filtration path so the
        boundary behaviour can never drift between them.  Callers
        check :attr:`SLMIndexSettings.is_open_search` first.
        """
        prec_tol = float(self.settings.precursor_tolerance)  # type: ignore[arg-type]
        outside = np.abs(self.masses64 - neutral_mass) > prec_tol
        counts[outside] = 0

    def filter(self, spectrum: Spectrum) -> FilterResult:
        """Shared-peak filtration of ``spectrum`` against this index.

        Counts matched ion entries per peptide: every indexed ion whose
        bucket falls inside a query peak's tolerance window adds one.
        A batch of one through the :meth:`filter_many` kernel.
        """
        if self.n_peptides == 0 or self.n_ions == 0 or spectrum.n_peaks == 0:
            return self._empty_result()
        return self._filter_batch([spectrum], thread_workspace())[0]

    def _empty_result(self) -> FilterResult:
        """A zero-work :class:`FilterResult` (no candidates, nothing scanned)."""
        return FilterResult(
            candidates=np.empty(0, dtype=np.int32),
            shared_peaks=np.empty(0, dtype=np.int32),
            buckets_scanned=0,
            ions_scanned=0,
        )

    def filter_many(
        self,
        spectra: Sequence[Spectrum],
        *,
        workspace: Workspace | None = None,
    ) -> List[FilterResult]:
        """Batched filtration: one :class:`FilterResult` per spectrum.

        Every spectrum's peak-tolerance windows are flattened into
        **one** vectorized window pass over ``bucket_offsets`` for the
        whole batch; each spectrum's ions are then gathered from
        ``ion_parents`` into one reused scratch and counted with a
        bincount.  The scratch holds one spectrum's gather at a time —
        4 B/ion of the largest spectrum's gather, not of the batch's.

        Results are **bit-identical** to per-spectrum :meth:`filter`
        calls (which run the same kernel on a batch of one): counting
        is integer-exact regardless of batching, and each spectrum's
        candidates come from a ``flatnonzero`` over its own count
        vector.  ``workspace`` supplies scratch buffers; it defaults to
        the calling thread's.
        """
        spectra = list(spectra)
        if not spectra:
            return []
        if self.n_peptides == 0 or self.n_ions == 0:
            return [self._empty_result() for _ in spectra]
        ws = workspace if workspace is not None else thread_workspace()
        return self._filter_batch(spectra, ws)

    def _filter_batch(
        self, batch: Sequence[Spectrum], ws: Workspace
    ) -> List[FilterResult]:
        """The cross-spectrum filtration kernel.

        The window arithmetic and the bucket-offset lookups run
        **once** over every spectrum's peaks concatenated.  A peak's
        window is a contiguous bucket range, and the index is
        bucket-major, so the ions it touches are one contiguous slice
        ``ion_parents[start:stop]``: a spectrum's gather is a
        concatenation of its peaks' slices, copied straight into the
        ``int32`` scratch ``slm.filter_batch.parents`` — no per-ion
        index array is ever built.  Each spectrum's bincount then
        scatters into its own small histogram, which stays
        cache-resident — profiling showed this beats one keyed
        ``spectrum * n + parent`` bincount over the combined key space,
        whose key construction alone costs two extra passes over every
        gathered ion.  The scratch is sized for the largest single
        spectrum's gather; a spectrum's result depends only on its own
        gather, so gathering one at a time changes no output.
        """
        n = self.n_peptides
        nb = len(batch)

        peak_counts = np.fromiter(
            (s.n_peaks for s in batch), dtype=np.int64, count=nb
        )
        peak_bounds = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(peak_counts, out=peak_bounds[1:])
        total_peaks = int(peak_bounds[-1])
        if total_peaks == 0:
            return [self._empty_result() for _ in batch]
        all_mzs = np.concatenate([s.mzs for s in batch]) if nb > 1 else batch[0].mzs

        lo, hi = peak_windows(all_mzs, self.settings, self.n_buckets)
        span_cum = np.zeros(total_peaks + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=span_cum[1:])
        buckets = (span_cum[peak_bounds[1:]] - span_cum[peak_bounds[:-1]]).tolist()

        starts = self.bucket_offsets[lo]
        stops = self.bucket_offsets[hi]
        size_cum = np.zeros(total_peaks + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=size_cum[1:])
        per_spec = np.diff(size_cum[peak_bounds])
        ions = per_spec.tolist()
        # One slice per peak, empty ones kept, so a spectrum's peaks
        # index the list directly.
        ion_parents = self.ion_parents
        slices = [ion_parents[a:b] for a, b in zip(starts.tolist(), stops.tolist())]
        parents = ws.take("slm.filter_batch.parents", int(per_spec.max()), np.int32)
        pb = peak_bounds.tolist()

        windowed = not self.settings.is_open_search
        threshold = self.settings.shared_peak_threshold

        results: List[FilterResult] = []
        for b in range(nb):
            if ions[b]:
                seg = parents[: ions[b]]
                np.concatenate(slices[pb[b] : pb[b + 1]], out=seg)
                counts = np.bincount(seg, minlength=n)
            else:
                counts = np.zeros(n, dtype=np.int64)
            if windowed:
                self._apply_precursor_window(counts, batch[b].neutral_mass)
            cands = np.flatnonzero(counts >= threshold).astype(np.int32)
            results.append(
                FilterResult(
                    candidates=cands,
                    shared_peaks=counts[cands].astype(np.int32),
                    buckets_scanned=buckets[b],
                    ions_scanned=ions[b],
                )
            )
        return results

    def match_bounds(
        self,
        spectra: Sequence[Spectrum],
        filtered: Sequence[FilterResult],
        *,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Upper bounds on each candidate's matched-fragment count.

        ``filtered`` is this index's :meth:`filter_many` output for
        ``spectra``; the result is one ``int64`` array over their
        candidates laid end to end.  A candidate's bound is its shared
        peaks plus its ions in the **rim**: the one bucket on either
        side of every peak window.  The scorer matches a fragment when
        ``|fragment - peak| <= tolerance``; rounding in ``(peak ±
        tolerance) / r`` against the fragment's own ``floor(mz * (1 /
        r))`` can move that fragment one bucket outside the peak's
        window, never two, and on either side: at ±0.05 and r = 0.01,
        peak 1486.35 matches fragment 1486.35 + 0.05 =
        1486.3999999999999, whose bucket 148640 is the window's
        exclusive end; at r = 0.003, peak 539.1949999999999 matches
        fragment 539.145, whose bucket 179714 is the window's
        ``lo - 1``.  So every matched fragment lies in a window or its
        rim, and shared peaks alone can undercount.  Windows clipped at the index edge give rims that
        may count an extra bucket — a looser bound, still a bound.
        """
        bounds = np.concatenate(
            [np.empty(0, np.int64), *(f.shared_peaks for f in filtered)]
        ).astype(np.int64)
        if not bounds.size:
            return bounds
        ws = workspace if workspace is not None else thread_workspace()
        lo, hi = peak_windows(
            np.concatenate([s.mzs for s in spectra]), self.settings, self.n_buckets
        )
        offsets = self.bucket_offsets
        # Each peak's two rims side by side, [lo - 1, lo) and [hi, hi + 1),
        # gathered for the whole batch; a spectrum's rims are contiguous.
        below = offsets[np.maximum(lo - 1, 0)]
        above = offsets[np.minimum(hi + 1, self.n_buckets)]
        starts = np.stack([below, offsets[hi]], axis=1).ravel()
        stops = np.stack([offsets[lo], above], axis=1).ravel()
        rim_cum = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=rim_cum[1:])
        peak_bounds = np.zeros(len(spectra) + 1, dtype=np.int64)
        np.cumsum([s.n_peaks for s in spectra], out=peak_bounds[1:])
        rim_bounds = rim_cum[2 * peak_bounds].tolist()
        parents = self.ion_parents[concat_ranges(starts, stops, workspace=ws)]
        # Candidate slot + 1 per local id, reset after each spectrum.  A
        # slot left behind by an interrupted call can only add counts.
        slot = ws.zeros("slm.match_bounds.slot", self.n_peptides, np.int32)
        at = 0
        for b, f in enumerate(filtered):
            cands = f.candidates
            slot[cands] = np.arange(1, cands.size + 1, dtype=np.int32)
            rim = slot[parents[rim_bounds[b] : rim_bounds[b + 1]]]
            slot[cands] = 0
            hits = np.bincount(rim, minlength=cands.size + 1)
            bounds[at : at + cands.size] += hits[1 : cands.size + 1]
            at += cands.size
        return bounds
