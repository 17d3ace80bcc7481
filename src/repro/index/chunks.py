"""Precursor-major rank index (paper Fig. 1): the windowed search path.

The paper's shared-memory scheme sorts index entries by precursor mass
and cuts them into bounded chunks, so near-isobaric reference data sit
in exactly one chunk and a query with a precursor window visits only
the chunks its window reaches.  :class:`ChunkedIndex` is that scheme
expressed over a rank's **sub-arena** — no
:class:`~repro.chem.peptide.Peptide` objects, no per-chunk arena
copies:

* entries are ranked by their float32 mass (the value the window
  predicate tests) and cut into runs of :data:`CHUNK_ENTRIES`,
* the rank's ions — bucket-major through the one
  :meth:`~repro.index.arena.FragmentArena.quantize` of the build — are
  re-sorted **once**, stably, by chunk id, which makes
  them ``(chunk, bucket)``-major in one flat ``int32`` array of parent
  mass ranks,
* one flat ``int32`` bucket-offset CSR holds every chunk's offsets,
  relative to the chunk's first ion and trimmed to the chunk's own top
  bucket; :attr:`ChunkedIndex.offset_bounds` says where each chunk's
  run starts, :attr:`ChunkedIndex.ion_bounds` where its ions start.

Filtration is one array pass per batch (:meth:`ChunkedIndex.filter_many`):
every (spectrum, reached chunk, peak) window is expanded at once, its
ions are gathered in one ``concat_ranges`` + ``take``, and only the
ions whose parent can pass the precursor window are counted — a
conservative mass-rank interval per spectrum (masses are sorted, so
the window is one run of ranks) filters the gather, the few survivors
are counted and thresholded, and the exact difference-form predicate
``|float64(mass) - neutral| <= tol`` decides the rest.  That equals
counting everything and masking after, because the window mask only
ever zeroes counts.

Who builds it: :func:`repro.search.rank.build_rank_index`, and only
when the settings carry a precursor window.  Open search would visit
every chunk and count over a dense spectra × entries key space, so it
keeps the flat :class:`~repro.index.slm.SLMIndex`, which is also what
the serial oracle always uses.  Open-search settings still work here
(every chunk is reached; the interval is every rank).

Why candidates come back in **manifest-position** order: scoring
gathers fragments from the manifest-ordered sub-arena, the mapping
table translates manifest positions to global ids, and top-k breaks
ties on them — none of which should know the index re-ranked its
entries.  Mass ranks are mapped through :attr:`ChunkedIndex.positions`
and sorted ascending, so a :class:`~repro.index.slm.FilterResult`'s
``candidates`` and ``shared_peaks`` equal the flat index's array for
array.

Why the work counters fall: ``ions_scanned`` / ``buckets_scanned`` sum
over the (chunk, peak) windows of the chunks a spectrum reaches, i.e.
they count the ions actually gathered.  A windowed query gathers a few
chunks' ions instead of the rank's, so ``ions_scanned`` drops by
roughly ``chunks visited / chunks``; ``buckets_scanned`` shifts a
little either way (a window straddling two chunks walks its bucket
ranges twice; each chunk clips them at its own top bucket).
Candidates, and everything computed from them, do not move.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.index import slm
from repro.index.arena import (
    FragmentArena,
    Workspace,
    check_ion_count,
    concat_ranges,
    thread_workspace,
)
from repro.index.slm import FilterResult, SLMIndexSettings
from repro.spectra.model import Spectrum

__all__ = ["CHUNK_ENTRIES", "ChunkedIndex"]

#: Entries per chunk.  The trade: a windowed query gathers every ion of
#: each chunk its window reaches, so filtration time grows with the
#: chunk (the batch's windows are expanded in one pass whatever the
#: chunk count), while every chunk adds one bucket-offset run —
#: ~4 B per bucket of its m/z range — to the rank's memory.  It also
#: sets the ``ions_scanned`` / ``buckets_scanned`` counters the
#: virtual-time cost model charges, so changing it moves them.
CHUNK_ENTRIES = 8192

#: Bound on the ions one filtration batch gathers and on its counting
#: key space (the dominant transients: 4 B/ion of gathered ``int32``
#: parent ids, 32 MB at this default, and the per-key counts).  A batch
#: projected past either is split by spectrum; a single spectrum may
#: still exceed it.  The flat :class:`~repro.index.slm.SLMIndex`
#: gathers one spectrum at a time and needs no such bound.
FILTER_BATCH_ION_BUDGET = 1 << 23

#: Relative widening of the per-spectrum mass-rank interval, so the
#: interval (found by ``searchsorted`` on ``neutral ∓ tol``) holds every
#: entry the difference-form predicate keeps despite rounding.
_INTERVAL_SLACK = 1e-9


class ChunkedIndex:
    """A rank's partial index, precursor-major, over its sub-arena.

    Parameters
    ----------
    arena:
        The rank's sub-arena (local ids are its entry positions — the
        rank's manifest order); its ``masses`` order the entries.  The
        build quantizes it once and deletes the bucket ids and their
        order as soon as it has read them, so the rest of the build
        reuses their memory.
    settings:
        Index/query settings.
    chunk_entries:
        Entries per chunk; tests shrink it to force many chunks.
        Everything else uses :data:`CHUNK_ENTRIES`.

    Attributes
    ----------
    positions:
        ``int32``; mass rank → manifest position (the stable argsort of
        the float32 masses).  Chunk ``c`` holds mass ranks
        ``[c * chunk_entries, (c + 1) * chunk_entries)``.
    masses64:
        ``float64``; the float32 mass of each mass rank, widened
        (ascending) — the values the window predicate tests.
    ion_parents:
        ``int32`` parent mass rank of every ion, ``(chunk, bucket)``-major.
    ion_bounds:
        ``int64``, ``n_chunks + 1``; chunk ``c`` owns
        ``ion_parents[ion_bounds[c] : ion_bounds[c + 1]]``.
    bucket_offsets:
        ``int32`` flat CSR: chunk ``c``'s bucket ``b`` (``b <=
        chunk_buckets[c]``) starts at ion ``ion_bounds[c] +
        bucket_offsets[offset_bounds[c] + b]``.
    offset_bounds:
        ``int64``, ``n_chunks + 1``; where each chunk's offset run
        starts in :attr:`bucket_offsets` (each run is one longer than
        the chunk's bucket count).
    chunk_buckets:
        ``int64``; buckets per chunk (its top bucket + 1, 0 if it holds
        no ions) — the clip of every window over that chunk.
    n_ions:
        Total indexed ion entries.
    ion_counts:
        ``int64``; indexed ions per manifest position (the arena's
        ``counts``, shared, not copied).
    mass_min / mass_max:
        ``float64``; each chunk's float32 mass extrema, widened — the
        *same* rounded masses the window predicate tests, so chunk
        pruning and the predicate agree at window boundaries.
    """

    def __init__(
        self,
        arena: FragmentArena,
        settings: SLMIndexSettings,
        *,
        chunk_entries: int | None = None,
    ) -> None:
        size = CHUNK_ENTRIES if chunk_entries is None else int(chunk_entries)
        if size < 1:
            raise ConfigurationError(f"chunk_entries must be >= 1, got {size}")
        check_ion_count(arena.n_ions)
        self.settings = settings
        self.chunk_entries = size
        n = arena.n_entries
        n_chunks = -(-n // size)

        order = np.argsort(arena.masses, kind="stable")
        self.positions = order.astype(np.int32)
        self.masses64 = arena.masses[order].astype(np.float64)
        first = np.arange(0, n, size)
        self.mass_min = self.masses64[first]
        self.mass_max = self.masses64[np.minimum(first + size, n) - 1]

        # --- transient construction state (freed on return) ---------
        # The quantize's order makes the ions bucket-major; relabelling
        # parents by mass rank and sorting stably by chunk id — a radix
        # pass, chunk ids are tiny ints — regroups them (chunk,
        # bucket)-major without a second comparison sort.  The
        # bucket-major bucket ids themselves need no gather: they are
        # each bucket id repeated by its ion count.
        buckets, by_bucket = arena.quantize(settings.resolution)
        mass_rank = np.empty(n, dtype=np.int32)
        mass_rank[order] = np.arange(n, dtype=np.int32)
        ion_rank = np.repeat(mass_rank, arena.counts)[by_bucket]
        ion_chunk = (ion_rank // size).astype(np.min_scalar_type(n_chunks))
        per_bucket = np.bincount(buckets)
        # Nothing below reads them: deleting the 8 B/ion of int32
        # buckets and order before the chunk sort (int64 index +
        # scratch) lets the sort reuse that memory.
        del buckets, by_bucket
        by_chunk = np.argsort(ion_chunk, kind="stable")
        del ion_chunk
        self.ion_parents = ion_rank[by_chunk]
        del ion_rank
        ion_buckets = np.repeat(
            np.arange(per_bucket.size, dtype=np.int32), per_bucket
        )[by_chunk]
        del by_chunk, per_bucket
        self.ion_bounds = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(
            np.add.reduceat(arena.counts[order], first), out=self.ion_bounds[1:]
        )

        # Each chunk's offsets run over its own buckets only: the top
        # bucket of a (chunk, bucket)-major run is its last ion's.
        filled = np.diff(self.ion_bounds) > 0
        last = ion_buckets[self.ion_bounds[1:] - 1] if ion_buckets.size else 0
        self.chunk_buckets = np.where(filled, np.int64(1) + last, 0)
        self.offset_bounds = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(self.chunk_buckets + 1, out=self.offset_bounds[1:])
        self.bucket_offsets = np.zeros(int(self.offset_bounds[-1]), dtype=np.int32)
        for c in np.flatnonzero(filled).tolist():
            a, b = self.ion_bounds[c], self.ion_bounds[c + 1]
            o, top = self.offset_bounds[c], self.chunk_buckets[c]
            np.cumsum(
                np.bincount(ion_buckets[a:b], minlength=top),
                out=self.bucket_offsets[o + 1 : o + top + 1],
            )
        self.n_ions = int(self.ion_parents.size)
        self.ion_counts = arena.counts

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return int(self.positions.size)

    @property
    def n_chunks(self) -> int:
        """Number of chunks."""
        return int(self.chunk_buckets.size)

    # -- querying ------------------------------------------------------

    def _reached(self, neutral_masses: np.ndarray) -> np.ndarray:
        """Bool ``(spectra, chunks)``: may the chunk hold a candidate?

        Open search → all true.  Windowed → evaluated in float64 over
        the float32-rounded chunk extrema, with the *difference-form*
        predicate the candidates are tested with (``|mass - neutral|
        <= tol``).  Because float subtraction against a fixed
        ``neutral`` is monotone in ``mass``, a chunk is pruned only
        when every member's ``mass - neutral`` provably falls outside
        ``[-tol, tol]`` — so pruning can never drop an entry the flat
        index would keep, and chunked filtration stays bit-identical to
        it even exactly at window boundaries.
        """
        nm = np.asarray(neutral_masses, dtype=np.float64)[:, None]
        if self.settings.is_open_search:
            return np.ones((nm.shape[0], self.n_chunks), dtype=bool)
        tol = float(self.settings.precursor_tolerance)  # type: ignore[arg-type]
        return (self.mass_max - nm >= -tol) & (self.mass_min - nm <= tol)

    def chunks_for(self, spectrum: Spectrum) -> List[int]:
        """Chunk indices that may hold candidates for ``spectrum``."""
        return np.flatnonzero(self._reached([spectrum.neutral_mass])[0]).tolist()

    def filter(self, spectrum: Spectrum) -> FilterResult:
        """Filtration of one spectrum: a batch of one."""
        return self.filter_many([spectrum])[0]

    def filter_many(
        self,
        spectra: Sequence[Spectrum],
        *,
        workspace: Workspace | None = None,
    ) -> List[FilterResult]:
        """Batched filtration: one :class:`FilterResult` per spectrum.

        The whole batch is one array pass (see the module docstring);
        a batch projected to gather more than
        :data:`FILTER_BATCH_ION_BUDGET` ions, or to
        count over a larger key space, is split by spectrum.
        ``workspace`` supplies scratch buffers; it defaults to the
        calling thread's.
        """
        spectra = list(spectra)
        if not spectra or self.n_ions == 0:
            return [_empty_result(0) for _ in spectra]
        ws = workspace if workspace is not None else thread_workspace()
        return self._filter_batch(spectra, ws)

    def _filter_batch(
        self, batch: Sequence[Spectrum], ws: Workspace
    ) -> List[FilterResult]:
        """One bounded batch of the windowed filtration kernel."""
        nb = len(batch)
        settings = self.settings
        neutral = np.fromiter((s.neutral_mass for s in batch), np.float64, nb)
        peak_counts = np.fromiter((s.n_peaks for s in batch), np.int64, nb)
        peak_bounds = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(peak_counts, out=peak_bounds[1:])
        reached = self._reached(neutral)
        spec, chunk = np.nonzero(reached)  # spectrum-major (spectrum, chunk) pairs
        if not spec.size or not peak_bounds[-1]:
            return [_empty_result(0) for _ in batch]

        # One window per (reached pair, peak of its spectrum), in
        # spectrum-major order, clipped to the pair's chunk.
        all_mzs = np.concatenate([s.mzs for s in batch])
        lo, hi = slm.peak_windows(all_mzs, settings, int(self.chunk_buckets.max()))
        win_peak = concat_ranges(peak_bounds[spec], peak_bounds[spec + 1], workspace=ws)
        win_chunk = np.repeat(chunk, peak_counts[spec])
        top = self.chunk_buckets[win_chunk]
        lo = np.minimum(lo[win_peak], top)
        hi = np.minimum(hi[win_peak], top)
        base = self.offset_bounds[win_chunk]
        ion_base = self.ion_bounds[win_chunk]
        starts = self.bucket_offsets[base + lo] + ion_base
        stops = self.bucket_offsets[base + hi] + ion_base

        # Windows of one spectrum are contiguous, and so are its ions.
        win_bounds = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(reached.sum(axis=1) * peak_counts, out=win_bounds[1:])
        span_cum = np.zeros(hi.size + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=span_cum[1:])
        size_cum = np.zeros(hi.size + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=size_cum[1:])
        ion_bounds = size_cum[win_bounds]
        total = int(ion_bounds[-1])

        # The mass-rank run each spectrum's window can keep, widened
        # for rounding; padded to one width so a single unsigned
        # compare tests every ion (the exact predicate comes after).
        n = len(self)
        if settings.is_open_search:
            rank_lo = np.zeros(nb, dtype=np.int64)
            width = n
        else:
            tol = float(settings.precursor_tolerance)  # type: ignore[arg-type]
            slack = _INTERVAL_SLACK * (np.abs(neutral) + tol)
            rank_lo = np.searchsorted(self.masses64, neutral - tol - slack, "left")
            rank_hi = np.searchsorted(self.masses64, neutral + tol + slack, "right")
            width = int((rank_hi - rank_lo).max())
        keys = nb * width

        budget = FILTER_BATCH_ION_BUDGET
        if (total > budget or keys > budget) and nb > 1:
            # Split by spectrum at half the gathered ions (each
            # spectrum's result depends only on its own windows).
            cut = int(np.searchsorted(ion_bounds, total // 2)) if total > budget else nb // 2
            cut = min(max(cut, 1), nb - 1)
            return self._filter_batch(batch[:cut], ws) + self._filter_batch(
                batch[cut:], ws
            )

        buckets = (span_cum[win_bounds[1:]] - span_cum[win_bounds[:-1]]).tolist()
        per_spec = np.diff(ion_bounds)
        ions = per_spec.tolist()
        if not total or not width:
            return [_empty_result(b, i) for b, i in zip(buckets, ions)]

        parents = ws.take("chunks.parents", total, np.int32)
        # The gather index is in range by construction; "clip" only
        # skips the buffered copy mode="raise" pays with out=.
        np.take(
            self.ion_parents,
            concat_ranges(starts, stops, workspace=ws),
            out=parents,
            mode="clip",
        )
        rel = ws.take("chunks.rel", total, np.int32)
        np.subtract(parents, np.repeat(rank_lo.astype(np.int32), per_spec), out=rel)
        kept = np.flatnonzero(rel.view(np.uint32) < width)

        # Count the survivors over (spectrum, rank - rank_lo) keys.
        kept_spec = np.searchsorted(ion_bounds, kept, "right") - 1
        counts = np.bincount(kept_spec * width + rel[kept], minlength=keys)
        hits = np.flatnonzero(counts >= settings.shared_peak_threshold)
        hit_spec = hits // width
        hit_rank = hits - hit_spec * width + rank_lo[hit_spec]
        if not settings.is_open_search:
            inside = ~(np.abs(self.masses64[hit_rank] - neutral[hit_spec]) > tol)
            hits, hit_spec, hit_rank = hits[inside], hit_spec[inside], hit_rank[inside]
        cands = self.positions[hit_rank]
        order = np.lexsort((cands, hit_spec))
        cands = cands[order]
        shared = counts[hits[order]].astype(np.int32)
        cand_bounds = np.searchsorted(hit_spec[order], np.arange(nb + 1)).tolist()
        return [
            FilterResult(
                candidates=cands[cand_bounds[i] : cand_bounds[i + 1]],
                shared_peaks=shared[cand_bounds[i] : cand_bounds[i + 1]],
                buckets_scanned=buckets[i],
                ions_scanned=ions[i],
            )
            for i in range(nb)
        ]

    def match_bounds(
        self,
        spectra: Sequence[Spectrum],
        filtered: Sequence[FilterResult],
        *,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Upper bounds on each candidate's matched-fragment count.

        The same contract as :meth:`~repro.index.slm.SLMIndex.match_bounds`
        (one ``int64`` array over ``filtered``'s candidates laid end to
        end), answered with each candidate's fragment count: loose, but
        no candidate matches more fragments than it has.  A windowed
        search scores a handful of candidates per spectrum, so its
        gathers rarely reach the size at which the rank body prunes.
        """
        return np.concatenate(
            [np.empty(0, np.int64), *(self.ion_counts[f.candidates] for f in filtered)]
        )


def _empty_result(buckets: int, ions: int = 0) -> FilterResult:
    """No candidates, with the given work counters."""
    return FilterResult(
        candidates=np.empty(0, dtype=np.int32),
        shared_peaks=np.empty(0, dtype=np.int32),
        buckets_scanned=int(buckets),
        ions_scanned=int(ions),
    )
