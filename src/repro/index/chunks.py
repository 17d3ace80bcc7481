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
* the rank's ions — already bucket-major through the arena's cached
  sort order — are re-sorted **once**, stably, by chunk id, which makes
  them ``(chunk, bucket)``-major in one flat ``int32`` parent array,
* each chunk is an :class:`~repro.index.slm.SLMIndex` *leaf* made of
  views into those flat arrays plus its own ``int32`` bucket offsets,
  trimmed to the chunk's top bucket, and queried through the very
  kernel the flat index runs (``SLMIndex._filter_batch``).

Who builds it: :func:`repro.search.rank.build_rank_index`, and only
when the settings carry a precursor window.  Open search would visit
every chunk — all of the flat index's work plus the per-chunk
overhead — so it keeps the flat :class:`~repro.index.slm.SLMIndex`,
which is also what the serial oracle always uses.

Why candidates come back in **manifest-position** order: scoring
gathers fragments from the manifest-ordered sub-arena, the mapping
table translates manifest positions to global ids, and top-k breaks
ties on them — none of which should know the index re-ranked its
entries.  Leaf-local ids are mapped through :attr:`ChunkedIndex.positions`
and sorted ascending, so a :class:`~repro.index.slm.FilterResult`'s
``candidates`` and ``shared_peaks`` equal the flat index's array for
array.

Why the work counters fall: ``ions_scanned`` / ``buckets_scanned`` sum
over the leaves a spectrum visited, i.e. they count the ions actually
gathered.  A windowed query gathers a few chunks' ions instead of the
rank's, so ``ions_scanned`` drops by roughly ``chunks visited / chunks``;
``buckets_scanned`` shifts a little either way (a window straddling two
chunks walks its bucket ranges twice; a leaf clips them at its own top
bucket).  Candidates, and everything computed from them, do not move.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.index.arena import FragmentArena, Workspace
from repro.index.slm import (
    FILTER_BATCH_KEY_BUDGET,
    FilterResult,
    SLMIndex,
    SLMIndexSettings,
)
from repro.spectra.model import Spectrum

__all__ = ["CHUNK_ENTRIES", "ChunkedIndex"]

#: Entries per chunk.  Few large chunks: filtration time is flat from
#: 512- to 8192-entry chunks (the floor is the per-peak slice loop of
#: the leaf kernel, paid once per visited chunk, not the ions gathered),
#: while every chunk adds one bucket-offset array to the rank's memory.
CHUNK_ENTRIES = 8192


class ChunkedIndex:
    """A rank's partial index, precursor-major, over its sub-arena.

    Parameters
    ----------
    arena:
        The rank's sub-arena (local ids are its entry positions — the
        rank's manifest order).  Must carry per-entry ``masses``.  Its
        quantization caches are read once and then **dropped**
        (:meth:`~repro.index.arena.FragmentArena.drop_quantization_caches`,
        which :func:`~repro.search.rank.build_rank_index` would call on
        return anyway) so the rest of the build reuses their memory.
    settings:
        Index/query settings, shared by every leaf.
    chunk_entries:
        Entries per chunk; tests shrink it to force many chunks.
        Everything else uses :data:`CHUNK_ENTRIES`.

    Attributes
    ----------
    chunks:
        One :class:`~repro.index.slm.SLMIndex` leaf per chunk, in
        ascending mass order; leaf-local id ``j`` of chunk ``c`` is
        mass rank ``c * chunk_entries + j``.
    positions:
        ``int32``; mass rank → manifest position (the stable argsort of
        the float32 masses).
    n_ions:
        Total indexed ion entries.
    mass_min / mass_max:
        ``float64``; each chunk's float32 mass extrema, widened — the
        *same* rounded masses the leaves mask with, so chunk pruning
        and the leaf's precursor window agree at window boundaries.
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
        if arena.masses is None:
            raise ConfigurationError(
                "a chunked index needs arena masses to order its entries"
            )
        self.settings = settings
        self.chunk_entries = size
        n = arena.n_entries
        n_chunks = -(-n // size)

        order = np.argsort(arena.masses, kind="stable")
        self.positions = order.astype(np.int32)
        masses = arena.masses[order]
        first = np.arange(0, n, size)
        self.mass_min = masses[first].astype(np.float64)
        self.mass_max = masses[np.minimum(first + size, n) - 1].astype(np.float64)

        # --- transient construction state (freed on return) ---------
        # The arena's (derived, cached) order makes the ions
        # bucket-major; relabelling parents by mass rank and sorting
        # stably by chunk id — a radix pass, chunk ids are tiny ints —
        # regroups them (chunk, bucket)-major without a second
        # comparison sort.  The bucket-major bucket ids themselves need
        # no gather: they are each bucket id repeated by its ion count.
        resolution = settings.resolution
        mass_rank = np.empty(n, dtype=np.int32)
        mass_rank[order] = np.arange(n, dtype=np.int32)
        ion_rank = np.repeat(mass_rank, arena.counts)[
            arena.sort_order_for(resolution)
        ]
        ion_chunk = (ion_rank // size).astype(np.min_scalar_type(n_chunks))
        per_bucket = np.bincount(arena.buckets_for(resolution))
        # Nothing below reads the caches, and the chunk sort (index +
        # scratch, 16 B/ion) fits exactly in what they free: a worker's
        # heap keeps the peak ``take`` left it at.
        arena.drop_quantization_caches()
        by_chunk = np.argsort(ion_chunk, kind="stable")
        del ion_chunk
        ion_parents = ion_rank[by_chunk]
        ion_parents %= size
        del ion_rank
        ion_buckets = np.repeat(
            np.arange(per_bucket.size, dtype=np.int32), per_bucket
        )[by_chunk]
        del by_chunk, per_bucket
        ion_bounds = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(np.add.reduceat(arena.counts[order], first), out=ion_bounds[1:])

        self.chunks: List[SLMIndex] = []
        for c in range(n_chunks):
            a, b = int(ion_bounds[c]), int(ion_bounds[c + 1])
            n_buckets = int(ion_buckets[b - 1]) + 1 if b > a else 0
            offsets = np.zeros(n_buckets + 1, dtype=np.int32)
            if n_buckets:
                np.cumsum(
                    np.bincount(ion_buckets[a:b], minlength=n_buckets),
                    out=offsets[1:],
                )
            self.chunks.append(
                SLMIndex.from_sorted_arrays(
                    settings,
                    masses[c * size : (c + 1) * size],
                    ion_parents[a:b],
                    offsets,
                )
            )
        self.n_ions = int(ion_parents.size)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return int(self.positions.size)

    @property
    def n_chunks(self) -> int:
        """Number of chunks."""
        return len(self.chunks)

    # -- querying ------------------------------------------------------

    def _reached(self, neutral_masses: np.ndarray) -> np.ndarray:
        """Bool ``(spectra, chunks)``: may the chunk hold a candidate?

        Open search → all true.  Windowed → evaluated in float64 over
        the float32-rounded chunk extrema, with the *difference-form*
        predicate the leaf filter uses (``|mass - neutral| <= tol``).
        Because float subtraction against a fixed ``neutral`` is
        monotone in ``mass``, a chunk is pruned only when every
        member's ``mass - neutral`` provably falls outside
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
        max_batch_keys: int = FILTER_BATCH_KEY_BUDGET,
        workspace: Workspace | None = None,
    ) -> List[FilterResult]:
        """Batched filtration: one :class:`FilterResult` per spectrum.

        Spectra are grouped by the chunks their precursor windows
        reach, each reached leaf runs the cross-spectrum batched kernel
        over its group, and each spectrum's per-leaf parts are mapped
        to manifest positions and sorted ascending — the flat index's
        order.  ``max_batch_keys`` / ``workspace`` are handed to the
        leaves (see :meth:`SLMIndex.filter_many`).
        """
        spectra = list(spectra)
        reached = self._reached([s.neutral_mass for s in spectra])
        cand_parts: List[List[np.ndarray]] = [[] for _ in spectra]
        count_parts: List[List[np.ndarray]] = [[] for _ in spectra]
        buckets = [0] * len(spectra)
        ions = [0] * len(spectra)
        for c in np.flatnonzero(reached.any(axis=0)).tolist():
            group = np.flatnonzero(reached[:, c]).tolist()
            leaf_results = self.chunks[c].filter_many(
                [spectra[si] for si in group],
                max_batch_keys=max_batch_keys,
                workspace=workspace,
            )
            first = c * self.chunk_entries
            for si, res in zip(group, leaf_results):
                buckets[si] += res.buckets_scanned
                ions[si] += res.ions_scanned
                if res.candidates.size:
                    cand_parts[si].append(self.positions[first + res.candidates])
                    count_parts[si].append(res.shared_peaks)
        return [
            _assemble(cand_parts[si], count_parts[si], buckets[si], ions[si])
            for si in range(len(spectra))
        ]


def _assemble(
    cand_parts: List[np.ndarray],
    count_parts: List[np.ndarray],
    buckets: int,
    ions: int,
) -> FilterResult:
    """Merge one spectrum's per-leaf parts into manifest-position order."""
    if cand_parts:
        candidates = np.concatenate(cand_parts)
        shared = np.concatenate(count_parts)
        order = np.argsort(candidates)
        candidates, shared = candidates[order], shared[order]
    else:
        candidates = np.empty(0, dtype=np.int32)
        shared = np.empty(0, dtype=np.int32)
    return FilterResult(
        candidates=candidates,
        shared_peaks=shared,
        buckets_scanned=buckets,
        ions_scanned=ions,
    )
