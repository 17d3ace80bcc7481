"""Index memory accounting (paper Fig. 5 and Section V-B).

Fig. 5 compares the memory footprint of the shared-memory SLM index
against the LBE-distributed version for index sizes up to ~50 M
entries.  We reproduce it with a byte-accurate *structural* model of
the C++ original's layout, cross-validated (in tests) against the
``nbytes`` of our own numpy structures:

* ion entries: 4 bytes each (int32 parent id) — matches the original's
  "2 billion ions = 8 GB" remark (Section III-D),
* bucket-offset array: ``(max_mz / r + 1) * 8`` bytes **per index
  instance** — this is the term that is *replicated on every rank* in
  the distributed version and therefore shrinks in relative terms as
  partitions grow ("the extra memory overhead varies inversely with
  the size of data partition per MPI CPU", Section V-B),
* peptide table: sequence bytes + float32 mass + int32 bookkeeping per
  entry,
* master mapping table: one int32 per entry (distributed only),
* transient build overhead: the bucket-major sort holds the unsorted
  flat bucket/parent arrays alongside the final ones → 2× ion bytes
  during build (eliminated when internal chunking is enabled, because
  chunks are built one at a time),
* with internal chunking, a distributed rank holds what
  :class:`~repro.index.chunks.ChunkedIndex` holds: one **int32**
  bucket-offset array *per chunk* (4 bytes a bucket, charged at the
  full bucket extent — an upper bound, since each chunk's array stops
  at its own top bucket) and an int32 position map (mass rank →
  manifest position), one entry per indexed entry.

Separately from the C++-layout terms above (which drop fragment m/z
values after quantization), our reproduction retains a host-side
**fragment arena** (:mod:`repro.index.arena`): one flat float64 m/z
array plus int64 CSR offsets, shared by every engine over a database.
The ``int32`` bucket array and ``int32`` bucket-major sort order
(4 B/ion each) of a resolution exist only inside an index build, as
its locals (:meth:`~repro.index.arena.FragmentArena.quantize`), over
the arena that build indexes: the whole database for the serial
engine, a rank's own sub-arena otherwise.  It replaces
the old per-peptide list-of-arrays fragment cache — same payload
bytes, but without the ~56-byte-per-entry numpy object headers and the
list slots.  :meth:`IndexMemoryModel.arena_bytes` models it and
:meth:`IndexMemoryModel.measure_arena` checks the model against a live
arena; it is *not* part of the Fig. 5 comparison, which models the
original's layout.

Shared-arena (multi-process) memory model
-----------------------------------------
Under the real-process backend (:mod:`repro.parallel`) the arena is
spilled once to a
:class:`~repro.parallel.shared_arena.SharedArenaStore` and every
worker reopens it with read-only ``np.memmap``:

* the spilled flat arrays exist as **one physical copy** machine-wide
  — the OS page cache backs every worker's mapping, so the arena term
  does *not* multiply by the worker count the way pickled-per-worker
  clones would,
* a worker's page-cache **residency** is only the pages it touches:
  its index build and its scoring read just its manifest's slices, so
  cold pages of other ranks' entries never fault in,
* each worker's *private* (unique) bytes are its partial index and its
  per-entry arrays, exactly the distributed per-rank share
  :meth:`IndexMemoryModel.distributed` models: it scores from an
  :class:`~repro.index.arena.ArenaView` of the store's ``mzs.npy`` map,
  and its build's :meth:`~repro.index.arena.FragmentArena.take`
  sub-arena is a transient.

The spilled copy is 8 B/ion, the float64 m/z alone, since the arena
holds nothing else per ion: each worker quantizes and sorts its own
sub-arena while it builds, so those transients (4 + 4 B/ion, plus the
sort's ``int64`` keys) scale with its slice, and the master never
computes them for a session.  System-wide under the process backend:
``arena_bytes`` (the shared copy, counted once) + the per-rank index
terms.  The master holds no private arena: once it has spilled the
arena it built, its database keeps the store's read-only map in place
of the heap copy, and pages of that map are resident only where it
reads them.
An index archive (:meth:`repro.search.database.IndexedDatabase.save`)
*is* such a store, so a session started from one maps the same
8 B/ion from the archive directory instead of a tmpdir.  Its workers
keep that map for the whole session, as a respawn already assumed, so
an archive's files are never rewritten in place under a live session.

Service residency (persistent sessions)
---------------------------------------
The persistent service (:mod:`repro.service`) changes *durations*,
not *terms*:

* the **arena spill is shared machine-wide and refcounted**: every
  engine and service session over one database holds the same
  :class:`~repro.parallel.shared_arena.SharedSpill` handle (one
  tmpdir, one physical page-cache copy), removed when the last holder
  is garbage-collected — N concurrent sessions still count
  ``arena_bytes`` once,
* each worker's **private bytes are unchanged** at O(arena/n_workers)
  — its partial index, beside its share of the store's m/z map — but
  now resident for the whole session instead of being rebuilt per run,
* **query batches** add a per-session term: one
  :class:`~repro.spectra.packed.PackedSpectra` per in-flight batch
  (~16 B × batch peaks), held by the master until the round is
  collected and by each worker for the round — steady-state spectra
  residency is two batches on the master, one per worker, not the
  stream, and nothing on disk,
* **query scratch** does not grow with the batch: flat filtration
  gathers one spectrum at a time into a reused per-thread buffer of
  4 B/ion of the largest single spectrum's gather, and windowed
  filtration gathers one block of whole spectra at a time (at most
  :data:`~repro.index.chunks.FILTER_BATCH_ION_BUDGET` ions unless one
  spectrum gathers more): 12 B/ion of a block kept per thread, and at
  most 8 B/ion more while the block is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.index import chunks

__all__ = ["MemoryBreakdown", "IndexMemoryModel"]

_GB = 1024.0**3


@dataclass(frozen=True, slots=True)
class MemoryBreakdown:
    """Byte counts of one index configuration.

    All values in bytes; convenience properties express GB.
    """

    ion_bytes: int
    offsets_bytes: int
    peptide_bytes: int
    mapping_bytes: int
    transient_bytes: int

    @property
    def steady_bytes(self) -> int:
        """Bytes resident after construction completes."""
        return self.ion_bytes + self.offsets_bytes + self.peptide_bytes + self.mapping_bytes

    @property
    def peak_bytes(self) -> int:
        """Peak bytes during construction (steady + transient)."""
        return self.steady_bytes + self.transient_bytes

    @property
    def steady_gb(self) -> float:
        """Steady-state footprint in GB."""
        return self.steady_bytes / _GB

    @property
    def peak_gb(self) -> float:
        """Peak (construction-time) footprint in GB."""
        return self.peak_bytes / _GB


@dataclass(frozen=True, slots=True)
class IndexMemoryModel:
    """Structural memory model of the SLM index.

    Attributes
    ----------
    ions_per_entry:
        Average indexed ions per entry (peptide/spectrum).  At mean
        tryptic length ~17 a peptide has 16 cleavage sites, so b+y
        series at 1+ only give ~2*(17-1) = 32 ions; the default 64
        models the SLM-Transform C++ original, which indexes 1+ *and*
        2+ fragments (2 series x 2 charge states x 16 sites).  With
        the other defaults the model lands at ~0.27 GB / M entries
        steady-state — the tests accept it within +-0.1 GB of the
        paper's reported 0.346 GB / M-spectra shared-memory figure
        (the original's bookkeeping carries terms this structural
        model omits).
    bytes_per_ion:
        Ion entry width (original: 4).
    mean_sequence_length:
        Average residues per peptide (sequence storage).
    peptide_overhead_bytes:
        Fixed per-entry table bytes (mass + offsets bookkeeping).
    max_mz / resolution:
        Bucket-offset array extent: ``max_mz / resolution`` buckets of
        8 bytes, replicated per index instance.
    """

    ions_per_entry: float = 64.0
    bytes_per_ion: int = 4
    mean_sequence_length: float = 17.0
    peptide_overhead_bytes: int = 12
    max_mz: float = 5000.0
    resolution: float = 0.01

    def __post_init__(self) -> None:
        if self.ions_per_entry <= 0 or self.bytes_per_ion <= 0:
            raise ConfigurationError("ion parameters must be positive")
        if self.resolution <= 0 or self.max_mz <= 0:
            raise ConfigurationError("bucket parameters must be positive")

    @property
    def n_buckets(self) -> int:
        """Buckets in one offset array."""
        return int(self.max_mz / self.resolution) + 1

    def shared(self, n_entries: int, *, internal_chunking: bool = False) -> MemoryBreakdown:
        """Footprint of the shared-memory index over ``n_entries``."""
        ion = int(n_entries * self.ions_per_entry * self.bytes_per_ion)
        offsets = self.n_buckets * 8
        peptide = int(
            n_entries * (self.mean_sequence_length + self.peptide_overhead_bytes)
        )
        transient = 0 if internal_chunking else ion
        return MemoryBreakdown(
            ion_bytes=ion,
            offsets_bytes=offsets,
            peptide_bytes=peptide,
            mapping_bytes=0,
            transient_bytes=transient,
        )

    def distributed(
        self,
        n_entries: int,
        n_ranks: int,
        *,
        internal_chunking: bool = False,
    ) -> MemoryBreakdown:
        """System-wide footprint of the LBE-distributed index.

        Per rank: its ~``n_entries / n_ranks`` share of ion entries and
        peptide table plus a full bucket-offset array.  Master adds the
        mapping table (one int32 per entry).  The transient build
        overhead applies per rank but concurrently across the system,
        so system-wide it is still 1× the (distributed) ion bytes.

        With ``internal_chunking`` every rank holds a
        :class:`~repro.index.chunks.ChunkedIndex` instead: an int32
        offset array per chunk of
        :data:`~repro.index.chunks.CHUNK_ENTRIES` entries, and its
        position map, counted with the mapping bytes.
        """
        if n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
        ion = int(n_entries * self.ions_per_entry * self.bytes_per_ion)
        peptide = int(
            n_entries * (self.mean_sequence_length + self.peptide_overhead_bytes)
        )
        mapping = 4 * n_entries
        if internal_chunking:
            per_rank = math.ceil(n_entries / n_ranks)
            chunks_per_rank = math.ceil(per_rank / chunks.CHUNK_ENTRIES)
            offsets = self.n_buckets * 4 * chunks_per_rank * n_ranks
            mapping += 4 * n_entries
            transient = 0
        else:
            offsets = self.n_buckets * 8 * n_ranks
            transient = ion
        return MemoryBreakdown(
            ion_bytes=ion,
            offsets_bytes=offsets,
            peptide_bytes=peptide,
            mapping_bytes=mapping,
            transient_bytes=transient,
        )

    def arena_bytes(self, n_entries: int) -> int:
        """Host-side fragment-arena bytes over ``n_entries``.

        Flat float64 m/z (8 B/ion) + int64 CSR offsets (8 B/entry + 8),
        both of which a spill writes too.  This models **one** arena;
        an index build over it adds transient int32 bucket ids and sort
        order (4 + 4 B/ion) while it runs.  A distributed rank's build
        also gathers its slice's m/z as a transient, but the rank scores
        from a view of this arena, so the system-wide total is this.

        Under the process backend this figure is also the memmap-shared
        store: one physical copy machine-wide however many workers map
        it, resident only to the extent pages are touched (see the
        module docstring's shared-arena model).  No worker adds an
        m/z term of its own.
        """
        n_ions = n_entries * self.ions_per_entry
        return int(8.0 * n_ions + 8 * (n_entries + 1))

    def measure_arena(self, arena) -> int:  # noqa: ANN001
        """Resident bytes of a live :class:`~repro.index.arena.FragmentArena`.

        Used by tests to confirm :meth:`arena_bytes` tracks reality for
        the flat-array terms (per-entry metadata adds a few bytes the
        structural model ignores).
        """
        return int(arena.nbytes)

    def gb_per_million(self, n_entries: int, n_ranks: int | None = None) -> float:
        """GB per million entries (the paper's summary metric)."""
        if n_ranks is None:
            bd = self.shared(n_entries)
        else:
            bd = self.distributed(n_entries, n_ranks)
        return bd.steady_gb / (n_entries / 1e6)

    def measure_actual(self, index, peptides) -> MemoryBreakdown:  # noqa: ANN001
        """Byte counts of a live :class:`~repro.index.slm.SLMIndex`.

        ``peptides`` is the entry table beside the index (its sequences
        count toward the peptide bytes).

        Used by tests to confirm the structural model tracks reality
        (the live index's int32 offsets and float32 masses differ from
        the C++ layout's terms; the test asserts proportionality, not
        equality).
        """
        ion = int(index.ion_parents.nbytes)
        offsets = int(index.bucket_offsets.nbytes)
        peptide = int(
            sum(len(p.sequence) for p in peptides) + index.masses.nbytes
        )
        return MemoryBreakdown(
            ion_bytes=ion,
            offsets_bytes=offsets,
            peptide_bytes=peptide,
            mapping_bytes=0,
            transient_bytes=ion,
        )
