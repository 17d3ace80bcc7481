"""Flat CSR fragment arena: the hot-path data layout.

The filtration/scoring kernels used to walk Python lists of small
per-peptide numpy arrays; at millions of entries the interpreter loop
and the per-array allocations dominate wall-clock time.  Following the
HiCOPS design (flat, cache-friendly arrays instead of per-peptide
objects), the arena stores one fragmentation setting's worth of
theoretical fragments for an entire entry set as a single immutable
CSR structure:

* ``mzs`` — one flat ``float64`` array holding every entry's fragment
  m/z values, entry-major, each entry's slice sorted ascending (the
  order :func:`~repro.chem.fragments.fragment_mzs` emits).
  :meth:`FragmentArena.from_peptides` writes it straight from the
  batched kernel :func:`~repro.chem.fragments.fragment_mzs_batch`:
  offsets come from the residue counts alone, then each block of
  entries fills its slice in place, so no per-entry array is
  allocated and scratch stays at one block,
* ``offsets`` — ``int64``, length ``n_entries + 1``; entry ``i`` owns
  ``mzs[offsets[i] : offsets[i + 1]]``,
* parallel per-entry metadata, always present: ``lengths`` (residue
  counts, the scoring cost basis) and ``masses`` (float32 neutral
  masses, the precursor-filter input).

The arena holds nothing that depends on a resolution.  An index build
calls :meth:`FragmentArena.quantize` once: the ``int32`` bucket ids
``floor(mz / r)`` and their ``int32`` bucket-major sort order
(:func:`bucket_major_order`), 8 B/ion together, live only as that
build's locals.  ``int32`` positions and bucket ids bound an arena
below 2^31 ions (SLM-Transform's own 2G-ion limit) and its top bucket
below 2^31; both bounds raise :class:`~repro.errors.ConfigurationError`
rather than wrap.

Consumers:

* :class:`~repro.index.slm.SLMIndex` and
  :class:`~repro.index.chunks.ChunkedIndex` take one arena as their
  only input and build their CSR structures from one
  :meth:`FragmentArena.quantize` of it,
* :func:`~repro.search.scoring.score_candidates` gathers all candidate
  fragments with one vectorized range concatenation,
* every rank builds its index over a :meth:`FragmentArena.take`
  sub-arena and scores from an :class:`ArenaView` of the arena.

The arena is exactly the concatenation of each entry's
:func:`~repro.chem.fragments.fragment_mzs` array, so downstream float
arithmetic sees the same operand sequences as a per-entry layout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from repro.chem.fragments import FragmentationSettings, fragment_mzs_batch
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.chem.peptide import Peptide

__all__ = [
    "INT32_LIMIT",
    "ArenaView",
    "FragmentArena",
    "Workspace",
    "bucket_major_order",
    "check_ion_count",
    "concat_ranges",
    "segment_kth",
    "thread_workspace",
]

#: Exclusive bound of every ``int32`` ion position and bucket id.
INT32_LIMIT = 1 << 31

#: Ions quantized per block by :meth:`FragmentArena.buckets_for`, so its
#: float64 scratch is one block (512 KB), never ``n_ions`` wide; also
#: the block in which :func:`bucket_major_order` packs keys.
_QUANTIZE_BLOCK = 1 << 16


def check_ion_count(n_ions: int) -> None:
    """Raise :class:`ConfigurationError` unless ``n_ions`` ions fit ``int32`` positions."""
    if n_ions >= INT32_LIMIT:
        raise ConfigurationError(
            f"{n_ions} ions reach the int32 ion limit ({INT32_LIMIT}); "
            "split the database into smaller arenas"
        )


class Workspace:
    """Growable named scratch buffers for per-query kernels.

    The filtration/scoring hot loops need a handful of temporary
    arrays per spectrum (gather indices, credit vectors, prefix sums).
    Allocating them per call is measurable at volume; a workspace hands
    out views into persistent buffers that grow to the largest request
    (at least 1024 slots) and are reused across calls.  Growth is exact,
    not geometric: the kernels size their requests to a bounded block,
    so a request just past a buffer's size must not double it for the
    rest of the process.

    A view returned by :meth:`take` is valid only until the next
    :meth:`take` with the same name — callers must consume it before
    re-entering the kernel.  Workspaces are not thread-safe; use
    :func:`thread_workspace` for one per thread.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, str], np.ndarray] = {}

    def _grow(self, name: str, size: int, dtype, factory) -> np.ndarray:
        """Length-``size`` view of the named buffer, grown to ``size``.

        ``factory(length, dtype=...)`` builds a replacement buffer when
        the cached one is absent or too small.
        """
        dt = np.dtype(dtype)
        key = (name, dt.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = factory(max(size, 1024), dtype=dt)
            self._buffers[key] = buf
        return buf[:size]

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """Return an uninitialized length-``size`` view named ``name``."""
        return self._grow(name, size, dtype, np.empty)

    def zeros(self, name: str, size: int, dtype) -> np.ndarray:
        """Length-``size`` view of a buffer that is all zero when grown.

        For sparse scatter tables (mark a few entries, read, unmark):
        the caller resets exactly the entries it touched before the
        next ``zeros`` call with the same name, so the O(size) clear is
        paid once per growth instead of once per use.
        """
        return self._grow(name, size, dtype, np.zeros)

    def iota(self, size: int, dtype=np.int64) -> np.ndarray:
        """Read-only-by-convention view of ``[0, 1, ..., size - 1]``.

        Backed by a growable cached ``arange``: a prefix slice of a
        longer ascending run is still the ascending run, so growth
        never invalidates values and repeated kernel calls skip the
        O(n) sequence write.  Callers must not mutate the view.
        """
        return self._grow("__iota__", size, dtype, np.arange)


_tls = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's shared :class:`Workspace` (created lazily).

    A :class:`Workspace` is not thread-safe, and one process may enter
    the kernels from several threads at once (a library caller's
    threads, or caller threads beside the search service's pipeline
    thread), so kernel scratch stays thread-local; within a thread all
    indexes/scorers share one workspace (buffers grow to the largest
    request and stay warm).
    """
    ws = getattr(_tls, "workspace", None)
    if ws is None:
        ws = _tls.workspace = Workspace()
    return ws


def concat_ranges(
    starts: np.ndarray,
    stops: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Concatenate integer ranges ``[starts[i], stops[i])`` — vectorized.

    Equivalent to ``np.concatenate([np.arange(a, b) for a, b in
    zip(starts, stops)])`` without the Python loop.  Built branch-free:
    position ``j`` of the output, falling in segment ``s``, equals
    ``(starts[s] - prefix[s]) + j`` where ``prefix`` is the exclusive
    prefix sum of the segment spans — so one ``repeat`` of the
    per-segment bases plus one ascending-iota add produce the whole
    index array.  The only cumulative sum left runs over the
    *segments*, not the output elements; dropping the element-wise
    serial cumsum dependency measures 1.2–3.7× faster across
    scoring-gather shapes (hundreds of candidate segments × tens of
    fragments each) and filtration windows alike.

    Empty ranges (``stops[i] <= starts[i]``) contribute nothing.

    The result is always a freshly allocated ``int64`` array (safe to
    keep across calls).  ``workspace`` supplies the cached ascending
    iota so repeated calls skip the O(n) sequence write.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    spans = stops - starts
    nonempty = spans > 0
    if not nonempty.all():
        starts, spans = starts[nonempty], spans[nonempty]
    total = int(spans.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.zeros(starts.size, dtype=np.int64)
    if starts.size > 1:
        np.cumsum(spans[:-1], out=prefix[1:])
    out = np.repeat(starts - prefix, spans)
    if workspace is not None:
        out += workspace.iota(total)
    else:
        out += np.arange(total, dtype=np.int64)
    return out


#: Cell budget of one NaN-padded :func:`segment_kth` matrix (64 MB).
_KTH_BUDGET = 1 << 23


def segment_kth(values: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th smallest value of each segment longer than ``k``; NaN elsewhere.

    Segment ``i`` is ``values[offsets[i]:offsets[i + 1]]`` and NaN ranks
    after every number, as in ``np.sort``.  Long segments are padded
    with NaN into matrices of at most ``_KTH_BUDGET`` cells, grouped by
    ascending width so one huge segment cannot widen the others, and
    each matrix is one axis-1 ``np.partition``.
    """
    sizes = np.diff(offsets)
    out = np.full(sizes.size, np.nan)
    rows = np.flatnonzero(sizes > k)
    rows = rows[np.argsort(sizes[rows], kind="stable")]
    while rows.size:
        widths = sizes[rows]
        cells = np.arange(1, rows.size + 1) * widths
        m = max(1, int(np.searchsorted(cells, _KTH_BUDGET, side="right")))
        chunk, widths = rows[:m], widths[:m]
        pad = np.full((m, int(widths[-1])), np.nan)
        starts = offsets[chunk]
        pad[np.repeat(np.arange(m), widths), concat_ranges(np.zeros(m), widths)] = values[
            concat_ranges(starts, starts + widths)
        ]
        out[chunk] = np.partition(pad, k - 1, axis=1)[:, k - 1]
        rows = rows[m:]
    return out


def bucket_major_order(buckets: np.ndarray) -> np.ndarray:
    """Stable bucket-major ``int32`` sort order of the ``int32`` ``buckets``.

    The order is one in-place sort of packed ``int64`` keys
    ``(bucket << 32) | position``, not a stable argsort.  Positions are
    below 2^31 (:func:`check_ion_count`), so the low 32 bits never carry
    into the bucket, and signed key order is bucket order first —
    negative buckets included — then position order.  The keys are
    unique, so *any* correct sort, numpy's unstable SIMD one included,
    yields the single order a stable argsort gives; ``key & 0xFFFFFFFF``
    is then the position.  The keys are built in
    :data:`_QUANTIZE_BLOCK` blocks, so the peak is the ``int64`` keys
    plus the ``int32`` result (12 B/ion), as it was for the stable
    argsort's ``int64`` result and its ``int32`` copy.
    """
    n = buckets.size
    keys = np.empty(n, dtype=np.int64)
    positions = np.arange(min(n, _QUANTIZE_BLOCK), dtype=np.int64)
    for a in range(0, n, _QUANTIZE_BLOCK):
        block = keys[a : a + positions.size]
        block[...] = buckets[a : a + block.size]
        block <<= 32
        block |= positions[: block.size]
        positions += positions.size
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys.astype(np.int32)


class FragmentArena:
    """Immutable CSR layout of an entry set's theoretical fragments.

    Parameters
    ----------
    mzs:
        Flat float64 fragment m/z array, entry-major.
    offsets:
        int64 CSR offsets, length ``n_entries + 1``.
    lengths:
        int64 residue count per entry.
    masses:
        float32 neutral mass per entry.
    """

    __slots__ = (
        "mzs",
        "offsets",
        "lengths",
        "masses",
        "_counts",
        "__weakref__",
    )

    def __init__(
        self,
        mzs: np.ndarray,
        offsets: np.ndarray,
        *,
        lengths: np.ndarray,
        masses: np.ndarray,
    ) -> None:
        mzs = np.asarray(mzs, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 1 or int(offsets[0]) != 0:
            raise ConfigurationError("arena offsets must be 1-D and start at 0")
        if int(offsets[-1]) != mzs.size:
            raise ConfigurationError(
                f"arena offsets end at {int(offsets[-1])} but mzs holds {mzs.size}"
            )
        check_ion_count(mzs.size)
        n = offsets.size - 1
        if len(lengths) != n:
            raise ConfigurationError(f"{len(lengths)} lengths for {n} entries")
        if len(masses) != n:
            raise ConfigurationError(f"{len(masses)} masses for {n} entries")
        self.mzs = mzs
        self.offsets = offsets
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=np.float32)
        self._counts: np.ndarray | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_peptides(
        cls,
        peptides: Sequence[Peptide],
        fragmentation: FragmentationSettings = FragmentationSettings(),
    ) -> "FragmentArena":
        """Generate the fragments of ``peptides`` straight into CSR form."""
        mzs, offsets = fragment_mzs_batch(
            [p.sequence for p in peptides], [p.mods for p in peptides], fragmentation
        )
        return cls(
            mzs,
            offsets,
            lengths=np.fromiter(
                (p.length for p in peptides), dtype=np.int64, count=len(peptides)
            ),
            masses=np.array([p.mass for p in peptides], dtype=np.float32),
        )

    # -- introspection --------------------------------------------------

    @property
    def n_entries(self) -> int:
        """Number of entries the arena covers."""
        return self.offsets.size - 1

    @property
    def n_ions(self) -> int:
        """Total fragments stored."""
        return self.mzs.size

    @property
    def counts(self) -> np.ndarray:
        """Fragments per entry (int64, length ``n_entries``); cached."""
        if self._counts is None:
            self._counts = np.diff(self.offsets)
        return self._counts

    @property
    def nbytes(self) -> int:
        """Resident bytes: the flat arrays and per-entry metadata."""
        return (
            self.mzs.nbytes
            + self.offsets.nbytes
            + self.lengths.nbytes
            + self.masses.nbytes
        )

    # -- quantization ---------------------------------------------------

    def buckets_for(self, resolution: float) -> np.ndarray:
        """Flat ``int32`` ``floor(mz / resolution)`` array of the arena's ions.

        Uses the same ``mz * (1 / r)`` arithmetic as the original
        per-peptide quantization, so bucket ids are bit-identical.  The
        ions are quantized in blocks of :data:`_QUANTIZE_BLOCK` straight
        into the ``int32`` result.  A top bucket at or above 2^31 (a tiny
        ``resolution`` or a huge m/z) raises
        :class:`~repro.errors.ConfigurationError` instead of wrapping.
        """
        inv_r = 1.0 / resolution
        n = self.n_ions
        # floor(x * inv_r) is monotone in x, so the top bucket is the
        # top m/z's.
        if n and np.floor(self.mzs.max() * inv_r) >= INT32_LIMIT:
            raise ConfigurationError(
                f"m/z {float(self.mzs.max())} at resolution {resolution} "
                f"reaches bucket id 2^31; use a coarser resolution"
            )
        buckets = np.empty(n, dtype=np.int32)
        scratch = np.empty(min(n, _QUANTIZE_BLOCK), dtype=np.float64)
        for a in range(0, n, _QUANTIZE_BLOCK):
            block = scratch[: min(n - a, _QUANTIZE_BLOCK)]
            np.multiply(self.mzs[a : a + block.size], inv_r, out=block)
            np.floor(block, out=block)
            buckets[a : a + block.size] = block
        return buckets

    def quantize(self, resolution: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(buckets, order)``: :meth:`buckets_for` and its :func:`bucket_major_order`.

        The one quantization step of an index build, computed afresh on
        every call and kept by nobody but the caller: an index build
        holds both as locals, so the arena never carries them.  A rank
        quantizes its own :meth:`take` sub-arena, so its build scales
        with its slice, not with the master.
        """
        buckets = self.buckets_for(resolution)
        return buckets, bucket_major_order(buckets)

    # -- selection ------------------------------------------------------

    def take(self, entry_ids: np.ndarray) -> "FragmentArena":
        """Sub-arena of ``entry_ids`` (in the given order), one gather.

        Per-entry metadata travels along; the sub-arena's index build
        quantizes and sorts its own ions.
        """
        ids = np.asarray(entry_ids, dtype=np.int64)
        starts = self.offsets[ids]
        stops = self.offsets[ids + 1]
        new_offsets = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=new_offsets[1:])
        idx = concat_ranges(starts, stops)
        return FragmentArena(
            self.mzs[idx],
            new_offsets,
            lengths=self.lengths[ids],
            masses=self.masses[ids],
        )

    def gather_flat(
        self, entry_ids: np.ndarray, *, workspace: Workspace | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat_mzs, sizes)`` over ``entry_ids`` — the scoring gather.

        ``flat_mzs`` is the concatenation of each id's fragment slice
        (duplicate ids allowed); ``sizes`` the per-id fragment counts.
        With ``workspace`` the flat array is a scratch view.
        """
        whole = ArenaView(self.mzs, self.offsets[:-1], self.counts, self.lengths)
        return whole.gather_flat(entry_ids, workspace=workspace)


@dataclass(frozen=True, slots=True)
class ArenaView:
    """Entries of an arena read in place: a rank's scoring input.

    Entry ``i`` owns ``mzs[starts[i] : starts[i] + counts[i]]`` of the
    arena's own m/z array, so no m/z is copied: a worker scores from the
    store map its attach built from.  ``counts`` and ``lengths`` are the
    rank's per-entry arrays, shared with its index build's sub-arena.
    The view offers what the rank body reads of a :class:`FragmentArena`.
    """

    mzs: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray

    @property
    def n_entries(self) -> int:
        """Number of entries the view covers."""
        return self.starts.size

    @property
    def n_ions(self) -> int:
        """Fragments of the viewed entries."""
        return int(self.counts.sum())

    def gather_flat(
        self, entry_ids: np.ndarray, *, workspace: Workspace | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`FragmentArena.gather_flat` over the view's own entry ids."""
        ids = np.asarray(entry_ids, dtype=np.int64)
        starts = self.starts[ids]
        sizes = self.counts[ids]
        idx = concat_ranges(starts, starts + sizes, workspace=workspace)
        if workspace is not None:
            flat = workspace.take("arena.gather.mzs", idx.size, np.float64)
            # idx comes from the offsets, so it is in range; "clip"
            # only skips the buffered copy mode="raise" pays with out=.
            np.take(self.mzs, idx, out=flat, mode="clip")
        else:
            flat = self.mzs[idx]
        return flat, sizes
