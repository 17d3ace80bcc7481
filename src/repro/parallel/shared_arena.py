"""Spill a fragment arena to disk; reopen it memmap-shared anywhere.

The communication-lower-bounds argument for parallel database search
(arXiv:2009.14123) says the database should stay *resident and shared*
rather than be copied per worker; HiCOPS realizes that on flat arrays.
:class:`SharedArenaStore` is our equivalent for the
:class:`~repro.index.arena.FragmentArena`:

* :meth:`SharedArenaStore.spill` writes the arena's four flat arrays —
  ``mzs``, ``offsets``, ``lengths``, ``masses`` — each as its own
  **uncompressed** ``.npy`` file under one directory, with a small JSON
  manifest binding them together.  That is 8 B/ion on disk, the m/z
  alone: the arena holds no bucket ids or sort order to write, and
  every rank quantizes and sorts its own sub-arena, so its build scales
  with its slice,
* :meth:`SharedArenaStore.load` reopens those four arrays with
  ``np.load(..., mmap_mode="r")`` and rebuilds a read-only
  :class:`~repro.index.arena.FragmentArena` around the maps — O(metadata)
  per process, no data copied.  Every file's dtype and length are
  checked against the manifest, so a torn, short, retyped or
  older-format store raises :class:`~repro.errors.FormatError`.  An
  older store's bucket and order files, which its manifest still
  names, are left unmapped.

Memory model: however many worker processes ``load()`` the same store,
the OS page cache holds **one** physical copy of the fragment data;
each worker's private (unique) footprint is its partial index: it keeps
the ``mzs.npy`` map to score from, and its build's ``take`` sub-arena
is a transient.  Pages of the shared copy fault in lazily, so a
worker that only touches its partition's slices never pages in the
rest.  The master that spilled the arena keeps the store's map in
place of its heap copy (:class:`SharedSpill`), so a session holds one
physical arena copy machine-wide.  This is exactly the ROADMAP's
"memory-map the arena to share across processes" item.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.index.arena import FragmentArena

__all__ = [
    "SharedArenaStore",
    "SharedSpill",
    "shared_spill_for",
    "sweep_stale_stores",
    "write_owner_marker",
]

_MANIFEST_NAME = "arena_manifest.json"
_FORMAT_VERSION = 3

#: The arena arrays a store holds, one ``<name>.npy`` each: everything
#: :meth:`SharedArenaStore.load` maps.
_ARENA_ARRAYS = ("mzs", "offsets", "lengths", "masses")

#: Temp-dir prefixes owned by this package (arena spills, per-session
#: spectra stores and fault-plan ledgers); :func:`sweep_stale_stores`
#: only ever touches directories matching these.
_STORE_PREFIXES = ("repro-arena-", "repro-spectra-", "repro-faults-")

#: Liveness marker: the PID of the process that owns a store tmpdir.
#: :func:`sweep_stale_stores` never touches a directory whose owner
#: is still alive — age heuristics only apply to orphans.
_OWNER_MARKER = "owner.pid"


def write_owner_marker(directory: Union[str, Path]) -> None:
    """Mark ``directory`` as owned by this process (best-effort).

    Long-lived sessions can idle past any age threshold; the marker is
    what keeps :func:`sweep_stale_stores` off their directories while
    the owning process lives, and what lets it reap them confidently
    once it is gone.
    """
    try:
        (Path(directory) / _OWNER_MARKER).write_text(
            f"{os.getpid()}\n", encoding="ascii"
        )
    except OSError:
        pass


def _owner_alive(directory: Path) -> bool:
    """True when the directory's recorded owner process still exists."""
    try:
        pid = int((directory / _OWNER_MARKER).read_text(encoding="ascii"))
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class SharedArenaStore:
    """A directory of ``.npy`` files holding one spilled arena.

    Construct through :meth:`spill` (write) or :meth:`open` (attach to
    an existing store); :meth:`load` materializes the memmap-backed
    arena.  Instances are cheap handles — all state is on disk.
    """

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # -- writing --------------------------------------------------------

    @classmethod
    def spill(
        cls, arena: FragmentArena, directory: Union[str, Path]
    ) -> "SharedArenaStore":
        """Write ``arena``'s four flat arrays under ``directory``.

        The directory is created if needed; an existing manifest is
        overwritten (stores are immutable once written — spill to a
        fresh directory for a different arena).  The manifest keeps the
        format's empty ``resolutions`` list, so every version-3 reader
        opens the store.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name in _ARENA_ARRAYS:
            np.save(directory / f"{name}.npy", getattr(arena, name))
        manifest = {
            "version": _FORMAT_VERSION,
            "n_entries": int(arena.n_entries),
            "n_ions": int(arena.n_ions),
            "resolutions": [],
        }
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="ascii"
        )
        return cls(directory, manifest)

    # -- reading --------------------------------------------------------

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "SharedArenaStore":
        """Attach to a store written by :meth:`spill`."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise FormatError(f"no arena store at {directory} (missing manifest)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except ValueError as bad:
            raise FormatError(f"arena store manifest {manifest_path} is unreadable: {bad}") from None
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if version != _FORMAT_VERSION:
            raise FormatError(f"unsupported arena store version {version!r}")
        return cls(directory, manifest)

    def load(self, *, mmap_mode: str = "r") -> FragmentArena:
        """Rebuild the arena with every array memory-mapped.

        ``mmap_mode="r"`` (default) yields read-only views: any
        attempted write raises, which is what guarantees N workers can
        share one physical copy safely.  ``"c"`` (copy-on-write) is
        accepted for callers that must scribble on private pages.
        Bucket and order files that an older store's manifest names are
        not mapped.
        """
        if mmap_mode not in ("r", "c"):
            raise ConfigurationError(
                f"mmap_mode must be 'r' or 'c', got {mmap_mode!r}"
            )
        n_entries, n_ions = self.n_entries, self.n_ions
        mzs = self.map("mzs.npy", np.float64, n_ions, mmap_mode)
        offsets = self.map("offsets.npy", np.int64, n_entries + 1, mmap_mode)
        lengths = self.map("lengths.npy", np.int64, n_entries, mmap_mode)
        masses = self.map("masses.npy", np.float32, n_entries, mmap_mode)
        try:
            arena = FragmentArena(mzs, offsets, lengths=lengths, masses=masses)
        except ConfigurationError as bad:
            raise FormatError(f"arena store {self.directory} is inconsistent: {bad}") from None
        _LOADED_FROM[arena] = self
        return arena

    def map(self, name: str, dtype, length: int, mmap_mode: str = "r") -> np.ndarray:
        """Memory-map one ``.npy`` file of the store directory.

        A missing, torn, short or retyped file raises
        :class:`~repro.errors.FormatError`.  Files written beside the
        store (an index archive's entry table) are read through it too.
        """
        path = self.directory / name
        try:
            array = np.load(path, mmap_mode=mmap_mode)
        except FileNotFoundError:
            raise FormatError(f"arena store {self.directory} is missing {name!r}") from None
        except (ValueError, EOFError) as torn:
            raise FormatError(f"arena store file {path} is unreadable: {torn}") from None
        if array.dtype != dtype or array.shape != (length,):
            raise FormatError(
                f"arena store file {path} holds {array.dtype}{list(array.shape)}, "
                f"expected {np.dtype(dtype)}[{length}]"
            )
        return array

    # -- introspection --------------------------------------------------

    @property
    def n_entries(self) -> int:
        """Entries in the spilled arena."""
        return int(self.manifest["n_entries"])

    @property
    def n_ions(self) -> int:
        """Fragments in the spilled arena."""
        return int(self.manifest["n_ions"])

    def file_bytes(self) -> Dict[str, int]:
        """On-disk bytes of each file :meth:`load` maps (the shared-copy footprint).

        Other files in the directory — an index archive's entry table,
        an older store's bucket and order files — are not counted.
        """
        return {
            f"{name}.npy": (self.directory / f"{name}.npy").stat().st_size
            for name in _ARENA_ARRAYS
        }

    def nbytes(self) -> int:
        """Total on-disk bytes — the one physical copy all workers share."""
        return sum(self.file_bytes().values())


# -- shared spill cache (one tmpdir spill per arena, refcounted) --------


def sweep_stale_stores(
    root: Union[str, Path, None] = None,
    *,
    incomplete_age_s: float = 3600.0,
    complete_age_s: float = 3 * 86400.0,
) -> int:
    """Best-effort removal of stale package tmpdirs (``_STORE_PREFIXES``).

    The normal cleanup path is a ``weakref.finalize`` on the spill
    handle, but a process that exits hard (kill -9, OOM) never runs
    finalizers, and a crash between ``mkdtemp`` and the spill leaves a
    manifest-less husk.  This sweep closes both leak windows while
    staying off live data: directories under ``root`` (default: the
    system temp dir) matching the package's store prefixes are

    * **never touched** while their recorded owner process
      (``owner.pid``, written at creation) is still alive — an idle
      long-running session outlasts any age threshold,
    * otherwise removed when *incomplete* (no ``*_manifest.json`` — a
      torn spill, or a fault-plan ledger, which never has one) and
      older than ``incomplete_age_s``, or complete but older than
      ``complete_age_s`` (an orphan whose owner died before its
      finalizers ran).

    Every error is swallowed — this must never break the caller.
    Returns the number of directories removed.
    """
    removed = 0
    now = time.time()
    try:
        base = Path(root) if root is not None else Path(tempfile.gettempdir())
        candidates = [
            p
            for p in base.iterdir()
            if p.is_dir() and p.name.startswith(_STORE_PREFIXES)
        ]
    except OSError:
        return 0
    for path in candidates:
        try:
            if _owner_alive(path):
                continue
            age = now - path.stat().st_mtime
            complete = any(path.glob("*_manifest.json"))
            limit = complete_age_s if complete else incomplete_age_s
            if age > limit:
                shutil.rmtree(path, ignore_errors=True)
                removed += 1
        except OSError:
            continue
    return removed


class SharedSpill:
    """A refcounted spill of one arena, shared by every resolution.

    The spill writes the arena's m/z data and computes nothing, so the
    master keeps no quantization state for a session, and each worker
    quantizes and sorts only its own slice at its session's resolution.

    :attr:`arena` is the store's read-only mapping, not the arena that
    was spilled: a session's database swaps its cached arena for it
    (:meth:`~repro.search.database.IndexedDatabase.swap_arena`), so the
    heap copy can be freed and the master holds no private arena.  The
    handle does not hold the heap arena it spilled; the spill cache
    keys it weakly.

    A fresh spill owns its tmpdir: a ``weakref.finalize`` registered
    **before** any file is written removes the directory when the last
    holder drops the handle (or at interpreter exit), so a crash
    mid-spill cannot leak it.  Its mapping is borrowed only while the
    handle lives: once the directory is gone, spilling the mapping
    writes a new store.  An arena that :meth:`SharedArenaStore.load`
    rebuilt from a store (an index archive) is not spilled again: the
    handle borrows that store and that very arena, writes nothing and
    never deletes a directory it did not create.  Engines and services
    that share one database hold the *same* handle (via
    :func:`shared_spill_for`), so the directory lives exactly as long as
    anyone is mapping it — plain Python refcounting is the refcount.
    """

    __slots__ = ("arena", "store", "_finalizer", "__weakref__")

    def __init__(self, arena: FragmentArena) -> None:
        origin = _LOADED_FROM.get(arena)
        if origin is not None:
            self.arena = arena
            self.store = origin
            self._finalizer = None
            return
        sweep_stale_stores()
        directory = Path(tempfile.mkdtemp(prefix="repro-arena-"))
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(directory), ignore_errors=True
        )
        try:
            write_owner_marker(directory)
            self.store = SharedArenaStore.spill(arena, directory)
            self.arena = self.store.load()
            # This store goes with the handle: no later spill may borrow it.
            del _LOADED_FROM[self.arena]
        except BaseException:
            # The half-built handle may outlive the raise in a
            # traceback; remove its tmpdir now, not when that dies.
            self._finalizer()
            raise

    @property
    def alive(self) -> bool:
        """True while an owned tmpdir has not been finalized away."""
        return self._finalizer is None or self._finalizer.alive


#: The live spill of each arena, keyed by the arena object itself: both
#: the arena that was spilled and the spill's mapping of it find the
#: handle.  Keys and values are weak: the cache keeps neither an arena
#: nor a spill alive — holders do.
_SPILL_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SPILL_LOCK = threading.Lock()

#: The store each live :meth:`SharedArenaStore.load` arena came from,
#: held weakly: how a spill recognises an arena that is already on disk.
_LOADED_FROM: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def shared_spill_for(arena: FragmentArena, resolution: float) -> SharedSpill:
    """The one shared tmpdir spill of ``arena``.

    Two engines (or a service and an engine) over the same
    :class:`~repro.search.database.IndexedDatabase` receive the same
    :class:`SharedSpill` handle instead of spilling twice, whether they
    pass the arena that was spilled or the spill's own mapping of it;
    the tmpdir is removed only when the *last* holder dies, so one
    engine's death never tears the memmaps out from under another.  An
    arena loaded from a store gets that store's own directory back,
    with nothing written.  Callers must keep the returned handle
    referenced for as long as they (or their workers) map the store.

    ``resolution`` is unused: a store holds m/z only, which serves every
    resolution, so sessions at two resolutions share one spill.  The
    parameter stays for callers that pass it.
    """
    with _SPILL_LOCK:
        ref = _SPILL_CACHE.get(arena)
        spill = ref() if ref is not None else None
        if spill is not None and spill.alive:
            return spill
        spill = SharedSpill(arena)
        ref = weakref.ref(spill)
        _SPILL_CACHE[arena] = _SPILL_CACHE[spill.arena] = ref
        return spill
