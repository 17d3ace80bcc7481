"""Shared-arena store tests: spill → memmap reopen must be bit-exact.

The whole point of the store is that a worker's memmap view of the
arena is indistinguishable (bit-for-bit) from the master's in-memory
arrays while rejecting writes, so N workers can safely share one
physical copy.  A store holds the four flat arena arrays and nothing
quantized: each worker quantizes and sorts its own slice.
"""

import gc
import json
import mmap
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from reference import assert_same_results
from repro.db.proteome import ProteomeConfig
from repro.errors import ConfigurationError, FormatError
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.parallel import worker
from repro.index.arena import FragmentArena
from repro.parallel.shared_arena import SharedArenaStore, shared_spill_for
from repro.parallel.worker import AttachTask, service_attach_worker
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.rank import build_rank_index
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig
from repro.search import serial as serial_module
from repro.service import service as service_module
from repro.util import heap

RES = SLMIndexSettings().resolution
ARENA_FILES = {"mzs.npy", "offsets.npy", "lengths.npy", "masses.npy"}


@pytest.fixture(scope="module")
def master_arena(tiny_db):
    return tiny_db.arena_for()


@pytest.fixture(scope="module")
def store(master_arena, tmp_path_factory):
    return SharedArenaStore.spill(
        master_arena, tmp_path_factory.mktemp("arena-store")
    )


@pytest.fixture(scope="module")
def reopened(store):
    return SharedArenaStore.open(store.directory).load()


def test_roundtrip_flat_arrays_bit_identical(master_arena, reopened):
    assert np.array_equal(master_arena.mzs, reopened.mzs)
    assert np.array_equal(master_arena.offsets, reopened.offsets)
    assert np.array_equal(master_arena.lengths, reopened.lengths)
    assert np.array_equal(master_arena.masses, reopened.masses)
    assert reopened.masses.dtype == np.float32
    assert reopened.offsets.dtype == np.int64


def test_reopened_views_are_read_only(reopened):
    for arr in (reopened.mzs, reopened.offsets, reopened.masses):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_store_reports_footprint(store, master_arena):
    files = store.file_bytes()
    assert set(files) == ARENA_FILES
    # One shared copy on disk covers at least the fragment payload.
    assert store.nbytes() >= master_arena.mzs.nbytes
    assert store.n_entries == master_arena.n_entries
    assert store.n_ions == master_arena.n_ions


def test_partial_index_over_memmap_matches_master(master_arena, reopened):
    """A worker building from the memmap store gets the master's index."""
    ids = np.arange(0, master_arena.n_entries, 3, dtype=np.int64)
    settings = SLMIndexSettings()
    _, from_master = build_rank_index(master_arena, ids, settings)
    _, from_store = build_rank_index(reopened, ids, settings)
    assert np.array_equal(from_master.ion_parents, from_store.ion_parents)
    assert np.array_equal(from_master.bucket_offsets, from_store.bucket_offsets)
    assert np.array_equal(from_master.masses, from_store.masses)


def test_open_missing_store_raises(tmp_path):
    with pytest.raises(FormatError):
        SharedArenaStore.open(tmp_path / "nowhere")


def test_load_rejects_writable_modes(store):
    with pytest.raises(ConfigurationError):
        store.load(mmap_mode="r+")


def test_load_missing_file_raises(store, tmp_path):
    broken_dir = tmp_path / "broken"
    shutil.copytree(store.directory, broken_dir)
    (broken_dir / "mzs.npy").unlink()
    with pytest.raises(FormatError):
        SharedArenaStore.open(broken_dir).load()


# -- torn and stale stores: FormatError, never a bare ValueError --------


def _copy_store(store, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(store.directory, copy)
    return copy


def test_open_version_2_store_raises(store, tmp_path):
    """Version 2 spilled int64 caches; this reader refuses it outright."""
    copy = _copy_store(store, tmp_path)
    manifest_path = copy / "arena_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 2
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="version 2"):
        SharedArenaStore.open(copy).load()


# -- the worker attach releases the store and its build heap ----------


def _arrays_in(obj):
    """Every ndarray reachable from ``obj`` through containers and repro objects."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays_in(value)
    elif type(obj).__module__.startswith("repro."):
        names = getattr(type(obj), "__slots__", None) or list(vars(obj))
        for name in names:
            yield from _arrays_in(getattr(obj, name, None))


def _maps_a_file(array):
    base = array
    while base is not None:
        if isinstance(base, (np.memmap, mmap.mmap)):
            return True
        base = getattr(base, "base", None)
    return False


@pytest.mark.parametrize(
    "precursor_tolerance, index_type", [(None, SLMIndex), (2.0, ChunkedIndex)]
)
def test_attach_state_holds_no_view_of_the_store(
    store, master_arena, precursor_tolerance, index_type, monkeypatch
):
    trims = []
    monkeypatch.setattr(worker, "release_heap", lambda: trims.append(1) or True)
    ids = np.arange(1, master_arena.n_entries, 2, dtype=np.int64)
    task = AttachTask(
        str(store.directory), ids, SLMIndexSettings(precursor_tolerance=precursor_tolerance)
    )
    state, report = service_attach_worker(0, 2, task)
    assert isinstance(state["index"], index_type)
    assert report["n_ions"] == state["index"].n_ions > 0
    arrays = list(_arrays_in(state))
    assert len(arrays) > 5
    assert not [a for a in arrays if _maps_a_file(a)]
    assert trims == [1]


@pytest.mark.parametrize("precursor_tolerance", [None, 2.0])
def test_worker_index_equals_a_stable_argsort_build_of_its_manifest(
    precursor_tolerance,
):
    """A worker attached to a session spill quantizes and sorts its own
    slice: its index is the one a fresh stable argsort of the manifest's
    ions gives, for a manifest that is not ascending."""
    settings = SLMIndexSettings(precursor_tolerance=precursor_tolerance)
    arena = _fresh_db().arena_for(settings.fragmentation)
    spill = shared_spill_for(arena, settings.resolution)
    ids = np.random.default_rng(5).permutation(arena.n_entries)[: arena.n_entries // 2]
    state, _ = service_attach_worker(
        0, 2, AttachTask(str(spill.store.directory), ids, settings)
    )
    fresh = FragmentArena(
        arena.mzs, arena.offsets, lengths=arena.lengths, masses=arena.masses
    ).take(ids)
    buckets, packed = fresh.quantize(settings.resolution)
    order = np.argsort(buckets, kind="stable")
    assert np.array_equal(packed, order)
    expected = type(state["index"])(fresh, settings)
    assert np.array_equal(state["index"].ion_parents, expected.ion_parents)
    assert np.array_equal(state["index"].bucket_offsets, expected.bucket_offsets)
    if precursor_tolerance is None:
        parents = np.repeat(np.arange(ids.size, dtype=np.int32), fresh.counts)
        assert np.array_equal(state["index"].ion_parents, parents[order])


def test_spill_and_archive_hold_no_order_file(tmp_path):
    """A spill holds exactly the four arena files and the manifest (a
    session's tmpdir also its owner marker), the m/z data alone at
    8 B/ion; an archive adds only its entry table."""
    db = _fresh_db()
    arena = db.arena_for()
    SLMIndex(arena, SLMIndexSettings())  # an index build leaves nothing to spill
    spill = shared_spill_for(arena, RES)
    direct = SharedArenaStore.spill(arena, tmp_path / "direct")
    archive = SharedArenaStore.open(db.save(tmp_path / "archive"))
    manifest = {"arena_manifest.json"}
    assert {p.name for p in spill.store.directory.iterdir()} == ARENA_FILES | manifest | {
        "owner.pid"
    }
    assert {p.name for p in direct.directory.iterdir()} == ARENA_FILES | manifest
    assert not list(archive.directory.glob("buckets_*.npy"))
    assert not list(archive.directory.glob("order_*.npy"))
    for store in (spill.store, direct, archive):
        assert store.manifest["resolutions"] == []
        assert store.nbytes() == direct.nbytes()
    assert spill.store.nbytes() - 8 * arena.n_ions <= 24 * arena.n_entries + 1024


def test_release_heap_is_a_noop_without_malloc_trim(monkeypatch):
    monkeypatch.setattr(heap, "_malloc_trim", lambda: None)
    assert heap.release_heap() is False


def test_malloc_trim_lookup_tolerates_a_libc_without_it(monkeypatch):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
    assert heap._malloc_trim() is None
    assert heap.release_heap() is False


# -- the master keeps no quantization state ---------------------------


def _fresh_db():
    """A database equal to ``tiny_db`` whose arena nothing has touched."""
    return IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=2, seed=77),
            max_variants_per_peptide=3,
        )
    )


def _watch_quantize(monkeypatch):
    """Weak references to every array ``FragmentArena.quantize`` returns."""
    made = []
    real = FragmentArena.quantize

    def watched(self, resolution):
        out = real(self, resolution)
        made.extend(weakref.ref(array) for array in out)
        return out

    monkeypatch.setattr(FragmentArena, "quantize", watched)
    return made


def test_service_open_leaves_the_master_no_quantization_state(tiny_spectra, monkeypatch):
    """The master never quantizes for a session: its workers do."""
    db = _fresh_db()
    made = _watch_quantize(monkeypatch)
    with SearchService(db, ServiceConfig(n_workers=2)) as service:
        results, _ = service.submit(tiny_spectra)
    assert made == []
    assert_same_results(SerialSearchEngine(db).run(tiny_spectra), results)


def test_serial_index_build_leaves_no_quantization_state(monkeypatch):
    """The serial build's bucket ids and order die with it, and the
    build trims the heap once, not on every ``index`` read."""
    trims = []
    monkeypatch.setattr(serial_module, "release_heap", lambda: trims.append(1) or True)
    made = _watch_quantize(monkeypatch)
    db = _fresh_db()
    engine = SerialSearchEngine(db, SLMIndexSettings(precursor_tolerance=2.0))
    assert len(engine.index) == db.n_entries
    assert engine.index is engine.index
    gc.collect()
    assert len(made) == 2 and all(ref() is None for ref in made)
    assert trims == [1]


# -- the master maps the arena it spilled -----------------------------


def _count_spills(monkeypatch):
    """Directories :meth:`SharedArenaStore.spill` writes from now on."""
    written = []
    real = SharedArenaStore.spill

    def counted(arena, directory):
        written.append(directory)
        return real(arena, directory)

    monkeypatch.setattr(SharedArenaStore, "spill", staticmethod(counted))
    return written


def _maps_file(array, path):
    """True when ``array`` is a view of a memory map of the file ``path``."""
    while array is not None and not isinstance(array, np.memmap):
        array = getattr(array, "base", None)
    return array is not None and Path(array.filename) == Path(path)


def test_open_swaps_the_heap_arena_for_the_store_map(tiny_spectra, monkeypatch):
    """After ``open()`` the database's arena is the read-only map of the
    session's store, the heap arena is gone and the heap is trimmed
    once; results stay bit-identical."""
    trims = []
    monkeypatch.setattr(service_module, "release_heap", lambda: trims.append(1) or True)
    db = _fresh_db()
    heap_arena = weakref.ref(db.arena_for())
    with SearchService(db, ServiceConfig(n_workers=2)) as service:
        mapped = db.arena_for()
        directory = service._spill.store.directory
        assert mapped is service._spill.arena
        for name in ("mzs", "offsets", "lengths", "masses"):
            array = getattr(mapped, name)
            assert _maps_file(array, directory / f"{name}.npy")
            assert not array.flags.writeable
        gc.collect()
        assert heap_arena() is None
        assert trims == [1]
        fresh = _fresh_db().arena_for()
        assert np.array_equal(mapped.mzs, fresh.mzs)
        assert np.array_equal(mapped.masses, fresh.masses)
        results, _ = service.submit(tiny_spectra)
    assert trims == [1]
    assert_same_results(SerialSearchEngine(_fresh_db()).run(tiny_spectra), results)


def test_archive_session_keeps_the_archive_arena(tmp_path, monkeypatch):
    trims = []
    monkeypatch.setattr(service_module, "release_heap", lambda: trims.append(1) or True)
    database, settings = IndexedDatabase.load(_fresh_db().save(tmp_path / "archive"))
    written = _count_spills(monkeypatch)
    arena = database.arena_for(settings.fragmentation)
    with SearchService(database, ServiceConfig(n_workers=2, index=settings)):
        assert database.arena_for(settings.fragmentation) is arena
    assert written == [] and trims == []


@pytest.mark.parametrize("resolution", [RES, RES * 2])
def test_a_second_open_session_writes_no_second_store(resolution, monkeypatch):
    """Sessions over one database share one store, at any resolution."""
    written = _count_spills(monkeypatch)
    db = _fresh_db()
    with SearchService(db, ServiceConfig(n_workers=2)) as first:
        config = ServiceConfig(n_workers=1, index=SLMIndexSettings(resolution=resolution))
        with SearchService(db, config) as second:
            assert second._spill is first._spill
            assert db.arena_for() is first._spill.arena
    assert len(written) == 1


def test_open_reuses_a_spill_made_before_it(monkeypatch):
    """Spilling the heap arena before ``open()``, as the spine's set-up
    walk does, leaves ``open()`` that handle: one store."""
    written = _count_spills(monkeypatch)
    db = _fresh_db()
    spill = shared_spill_for(db.arena_for(), RES)
    with SearchService(db, ServiceConfig(n_workers=2)) as service:
        assert service._spill is spill
        assert db.arena_for() is spill.arena
    assert len(written) == 1
    assert shared_spill_for(spill.arena, RES * 3) is spill


def test_session_after_the_spill_is_removed_requantizes_bit_identically(tiny_spectra):
    db = _fresh_db()
    oracle = SerialSearchEngine(db).run(tiny_spectra)
    with SearchService(db, ServiceConfig(n_workers=2)) as first:
        spill_dir = first._spill.store.directory
        assert_same_results(oracle, first.submit(tiny_spectra)[0])
    assert not spill_dir.exists()
    with SearchService(db, ServiceConfig(n_workers=2)) as second:
        assert second._spill.store.directory != spill_dir
        assert_same_results(oracle, second.submit(tiny_spectra)[0])


# -- the stale-store reaper --------------------------------------------


def _make_store_dir(root, name, *, owner_pid=None, complete=True, age_s=0.0):
    """A fake on-disk store: optionally owned, complete, and aged."""
    import os
    import time as _time

    d = root / name
    d.mkdir()
    if complete:
        (d / "arena_manifest.json").write_text("{}", encoding="ascii")
    if owner_pid is not None:
        (d / "owner.pid").write_text(f"{owner_pid}\n", encoding="ascii")
    if age_s:
        old = _time.time() - age_s
        os.utime(d, (old, old))
    return d


def _dead_pid():
    """A PID that certainly belonged to an exited process."""
    import subprocess

    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    return proc.pid


def test_sweep_reaps_orphans_with_dead_owner(tmp_path):
    from repro.parallel.shared_arena import sweep_stale_stores

    dead = _dead_pid()
    gone_complete = _make_store_dir(
        tmp_path, "repro-arena-dead", owner_pid=dead, age_s=4 * 86400.0
    )
    gone_husk = _make_store_dir(  # torn spill: no manifest, short age bar
        tmp_path, "repro-spectra-husk", owner_pid=dead,
        complete=False, age_s=2 * 3600.0,
    )
    fresh = _make_store_dir(  # dead owner but too young to reap
        tmp_path, "repro-arena-fresh", owner_pid=dead, age_s=60.0
    )
    unrelated = _make_store_dir(  # wrong prefix: never touched
        tmp_path, "someone-elses-dir", owner_pid=dead, age_s=4 * 86400.0
    )
    assert sweep_stale_stores(root=tmp_path) == 2
    assert not gone_complete.exists() and not gone_husk.exists()
    assert fresh.exists() and unrelated.exists()


def test_sweep_never_touches_live_owner(tmp_path):
    import os

    from repro.parallel.shared_arena import sweep_stale_stores

    live = _make_store_dir(  # ancient, but its owner (this test) lives
        tmp_path, "repro-arena-live", owner_pid=os.getpid(),
        age_s=30 * 86400.0,
    )
    assert sweep_stale_stores(root=tmp_path) == 0
    assert live.exists()


def test_sweep_swallows_a_missing_temp_dir(monkeypatch):
    """No usable temp dir is one more error the sweep swallows."""
    import tempfile

    from repro.parallel.shared_arena import sweep_stale_stores

    def no_temp_dir():
        raise FileNotFoundError("no usable temporary directory")

    monkeypatch.setattr(tempfile, "gettempdir", no_temp_dir)
    assert sweep_stale_stores() == 0


def test_service_open_runs_the_sweep(tiny_db, tmp_path, monkeypatch):
    """``SearchService.open()`` reaps stale stores automatically: a
    dead-owner orphan in the temp root disappears during open."""
    import tempfile

    from repro.service import SearchService, ServiceConfig

    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    orphan = _make_store_dir(
        tmp_path, "repro-arena-orphan", owner_pid=_dead_pid(),
        age_s=4 * 86400.0,
    )
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        assert not orphan.exists()
        # The session itself is unaffected by the sweep.
        assert all(pid is not None for pid in service.worker_pids())


def test_sweep_removes_stale_dirs_and_keeps_live_ones(tmp_path):
    """Unowned dirs (no ``owner.pid``) are judged by age alone, against
    the caller's thresholds; foreign dirs are never touched."""
    from repro.parallel.shared_arena import sweep_stale_stores

    torn = tmp_path / "repro-arena-torn"  # crashed between mkdtemp and spill
    torn.mkdir()
    orphan = tmp_path / "repro-spectra-orphan"  # complete but long dead
    orphan.mkdir()
    (orphan / "spectra_manifest.json").write_text("{}")
    live = tmp_path / "repro-arena-live"  # complete and recent
    live.mkdir()
    (live / "arena_manifest.json").write_text("{}")
    unrelated = tmp_path / "other-dir"
    unrelated.mkdir()

    removed = sweep_stale_stores(
        tmp_path, incomplete_age_s=0.0, complete_age_s=0.0
    )
    assert removed == 3  # with age 0 even "live" qualifies ...
    assert not torn.exists() and not orphan.exists() and not live.exists()
    assert unrelated.is_dir()  # ... but foreign dirs are never touched

    # With realistic thresholds a fresh complete store survives.
    fresh = tmp_path / "repro-arena-fresh"
    fresh.mkdir()
    (fresh / "arena_manifest.json").write_text("{}")
    assert sweep_stale_stores(tmp_path) == 0
    assert fresh.is_dir()
