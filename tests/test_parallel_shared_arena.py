"""Shared-arena store tests: spill → memmap reopen must be bit-exact.

The whole point of the store is that a worker's memmap view of the
arena is indistinguishable (bit-for-bit) from the master's in-memory
arrays — including the cached bucket quantizations — while rejecting
writes, so N workers can safely share one physical copy.  No sort order
is stored: each worker sorts its own slice.
"""

import json
import mmap
import shutil

import numpy as np
import pytest

from reference import assert_same_results
from repro.db.proteome import ProteomeConfig
from repro.errors import ConfigurationError, FormatError
from repro.index import arena as arena_module
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
from repro.util import heap

RES = SLMIndexSettings().resolution
RES_COARSE = 0.5


@pytest.fixture(scope="module")
def master_arena(tiny_db):
    arena = tiny_db.arena_for()
    # Two cached resolutions, one with a sort order that the spill
    # must leave out.
    arena.buckets_for(RES)
    arena.sort_order_for(RES)
    arena.buckets_for(RES_COARSE)
    return arena


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


def test_roundtrip_caches_bit_identical(master_arena, reopened):
    assert set(reopened._bucket_cache) == {RES, RES_COARSE}
    assert reopened._order_cache == {}
    for res in (RES, RES_COARSE):
        assert np.array_equal(
            master_arena._bucket_cache[res], reopened._bucket_cache[res]
        )


def test_reopened_views_are_read_only(reopened):
    for arr in (reopened.mzs, reopened.offsets, reopened.masses):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_store_reports_footprint(store, master_arena):
    files = store.file_bytes()
    assert "mzs.npy" in files and "offsets.npy" in files
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


def test_spill_without_caches_loads_empty_caches(tiny_db, tmp_path):
    arena = tiny_db.arena_for()
    bare = SharedArenaStore.spill(
        type(arena)(
            arena.mzs, arena.offsets, lengths=arena.lengths, masses=arena.masses
        ),
        tmp_path / "bare",
    )
    loaded = SharedArenaStore.open(bare.directory).load()
    assert loaded._bucket_cache == {} and loaded._order_cache == {}
    assert np.array_equal(loaded.lengths, arena.lengths)
    assert np.array_equal(loaded.masses, arena.masses)


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


def test_caches_spill_as_int32(store, reopened):
    files = store.file_bytes()
    for name in ("buckets_0.npy", "buckets_1.npy"):
        assert 4 * store.n_ions < files[name] <= 4 * store.n_ions + 128  # + header
    assert all(a.dtype == np.int32 for a in reopened._bucket_cache.values())


# -- torn and stale stores: FormatError, never a bare ValueError --------


def _copy_store(store, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(store.directory, copy)
    return copy


def test_load_truncated_cache_raises(store, tmp_path):
    copy = _copy_store(store, tmp_path)
    path = copy / "buckets_0.npy"
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(FormatError, match="buckets_0.npy"):
        SharedArenaStore.open(copy).load()


def test_load_short_cache_raises(store, tmp_path):
    """A valid .npy holding fewer ids than the store has ions."""
    copy = _copy_store(store, tmp_path)
    np.save(copy / "buckets_0.npy", np.load(copy / "buckets_0.npy")[:-3])
    with pytest.raises(FormatError, match="buckets_0.npy"):
        SharedArenaStore.open(copy).load()


def test_load_wrong_dtype_cache_raises(store, tmp_path):
    copy = _copy_store(store, tmp_path)
    np.save(copy / "buckets_1.npy", np.load(copy / "buckets_1.npy").astype(np.int64))
    with pytest.raises(FormatError, match="int64"):
        SharedArenaStore.open(copy).load()


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
    buckets = fresh.buckets_for(settings.resolution)
    order = np.argsort(buckets, kind="stable")
    assert np.array_equal(fresh.sort_order_for(settings.resolution), order)
    expected = type(state["index"])(fresh, settings)
    assert np.array_equal(state["index"].ion_parents, expected.ion_parents)
    assert np.array_equal(state["index"].bucket_offsets, expected.bucket_offsets)
    if precursor_tolerance is None:
        parents = np.repeat(np.arange(ids.size, dtype=np.int32), fresh.counts)
        assert np.array_equal(state["index"].ion_parents, parents[order])


def test_spill_and_archive_hold_no_order_file(tmp_path):
    """A session spill and an archive hold the m/z data alone (8 B/ion);
    an order primed on the master never travels, its bucket ids do."""
    db = _fresh_db()
    arena = db.arena_for()
    spill = shared_spill_for(arena, RES)
    archive = db.save(tmp_path / "archive")
    arena.sort_order_for(RES)
    primed = SharedArenaStore.spill(arena, tmp_path / "primed")
    for store in (spill.store, SharedArenaStore.open(archive), primed):
        assert not list(store.directory.glob("order_*.npy"))
    for store in (spill.store, SharedArenaStore.open(archive)):
        assert store.manifest["resolutions"] == []
    assert spill.store.nbytes() - 8 * arena.n_ions <= 24 * arena.n_entries + 1024
    assert primed.manifest["resolutions"] == [
        {"hex": RES.hex(), "buckets": "buckets_0.npy", "order": None}
    ]


def test_release_heap_is_a_noop_without_malloc_trim(monkeypatch):
    monkeypatch.setattr(heap, "_malloc_trim", lambda: None)
    assert heap.release_heap() is False


def test_malloc_trim_lookup_tolerates_a_libc_without_it(monkeypatch):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
    assert heap._malloc_trim() is None
    assert heap.release_heap() is False


# -- the master keeps no quantization state once the spill holds it -----


def _fresh_db():
    """A database equal to ``tiny_db`` whose arena nothing has touched."""
    return IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=2, seed=77),
            max_variants_per_peptide=3,
        )
    )


def _caches(arena):
    return dict(arena._bucket_cache), dict(arena._order_cache)


def test_service_open_leaves_the_master_no_quantization_state(tiny_spectra):
    db = _fresh_db()
    with SearchService(db, ServiceConfig(n_workers=2)) as service:
        arena = db.arena_for()
        assert _caches(arena) == ({}, {})
        assert arena.nbytes == arena.mzs.nbytes + arena.offsets.nbytes + (
            arena.lengths.nbytes + arena.masses.nbytes
        )
        results, _ = service.submit(tiny_spectra)
    assert_same_results(SerialSearchEngine(db).run(tiny_spectra), results)


def test_serial_index_build_leaves_no_quantization_state():
    db = _fresh_db()
    settings = SLMIndexSettings(precursor_tolerance=2.0)
    assert len(SerialSearchEngine(db, settings).index) == db.n_entries
    assert _caches(db.arena_for()) == ({}, {})


def test_primed_resolution_survives_open_and_serial_build(tiny_spectra):
    db = _fresh_db()
    arena = db.arena_for()
    primed = arena.buckets_for(RES), arena.sort_order_for(RES)
    with SearchService(db, ServiceConfig(n_workers=2)) as service:
        service.submit(tiny_spectra[:3])
    SerialSearchEngine(db).index
    assert arena._bucket_cache[RES] is primed[0]
    assert arena._order_cache[RES] is primed[1]
    assert set(arena._bucket_cache) == set(arena._order_cache) == {RES}


def test_store_loaded_arena_keeps_its_mapped_caches(tmp_path):
    db = _fresh_db()
    db.arena_for().buckets_for(RES)  # primed bucket ids are stored
    db.save(tmp_path / "archive")
    db, settings = IndexedDatabase.load(tmp_path / "archive")
    arena = db.arena_for(settings.fragmentation)
    mapped = arena._bucket_cache[settings.resolution]
    SerialSearchEngine(db, settings).index
    assert _caches(arena) == ({settings.resolution: mapped}, {})
    assert _maps_a_file(mapped)


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
    assert _caches(db.arena_for()) == ({}, {})


def test_quantized_releases_the_heap_only_when_it_dropped_state(
    master_arena, monkeypatch
):
    trims = []
    monkeypatch.setattr(arena_module, "release_heap", lambda: trims.append(1) or True)
    arena = master_arena.take(np.arange(master_arena.n_entries))
    arena.drop_quantization_caches()
    with arena.quantized(RES) as buckets:
        assert arena._bucket_cache[RES] is buckets
        assert arena._order_cache == {}  # the scope itself never sorts
        with arena.quantized(RES):  # nothing fresh: keeps and never trims
            pass
        assert trims == []
    assert _caches(arena) == ({}, {}) and trims == [1]
    primed = arena.buckets_for(RES)
    with arena.quantized(RES):  # an order sorted inside is dropped alone
        arena.sort_order_for(RES)
    assert _caches(arena) == ({RES: primed}, {}) and trims == [1, 1]
    arena.sort_order_for(RES)
    with arena.quantized(RES):
        pass
    assert set(arena._order_cache) == {RES} and trims == [1, 1]
    with pytest.raises(ValueError):
        with arena.quantized(RES_COARSE):
            raise ValueError("a failed step still drops its state")
    assert RES_COARSE not in arena._bucket_cache and trims == [1, 1, 1]
    with pytest.raises(ConfigurationError):  # computed nothing: no trim
        with arena.quantized(1e-12):
            pass
    assert trims == [1, 1, 1]


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
