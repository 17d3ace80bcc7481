"""SearchService session tests: bit-identity, residency, failure modes.

The acceptance bar from the issue: a session over a persistent pool
returns bit-identical results to the serial engine for every policy ×
{2,3} workers across >= 3 consecutive ``submit()`` calls on the *same
resident workers*, and the batch travels in-band as one pickle per
round sent to every worker (payload-size accounting).
"""

import multiprocessing
import pickle
from dataclasses import replace

import pytest

from reference import assert_same_results
from repro.errors import ConfigurationError, ServiceError, WorkerError
from repro.index.slm import SLMIndexSettings
from repro.parallel.shared_arena import SharedArenaStore
from repro.parallel.worker import QueryTask
from repro.service import service as service_module
from repro.search.serial import SerialSearchEngine
from repro.service import BatchStats, SearchService, ServiceConfig
from repro.spectra.packed import PackedSpectra
from repro.spectra.preprocess import preprocess_batch


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    """Three distinct consecutive batches for one session."""
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


@pytest.fixture(scope="module")
def serial_refs(tiny_db, batches):
    engine = SerialSearchEngine(tiny_db)
    return [engine.run(batch) for batch in batches]


@pytest.mark.parametrize("policy", ["cyclic", "chunk"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_session_bit_identical_across_three_submits(
    tiny_db, batches, serial_refs, policy, n_workers
):
    """The acceptance matrix: every policy × worker count, >= 3
    consecutive submits on one resident pool, all bit-identical."""
    config = ServiceConfig(n_workers=n_workers, policy=policy)
    with SearchService(tiny_db, config) as service:
        pids = service.worker_pids()
        assert len(pids) == n_workers and all(p is not None for p in pids)
        for batch, reference in zip(batches, serial_refs):
            results, stats = service.submit(batch)
            assert_same_results(reference, results)
            assert results.policy_name == policy
            assert results.n_ranks == n_workers
            assert stats.respawned == 0
        # The whole session ran on the original resident workers.
        assert service.worker_pids() == pids
        assert service.n_batches == len(batches)
        assert service.respawn_total == 0


def test_batch_payload_is_one_pickle_sent_to_every_worker(tiny_db, batches):
    """Payload-size accounting: the round's command carries the packed
    batch, is pickled once, and that one buffer goes to every worker —
    so the pipe bytes are n_workers × one pickle, and one pickle is the
    batch's peak bytes plus the small per-spectrum columns and framing."""
    n_workers = 2
    with SearchService(tiny_db, ServiceConfig(n_workers=n_workers)) as service:
        _, stats_big = service.submit(batches[0])
        _, stats_small = service.submit(batches[1])
    for batch, stats in ((batches[0], stats_big), (batches[1], stats_small)):
        processed = preprocess_batch(batch)
        peak_bytes = sum(s.mzs.nbytes + s.intensities.nbytes for s in processed)
        assert stats.peak_bytes == n_workers * peak_bytes
        # One pickle per round: every rank received the same buffer.
        assert stats.scatter_bytes % n_workers == 0
        per_rank = stats.scatter_bytes // n_workers
        packed = PackedSpectra.from_spectra(processed)
        task = QueryTask(
            spectra=packed, top_k=5,
            batch_index=stats.batch_index,
        )
        # The pool's buffer wraps the task in (command, fn, task): a
        # function reference and a short string on top of the task.
        assert 0 < per_rank - len(pickle.dumps(task)) < 128
        # ... and the task is the peak bytes plus 40 B of per-spectrum
        # columns per spectrum and a fixed few hundred bytes of framing.
        overhead = per_rank - stats.peak_bytes // n_workers
        assert 0 < overhead < 1024 + 40 * len(batch)
    # The scatter scales with the batch it carries, nothing else.
    assert stats_small.scatter_bytes < stats_big.scatter_bytes


def test_batch_stats_phases_are_real(tiny_db, tiny_spectra):
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        results, stats = service.submit(tiny_spectra)
    assert isinstance(stats, BatchStats)
    assert stats.n_spectra == len(tiny_spectra)
    for name in ("preprocess_s", "parallel_s", "total_s"):
        assert getattr(stats, name) > 0.0
    assert stats.query_wall_max_s > 0.0
    assert stats.query_cpu_max_s > 0.0
    assert stats.total_s >= stats.parallel_s
    # The per-batch result phases mirror the engine's keys; build is
    # 0.0 by design (paid once at open), but the rank stats still
    # carry the attach-time build for observability.
    assert results.phase_times["build"] == 0.0
    assert all(s.build_time > 0.0 for s in results.rank_stats)
    assert sum(s.n_entries for s in results.rank_stats) == tiny_db.n_entries
    assert service.open_s > 0.0 and service.attach_s > 0.0


def test_worker_death_mid_batch_respawns_and_session_survives(
    tiny_db, batches, serial_refs
):
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        results, _ = service.submit(batches[0])
        assert_same_results(serial_refs[0], results)
        pids = service.worker_pids()
        # Kill a resident worker out from under the session.
        service._pool._channels[1].proc.terminate()
        service._pool._channels[1].proc.join()
        # The very next submit transparently respawns + re-attaches —
        # and still returns bit-identical results.
        results, stats = service.submit(batches[1])
        assert_same_results(serial_refs[1], results)
        assert stats.respawned == 1
        fresh = service.worker_pids()
        assert fresh[0] == pids[0] and fresh[1] != pids[1]
        # Steady state again afterwards.
        results, stats = service.submit(batches[2])
        assert_same_results(serial_refs[2], results)
        assert stats.respawned == 0


def test_submit_after_close_and_double_close(tiny_db, tiny_spectra):
    service = SearchService(tiny_db, ServiceConfig(n_workers=2))
    service.open()
    service.open()  # idempotent while open
    service.submit(tiny_spectra)
    service.close()
    service.close()  # idempotent
    assert not service.is_open
    with pytest.raises(ServiceError, match="not open"):
        service.submit(tiny_spectra)
    with pytest.raises(ServiceError, match="not reusable"):
        service.open()


def test_submit_requires_open_session(tiny_db, tiny_spectra):
    service = SearchService(tiny_db, ServiceConfig(n_workers=2))
    with pytest.raises(ServiceError, match="not open"):
        service.submit(tiny_spectra)


def test_empty_batch_rejected(tiny_db):
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        with pytest.raises(ConfigurationError, match="empty"):
            service.submit([])


def test_worker_raise_mid_batch_fails_batch_not_session(
    tiny_db, batches, serial_refs
):
    """A raising batch surfaces WorkerError; the resident workers and
    the session both survive, and the next submit is correct."""
    from repro.parallel import worker as worker_mod

    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        pids = service.worker_pids()
        # Send a torn payload (a peak column cut short): every worker
        # raises (ServiceError) and reports the remote traceback.
        packed = PackedSpectra.from_spectra(preprocess_batch(batches[0]))
        bad = QueryTask(
            spectra=replace(packed, mzs=packed.mzs[:-1]), top_k=5
        )
        with pytest.raises(WorkerError, match="worker 0 raised"):
            service._pool.run_batch(worker_mod.service_query_worker, [bad, bad])
        results, stats = service.submit(batches[0])
        assert_same_results(serial_refs[0], results)
        assert stats.respawned == 0
        assert service.worker_pids() == pids


class _OpenStepFailed(RuntimeError):
    pass


@pytest.mark.parametrize("step", ["plan", "arena_for", "shared_spill_for", "spill_write"])
def test_open_failure_after_early_spawn_cleans_up(tiny_db, monkeypatch, step, owned_tmpdirs):
    """The pool spawns before the master plans, builds the arena and
    spills; a raise in any of those re-raises unchanged and leaves no
    live worker and no spill directory behind.  Only this process's
    spills are counted (a concurrent run may spill beside it); a spill
    marks its owner before it writes a file, so the half-written one
    is among them."""
    error = _OpenStepFailed(step)
    children_at_raise = []
    dirs_at_raise = []

    def spill_dirs():
        return {name for name in owned_tmpdirs() if name.startswith("repro-arena-")}

    def boom(*args, **kwargs):
        children_at_raise.append(set(multiprocessing.active_children()))
        dirs_at_raise.append(spill_dirs())
        raise error

    if step == "plan":
        monkeypatch.setattr(service_module.SearchService, "plan", property(boom))
    elif step == "arena_for":
        monkeypatch.setattr(tiny_db, "arena_for", boom)
    elif step == "shared_spill_for":
        monkeypatch.setattr(service_module, "shared_spill_for", boom)
    else:  # the tmpdir exists and is half written when this raises
        monkeypatch.setattr(SharedArenaStore, "spill", staticmethod(boom))
    # A resolution no other test spills at, so the spill cache cannot
    # hand back a live spill and skip the failing write.
    config = ServiceConfig(n_workers=2, index=SLMIndexSettings(resolution=0.0125))
    children_before = set(multiprocessing.active_children())
    dirs_before = spill_dirs()
    service = SearchService(tiny_db, config)
    with pytest.raises(_OpenStepFailed) as excinfo:
        service.open()
    assert excinfo.value is error
    # The failing step ran after both workers had been spawned ...
    assert len(children_at_raise[0] - children_before) == 2
    # ... and the failed open reaped them and left no spill behind.
    assert set(multiprocessing.active_children()) <= children_before
    if step == "spill_write":
        assert dirs_at_raise[0] - dirs_before
    assert spill_dirs() <= dirs_before
    assert not service.is_open
    service.close()
    assert not service.is_open


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_workers=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(top_k=0)
    # Checked at construction, before any pool spawns.
    with pytest.raises(ConfigurationError, match="unknown policy"):
        ServiceConfig(policy="bogus")
    with pytest.raises(ConfigurationError):
        ServiceConfig(timeout=0.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_pending=0)
    # The pool's own settings fail here too, not at open().
    with pytest.raises(ConfigurationError, match="unknown transport"):
        ServiceConfig(transport="socket")
    with pytest.raises(ConfigurationError, match="start method"):
        ServiceConfig(start_method="teleport")
