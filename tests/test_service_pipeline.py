"""Pipelined-session tests: overlap, ordering, failure modes.

The acceptance bar from the issue: the pipelined session
(``submit_async`` / ``stream``) is bit-identical to sequential
``submit()`` and the serial engine for every policy × {2,3} workers
across >= 6 overlapped batches, batches complete in submission order,
a mid-pipeline :class:`~repro.errors.WorkerError` fails only its own
future (later queued batches still return correct results), ``close()``
with futures in flight drains deterministically, and ``max_pending``
admission is enforced for async submits.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from reference import assert_same_results
from repro.errors import PipelineError, ServiceError, WorkerError
from repro.parallel import FaultPlan, FaultSpec
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig
from repro.spectra.synthetic import SyntheticRunConfig, generate_run


@pytest.fixture(scope="module")
def stream_batches(tiny_db):
    """Six distinct batches — enough stream depth for real overlap."""
    spectra = generate_run(
        tiny_db.entries, SyntheticRunConfig(n_spectra=48, seed=91)
    )
    return [spectra[i * 8 : (i + 1) * 8] for i in range(6)]


@pytest.fixture(scope="module")
def stream_refs(tiny_db, stream_batches):
    engine = SerialSearchEngine(tiny_db)
    return [engine.run(batch) for batch in stream_batches]


@pytest.mark.parametrize("policy", ["cyclic", "chunk"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_pipelined_session_bit_identical_and_in_order(
    tiny_db, stream_batches, stream_refs, policy, n_workers
):
    """The acceptance matrix: >= 6 batches through submit_async, all
    bit-identical to the serial engine, futures resolving in
    submission order, on one resident pool."""
    config = ServiceConfig(
        n_workers=n_workers, policy=policy, max_pending=len(stream_batches)
    )
    done_order = []
    with SearchService(tiny_db, config) as service:
        pids = service.worker_pids()
        futures = [service.submit_async(batch) for batch in stream_batches]
        for i, future in enumerate(futures):
            future.add_done_callback(
                lambda f, i=i: done_order.append(i)
            )
        for i, (future, reference) in enumerate(zip(futures, stream_refs)):
            results, stats = future.result(timeout=120)
            assert_same_results(reference, results)
            assert stats.batch_index == i
            assert stats.respawned == 0
        assert service.worker_pids() == pids
        assert service.n_batches == len(stream_batches)
        # Deep submission queue: later batches waited and the pipeline
        # actually ran deep (depth grows with the async backlog).
        all_stats = service.batch_stats
        assert max(s.pipeline_depth for s in all_stats) >= 3
        assert any(s.overlap_s > 0.0 for s in all_stats)
    assert done_order == list(range(len(stream_batches)))


def test_pipelined_equals_sequential_submits(
    tiny_db, stream_batches, stream_refs
):
    """stream() and sequential submit() agree batch-for-batch (and with
    the serial engine) over the same session configuration."""
    config = ServiceConfig(n_workers=2, max_pending=3)
    with SearchService(tiny_db, config) as service:
        sequential = [service.submit(batch) for batch in stream_batches]
    with SearchService(tiny_db, config) as service:
        streamed = list(service.stream(iter(stream_batches)))
    assert len(streamed) == len(stream_batches)
    for (seq_res, _), (pipe_res, pipe_stats), reference in zip(
        sequential, streamed, stream_refs
    ):
        assert_same_results(reference, seq_res)
        assert_same_results(reference, pipe_res)
    # Streaming kept the pipeline within its admission bound.
    assert all(s.pipeline_depth <= 3 for _, s in streamed)


def test_worker_death_fails_only_its_batch(
    tiny_db, stream_batches, stream_refs
):
    """Rank 1 dies while it holds batch 1's query (batch 2 is already
    spilled by then — the pipeline prepares N+1 during N's round):
    batch 1's future fails with WorkerError, every other queued batch
    still returns bit-identical results.  The crash is a scheduled fault
    inside the worker, so the worker can never reply first."""
    config = ServiceConfig(
        n_workers=2,
        max_pending=4,
        fault_plan=FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=1, batch=1)
        ),
    )
    with SearchService(tiny_db, config) as service:
        futures = [service.submit_async(b) for b in stream_batches[:4]]
        with pytest.raises(WorkerError):
            futures[1].result(timeout=120)
        for i in (0, 2, 3):
            results, stats = futures[i].result(timeout=120)
            assert_same_results(stream_refs[i], results)
        assert service.respawn_total == 1
        # The session is still healthy for fresh submits afterwards.
        results, _ = service.submit(stream_batches[4])
        assert_same_results(stream_refs[4], results)


def test_close_with_futures_in_flight_drains(tiny_db, stream_batches, stream_refs):
    """close() while futures are pending completes every admitted
    batch before shutting the workers down — drains, never hangs."""
    config = ServiceConfig(n_workers=2, max_pending=4)
    service = SearchService(tiny_db, config).open()
    futures = [service.submit_async(b) for b in stream_batches[:4]]
    service.close()
    for future, reference in zip(futures, stream_refs):
        results, _ = future.result(timeout=5)  # already resolved by close
        assert_same_results(reference, results)
    assert not service.is_open
    with pytest.raises(ServiceError, match="not open"):
        service.submit_async(stream_batches[0])


def test_max_pending_rejection_under_submit_async(tiny_db, stream_batches):
    """The admission bound counts queued + in-flight async batches."""
    config = ServiceConfig(n_workers=2, max_pending=2)
    with SearchService(tiny_db, config) as service:
        # Stall the pipeline at the pool's dispatch gate so admitted
        # batches cannot complete while we probe the bound.
        service._pool._round_lock.acquire()
        try:
            f1 = service.submit_async(stream_batches[0])
            f2 = service.submit_async(stream_batches[1])
            with pytest.raises(ServiceError, match="admission queue full"):
                service.submit_async(stream_batches[2])
        finally:
            service._pool._round_lock.release()
        r1, s1 = f1.result(timeout=120)
        r2, s2 = f2.result(timeout=120)
        assert s1.batch_index == 0 and s2.batch_index == 1
        # Slots free again once the backlog drained.
        r3, s3 = service.submit(stream_batches[2])
        assert s3.batch_index == 2


def test_cancelled_future_skips_batch_session_survives(
    tiny_db, stream_batches, stream_refs
):
    """cancel() on a still-queued future is honoured (the batch never
    runs), cannot crash the pipeline thread, and frees its admission
    slot for later submits."""
    config = ServiceConfig(n_workers=2, max_pending=3)
    with SearchService(tiny_db, config) as service:
        # Stall the pipeline at the pool gate so the batches stay queued.
        service._pool._round_lock.acquire()
        try:
            f0 = service.submit_async(stream_batches[0])
            f1 = service.submit_async(stream_batches[1])
            f2 = service.submit_async(stream_batches[2])
            assert f1.cancel()  # still queued: cancellable
        finally:
            service._pool._round_lock.release()
        results, _ = f0.result(timeout=120)
        assert_same_results(stream_refs[0], results)
        assert f1.cancelled()
        results, _ = f2.result(timeout=120)
        assert_same_results(stream_refs[2], results)
        # The cancelled batch gave its admission slot back; a full new
        # window of submits is accepted and correct.
        futures = [service.submit_async(b) for b in stream_batches[3:6]]
        for future, reference in zip(futures, stream_refs[3:6]):
            results, _ = future.result(timeout=120)
            assert_same_results(reference, results)
        assert service.n_batches == 5  # every non-cancelled batch ran


def test_overlap_accounting_and_batch_echo(tiny_db, stream_batches):
    """BatchStats carries the pipeline's overlap accounting, and the
    merged reports really belong to the collected batch (worker echo)."""
    config = ServiceConfig(n_workers=2, max_pending=6)
    with SearchService(tiny_db, config) as service:
        outcomes = list(service.stream(iter(stream_batches)))
    stats = [s for _, s in outcomes]
    assert [s.batch_index for s in stats] == list(range(6))
    # The first batch enters an idle pipeline; successors of a busy one
    # record queue wait and prepared-under-round overlap.
    assert stats[0].wait_s >= 0.0
    assert any(s.wait_s > 0.0 for s in stats[1:])
    assert any(s.overlap_s > 0.0 for s in stats[1:])
    assert all(s.collect_wait_s >= 0.0 for s in stats)
    assert all(s.pipeline_depth >= 1 for s in stats)
    # total_s covers the master's stages; parallel_s sits inside it.
    assert all(s.total_s >= s.parallel_s > 0.0 for s in stats)


def test_stale_and_double_collect_guards(tiny_db, tiny_spectra):
    """Misusing the split-round protocol raises PipelineError, and the
    session keeps working afterwards."""
    from repro.parallel.worker import QueryTask, service_query_worker
    from repro.spectra.packed import PackedSpectra

    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        results, _ = service.submit(tiny_spectra)
        pool = service._pool
        # A payload with an offset table but no scan ids: refused.
        torn = replace(
            PackedSpectra.from_spectra(tiny_spectra),
            scan_ids=np.empty(0, dtype=np.int64),
        )
        task = QueryTask(spectra=torn, top_k=5)
        handle = pool.dispatch(service_query_worker, [task, task])
        with pytest.raises(PipelineError, match="already on the pipe"):
            pool.dispatch(service_query_worker, [task, task])
        with pytest.raises(WorkerError):
            handle.collect()
        with pytest.raises(PipelineError, match="already collected"):
            handle.collect()
        # The service rides the same pool and still works.
        results, stats = service.submit(tiny_spectra)
        assert stats.respawned == 0
