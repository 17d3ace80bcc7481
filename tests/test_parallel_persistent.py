"""Persistent-pool contract tests: residency, state, and failure modes.

The resident pool must amortize spawn cost (same worker PIDs across
batches, attach state intact) while guaranteeing that no failure mode
hangs — plus session survival: any worker failure fails at most the
in-flight batch, and the pool respawns and re-attaches dead ranks
automatically before the next one.
"""

import time

import pytest

from repro.errors import ConfigurationError, PipelineError, ServiceError, WorkerError
from repro.parallel import PersistentPool
from repro.parallel.persistent import RoundHandle, _decide
from repro.parallel.worker import (
    resident_attach,
    resident_attach_flagged,
    resident_crash,
    resident_echo,
    resident_exit,
    resident_sleep,
    resident_unpicklable_result,
)


@pytest.fixture()
def pool():
    p = PersistentPool(2, timeout=60.0)
    p.attach(resident_attach, ["state-a", "state-b"])
    yield p
    p.close()


def test_attach_reports_and_batches_in_rank_order(pool):
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]
    assert res.n_workers == 2
    assert res.respawned == 0


def test_single_worker_runs():
    with PersistentPool(1, timeout=60.0) as pool:
        pool.attach(resident_attach, ["solo"])
        res = pool.run_batch(resident_echo, [42])
    assert [r[:3] for r in res.results] == [(0, "solo", 42)]


def test_workers_stay_resident_across_batches(pool):
    """Same PIDs, same attach state, across three consecutive batches."""
    pids = pool.worker_pids()
    for i in range(3):
        res = pool.run_batch(resident_echo, [f"p{i}", f"q{i}"])
        # Echo carries (rank, state_payload, payload, attach_pid, now_pid):
        # the attach-time PID equals the batch-time PID equals the
        # master-visible PID — nobody was respawned.
        for rank, report in enumerate(res.results):
            assert report[1] == ("state-a", "state-b")[rank]
            assert report[3] == report[4] == pids[rank]
        assert res.respawned == 0
    assert pool.worker_pids() == pids
    assert pool.respawn_total == 0


def test_raise_mid_batch_fails_batch_keeps_worker(pool):
    """A raising batch surfaces WorkerError; the worker stays resident."""
    pids = pool.worker_pids()
    with pytest.raises(WorkerError, match="deliberate resident crash on rank 1"):
        pool.run_batch(resident_crash, [1, 1])
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert res.respawned == 0  # raising is not dying
    assert pool.worker_pids() == pids
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_death_mid_batch_surfaces_then_respawns(pool):
    """os._exit mid-batch → WorkerError with the exit code; the next
    batch runs on a respawned, re-attached worker."""
    pids = pool.worker_pids()
    with pytest.raises(WorkerError, match="exit code 21"):
        pool.run_batch(resident_exit, [0, 0])
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert res.respawned == 1
    # Rank 0 is a fresh process with replayed attach state; rank 1 kept.
    assert res.results[0][1] == "state-a"
    assert res.results[0][3] != pids[0]
    assert res.results[1][3] == pids[1]


def test_death_between_batches_is_invisible_to_the_caller(pool):
    """A worker killed while idle is respawned + re-attached before the
    next batch — the batch succeeds, only the stats show the respawn."""
    pool.run_batch(resident_echo, ["x", "y"])
    victim = pool._channels[1].proc
    victim.terminate()
    victim.join()
    res = pool.run_batch(resident_echo, ["p", "q"])
    assert res.respawned == 1
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "p"),
        (1, "state-b", "q"),
    ]


def _flagged_pool(tmp_path, n_flags, max_retries):
    """A 2-worker pool whose rank 1 attach crashes once per flag file
    (armed after the first attach), and the fault-free first round."""
    flags = tuple(str(tmp_path / f"crash-{i}") for i in range(n_flags))
    pool = PersistentPool(
        2, timeout=60.0, max_retries=max_retries, backoff_s=0.01
    )
    pool.attach(resident_attach_flagged, [("a", 0.0, ()), ("b", 0.0, flags)])
    clean = pool.run_batch(resident_echo, ["x", "y"])
    for flag in flags:
        open(flag, "w").close()
    victim = pool._channels[1].proc
    victim.terminate()
    victim.join()
    return pool, clean


def test_replayed_attach_at_dispatch_retries_within_the_budget(tmp_path):
    """Rank 1 dies between rounds and its replacement's first ATTACH
    crashes: the replay is retried like any failure, so the round heals
    (one retry, two respawns) with the fault-free round's results."""
    pool, clean = _flagged_pool(tmp_path, n_flags=1, max_retries=2)
    try:
        res = pool.run_batch(resident_echo, ["x", "y"])
        assert res.retries == 1
        assert res.respawned == 2
        assert [r[:3] for r in res.results] == [r[:3] for r in clean.results]
    finally:
        pool.close()


def test_replayed_attach_failure_after_retries_names_the_reattach(tmp_path):
    pool, _ = _flagged_pool(tmp_path, n_flags=2, max_retries=1)
    try:
        with pytest.raises(WorkerError, match="during re-attach") as excinfo:
            pool.run_batch(resident_echo, ["x", "y"])
        assert excinfo.value.rank == 1
        assert excinfo.value.exit_code == 7
        assert excinfo.value.retries == 1
        # The flags are spent: the next round respawns and heals.
        res = pool.run_batch(resident_echo, ["p", "q"])
        assert res.respawned == 1
        assert [r[:3] for r in res.results] == [(0, "a", "p"), (1, "b", "q")]
    finally:
        pool.close()


def test_reconfigure_reattaches_ranks_concurrently():
    """Three ranks whose attach takes 1.5 s re-attach in about 1.5 s,
    not 4.5 s one after another."""
    with PersistentPool(3, timeout=60.0) as pool:
        pool.attach(resident_attach_flagged, [(f"old{r}", 0.0, ()) for r in range(3)])
        t0 = time.monotonic()
        reports = pool.reconfigure(
            resident_attach_flagged, [(f"new{r}", 1.5, ()) for r in range(3)]
        ).results
        assert time.monotonic() - t0 < 3.0
        assert all(report is not None for report in reports)
        assert [report["attached"] for report in reports] == ["new0", "new1", "new2"]
        res = pool.run_batch(resident_echo, ["x", "y", "z"])
        assert [r[1] for r in res.results] == ["new0", "new1", "new2"]


def test_deadline_mid_batch_kills_straggler_session_survives():
    pool = PersistentPool(2, timeout=3.0)
    try:
        pool.attach(resident_attach, ["a", "b"])
        t0 = time.monotonic()
        with pytest.raises(WorkerError, match="deadline"):
            pool.run_batch(resident_sleep, [120.0, 0.0])
        assert time.monotonic() - t0 < 60.0
        res = pool.run_batch(resident_echo, ["x", "y"])
        assert res.respawned == 1  # the killed straggler came back
        assert [r[:3] for r in res.results] == [
            (0, "a", "x"),
            (1, "b", "y"),
        ]
    finally:
        pool.close()


def test_multi_worker_failure_surfaces_lowest_rank(pool):
    """When every worker fails a batch, the surfaced error names the
    lowest rank deterministically, not whichever reply arrived first."""
    with pytest.raises(WorkerError, match="worker 0 raised"):
        pool.run_batch(resident_crash, [0, 1])
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_unpicklable_payload_cannot_desync_the_pipes(pool):
    """A send-time pickling failure aborts the scatter without leaving
    already-dispatched workers' replies to poison the next round."""
    with pytest.raises(Exception) as excinfo:
        pool.run_batch(resident_echo, ["fine", lambda: None])
    assert "pickle" in str(excinfo.value).lower()
    # The next batch must see ITS payloads, not round-1 leftovers.
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_unpicklable_fn_raises_the_real_error(pool):
    """A callable the scatter cannot pickle re-raises its own pickling
    error — not an AssertionError from cleanup — and the pool stays
    usable."""
    with pytest.raises(Exception) as excinfo:
        pool.run_batch(lambda rank, size, state, payload: rank, ["x", "y"])
    assert not isinstance(excinfo.value, AssertionError)
    assert "pickle" in str(excinfo.value).lower()
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_unpicklable_result_reports_cause_worker_stays_resident(pool):
    """A reply the worker cannot pickle surfaces as WorkerError naming
    the cause; the worker keeps looping and answers the next round."""
    pids = pool.worker_pids()
    with pytest.raises(WorkerError, match="while sending the result"):
        pool.run_batch(resident_unpicklable_result, [None, None])
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert res.respawned == 0
    assert pool.worker_pids() == pids
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_double_close_and_commands_after_close(pool):
    pool.close()
    pool.close()  # idempotent
    assert pool.closed
    with pytest.raises(ServiceError, match="closed"):
        pool.run_batch(resident_echo, ["x", "y"])
    with pytest.raises(ServiceError, match="closed"):
        pool.attach(resident_attach, ["a", "b"])


def test_dispatch_collect_split_round(pool):
    """The non-blocking halves compose to exactly run_batch's result,
    and the master can work between them while the workers compute."""
    handle = pool.dispatch(resident_sleep, [0.2, 0.2])
    assert handle.pending
    assert handle.scatter_bytes > 0
    overlap_work = sum(range(1000))  # master-side work during the round
    res = handle.collect()
    assert not handle.pending
    assert res.results == [0.2, 0.2]
    assert res.scatter_bytes == handle.scatter_bytes
    assert overlap_work == 499500
    # The pipe is free again for ordinary blocking rounds.
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]
    assert res.scatter_bytes > 0


def test_single_round_on_the_pipe(pool):
    """A second dispatch before collect raises PipelineError and leaves
    the in-flight round collectable."""
    handle = pool.dispatch(resident_echo, ["x", "y"])
    with pytest.raises(PipelineError, match="already on the pipe"):
        pool.dispatch(resident_echo, ["p", "q"])
    res = handle.collect()
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]
    with pytest.raises(PipelineError, match="already collected"):
        handle.collect()


def test_shared_payload_pickled_once(pool):
    """One payload object for every rank costs one pickle: the scatter
    bytes equal n_workers x a single buffer, so a batch with a shared
    command is half the bytes of one with two distinct-but-equal
    payloads plus exactly the same results."""
    shared = {"task": "t", "blob": "x" * 4096}
    res_shared = pool.run_batch(resident_echo, [shared, shared])
    distinct = [{"task": "t", "blob": "x" * 4096} for _ in range(2)]
    res_distinct = pool.run_batch(resident_echo, distinct)
    assert [r[2] for r in res_shared.results] == [shared, shared]
    assert res_shared.scatter_bytes == res_distinct.scatter_bytes
    assert res_shared.scatter_bytes % 2 == 0  # two sends of one buffer
    # ... and the per-send buffer really carries the payload.
    assert res_shared.scatter_bytes > 2 * 4096


def test_death_between_dispatch_and_collect(pool):
    """A worker killed while its round is on the pipe fails collect()
    with WorkerError; the next round respawns and is correct."""
    handle = pool.dispatch(resident_sleep, [30.0, 0.0])
    pool._channels[0].proc.terminate()
    with pytest.raises(WorkerError, match="died mid-batch"):
        handle.collect()
    res = pool.run_batch(resident_echo, ["x", "y"])
    assert res.respawned == 1
    assert [r[:3] for r in res.results] == [
        (0, "state-a", "x"),
        (1, "state-b", "y"),
    ]


def test_close_with_uncollected_round_never_hangs():
    """close() while a round is dispatched but not being collected
    aborts it: close returns promptly and collect() raises instead of
    hanging on terminated workers."""
    pool = PersistentPool(2, timeout=60.0)
    pool.attach(resident_attach, ["a", "b"])
    handle = pool.dispatch(resident_sleep, [30.0, 30.0])
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < 30.0
    with pytest.raises(PipelineError, match="closed while this round"):
        handle.collect()
    with pytest.raises(ServiceError, match="closed"):
        pool.dispatch(resident_echo, ["x", "y"])


# -- the retry rule, without processes ---------------------------------


def test_retry_rule_table():
    """Every failure's fate over attempts 0..R+1 x hedge racing x
    command x degraded_ok: retry while attempts <= R, then defer while
    a hedge races, then degrade (QUERY + degraded_ok only) or fail."""
    R = 2
    for attempt in range(R + 2):
        for racing in (False, True):
            for command in ("attach", "query"):
                for degraded_ok in (False, True):
                    decision = _decide(attempt, R, racing, command, degraded_ok)
                    if attempt <= R:
                        expected = "retry"
                    elif racing:
                        expected = "defer"
                    elif command == "query" and degraded_ok:
                        expected = "degrade"
                    else:
                        expected = "fail"  # attach rounds never degrade
                    assert decision == expected, (attempt, racing, command, degraded_ok)


def test_round_surfaces_the_lowest_failing_rank():
    job = RoundHandle(None, "query", None, [None] * 3, 1.0)
    job.failed[2] = WorkerError("rank 2", rank=2)
    job.failed[1] = WorkerError("rank 1", rank=1)
    with pytest.raises(WorkerError) as excinfo:
        job._result()
    assert excinfo.value.rank == 1
    masked = RoundHandle(None, "query", None, [None] * 3, 1.0)
    masked.degraded[2] = WorkerError("rank 2", rank=2)
    res = masked._result()
    assert res.failed_ranks == (2,) and res.results[2] is None


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PersistentPool(0)
    with pytest.raises(ConfigurationError):
        PersistentPool(1, timeout=0.0)
    pool = PersistentPool(2, timeout=30.0)
    try:
        with pytest.raises(ConfigurationError):
            pool.attach(resident_attach, ["only-one"])
        with pytest.raises(ConfigurationError):
            pool.run_batch(resident_echo, ["only-one"])
    finally:
        pool.close()
