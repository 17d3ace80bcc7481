"""Chaos suite: fault injection × supervision = bit-identical sessions.

The acceptance bar from the issue: with ``max_retries >= 1``, a
session hit by any fault class (crash / raise / hang / slow) at any
worker stage (spawn / attach / query / reply) completes every batch
bit-identical to the serial engine, in submission order, without
hanging — for sequential and pipelined submits at 2 and 3 workers.
Faults are scheduled through :mod:`repro.parallel.faults`: exact
(rank, stage, batch) coordinates, once-only across respawns via an
on-disk ledger, so a healed worker's replacement does not re-fire the
fault that killed its predecessor.

Hang cases run under a deliberately short round deadline so the
deadline-kill → respawn → re-dispatch path is exercised in seconds,
not the production timeout.
"""

import os
import time

import pytest

from reference import assert_same_results
from repro.errors import ConfigurationError, WorkerError
from repro.parallel import FaultInjected, FaultPlan, FaultSpec, PersistentPool, maybe_inject
from repro.parallel.faults import FAULT_PLAN_ENV
from repro.parallel.worker import (
    resident_attach,
    resident_attach_flagged,
    resident_echo,
    resident_sleep,
)
from repro.search.psm import RankStats
from repro.search.report import read_psm_report, write_psm_report
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig

# Hang faults sleep far past the round deadline; the short deadline is
# what converts them into the kill → respawn → retry path quickly.
_HANG_S = 30.0
_HANG_TIMEOUT = 6.0


def _spec(kind: str, stage: str, **kw) -> FaultSpec:
    """A fault aimed at rank 1 (batch 1 for per-batch stages)."""
    if stage in ("query", "reply"):
        kw.setdefault("batch", 1)
    if kind == "hang":
        kw.setdefault("seconds", _HANG_S)
    elif kind == "slow":
        kw.setdefault("seconds", 0.4)
    return FaultSpec(kind=kind, stage=stage, rank=1, **kw)


def _config(kind: str, n_workers: int = 2, **kw) -> ServiceConfig:
    kw.setdefault("max_retries", 2)
    kw.setdefault("retry_backoff_s", 0.01)
    if kind == "hang":
        kw.setdefault("timeout", _HANG_TIMEOUT)
    return ServiceConfig(n_workers=n_workers, **kw)


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


@pytest.fixture(scope="module")
def serial_refs(tiny_db, batches):
    engine = SerialSearchEngine(tiny_db)
    return [engine.run(batch) for batch in batches]


def _run_session(tiny_db, batches, config, pipelined):
    with SearchService(tiny_db, config) as service:
        if pipelined:
            outcomes = list(service.stream(iter(batches)))
        else:
            outcomes = [service.submit(batch) for batch in batches]
    return outcomes


# -- the full fault-class × stage sweep (sequential, 2 workers) ---------

_SWEEP = [
    (kind, stage)
    for kind in ("crash", "raise", "hang", "slow")
    for stage in ("spawn", "attach", "query", "reply")
]


@pytest.mark.parametrize(
    "kind,stage", _SWEEP, ids=[f"{k}-{s}" for k, s in _SWEEP]
)
def test_every_fault_class_at_every_stage_heals(
    tiny_db, batches, serial_refs, kind, stage
):
    """One fault at (rank 1, ``stage``): the session must still return
    every batch bit-identical to the serial engine, in order."""
    plan = FaultPlan.scoped(_spec(kind, stage))
    config = _config(kind, fault_plan=plan)
    outcomes = _run_session(tiny_db, batches, config, pipelined=False)
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
        assert not results.is_degraded
    if kind in ("crash", "raise", "hang") and stage in ("query", "reply"):
        # The faulted batch was retried; fault-free batches were not.
        assert outcomes[1][1].retries >= 1
        assert outcomes[0][1].retries == 0
        assert outcomes[2][1].retries == 0


# -- sequential + pipelined at {2,3} workers (representative faults) ----

_MATRIX_FAULTS = [("crash", "query"), ("hang", "query")]


@pytest.mark.parametrize("n_workers", [2, 3], ids=["w2", "w3"])
@pytest.mark.parametrize("pipelined", [False, True], ids=["seq", "pipe"])
@pytest.mark.parametrize(
    "kind,stage", _MATRIX_FAULTS, ids=[f"{k}-{s}" for k, s in _MATRIX_FAULTS]
)
def test_fault_matrix_modes_and_worker_counts(
    tiny_db, batches, serial_refs, kind, stage, pipelined, n_workers
):
    """Representative faults across {sequential, pipelined} × {2,3}
    workers: supervision is mode- and width-independent."""
    plan = FaultPlan.scoped(_spec(kind, stage))
    config = _config(kind, n_workers=n_workers, fault_plan=plan)
    outcomes = _run_session(tiny_db, batches, config, pipelined)
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
    assert sum(stats.retries for _, stats in outcomes) >= 1


def test_back_to_back_crashes_same_rank_consecutive_pipelined_batches(
    tiny_db, batches, serial_refs
):
    """Rank 1 crashes in batch 0 AND its respawned replacement crashes
    again in batch 1 — the pipelined session must heal both without
    leaking pipe state or desyncing the batch_index echo."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0),
        FaultSpec(kind="crash", stage="query", rank=1, batch=1, exit_code=23),
    )
    config = _config("crash", fault_plan=plan)
    outcomes = _run_session(tiny_db, batches, config, pipelined=True)
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
    assert outcomes[0][1].retries >= 1
    assert outcomes[1][1].retries >= 1
    assert outcomes[0][1].respawned + outcomes[1][1].respawned >= 2


# -- graceful degradation ----------------------------------------------


def test_degraded_ok_returns_partial_results_with_exact_mask(
    tiny_db, batches, serial_refs, tmp_path
):
    """A persistent fault (fires on every retry) with ``degraded_ok``:
    the faulted batch returns partial results carrying the exact
    coverage mask; the other batches stay full and bit-identical."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1, once=False)
    )
    config = _config(
        "crash", max_retries=1, degraded_ok=True, fault_plan=plan
    )
    outcomes = _run_session(tiny_db, batches, config, pipelined=False)
    assert_same_results(serial_refs[0], outcomes[0][0])
    assert_same_results(serial_refs[2], outcomes[2][0])
    degraded, stats = outcomes[1]
    assert degraded.is_degraded
    assert degraded.degraded_ranks == (1,)
    assert stats.degraded_ranks == (1,)
    assert stats.retries == 1
    # Rank stats come from the replies: the degraded rank has none.
    assert degraded.rank_stats[1] == RankStats(rank=1)
    assert degraded.rank_stats[0].build_time > 0
    # Partial coverage is real: rank 1's partition contributed nothing.
    assert degraded.total_cpsms < serial_refs[1].total_cpsms
    # ... and explicit on disk: the report is annotated and readable.
    report = tmp_path / "degraded.tsv"
    write_psm_report(report, degraded, tiny_db.entries)
    assert report.read_text().startswith("# degraded_ranks: 1\n")
    assert len(read_psm_report(report)) == sum(
        len(s.psms) for s in degraded.spectra
    )


def test_default_is_fail_loud_with_structured_diagnosis(tiny_db, batches):
    """Without ``degraded_ok`` the same persistent fault fails the
    batch with a structured WorkerError; the session survives it."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0,
                  once=False, exit_code=23)
    )
    config = _config("crash", max_retries=1, fault_plan=plan)
    with SearchService(tiny_db, config) as service:
        with pytest.raises(WorkerError) as excinfo:
            service.submit(batches[0])
        exc = excinfo.value
        assert exc.rank == 1
        assert exc.exit_code == 23
        assert exc.retries == 1
        assert "rank 1" in exc.brief and "exit code 23" in exc.brief
        # Batch 1 is fault-free (spec targets batch 0 only by index,
        # but once=False re-fires per attempt of batch 0 alone).
        results, stats = service.submit(batches[1])
        assert stats.respawned >= 1


# -- straggler hedging -------------------------------------------------


def test_hedge_beats_straggler_and_promotes_winner(
    tiny_db, batches, serial_refs
):
    """A once-only slow fault stalls rank 1; the hedge's fresh worker
    skips the already-claimed fault, answers first, and is promoted
    into the resident pool — results stay bit-identical."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="slow", stage="query", rank=1, batch=1, seconds=8.0)
    )
    config = _config(
        "slow", max_retries=0, hedge_after=0.5, fault_plan=plan
    )
    outcomes = _run_session(tiny_db, batches, config, pipelined=False)
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
    assert outcomes[1][1].hedged >= 1
    assert outcomes[1][1].respawned >= 1  # promotion replaces the loser
    # The hedge resolved the round long before the 8 s straggle.
    assert outcomes[1][1].total_s < 8.0


# -- pool-level fast paths ---------------------------------------------


def test_pool_crash_heals_with_retry_accounting():
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0)
    )
    pool = PersistentPool(2, timeout=60.0, max_retries=1,
                          backoff_s=0.01, fault_plan=plan)
    try:
        pool.attach(resident_attach, ["a", "b"])
        res = pool.run_batch(resident_echo, ["x", "y"])
        assert [r[:3] for r in res.results] == [
            (0, "a", "x"), (1, "b", "y"),
        ]
        assert res.retries == 1
        assert res.respawned == 1
        assert res.failed_ranks == ()
    finally:
        pool.close()


def test_pool_replay_hang_leaves_other_ranks_deadline_alone(tmp_path):
    """Rank 1 crashes mid-query; its respawn's replayed ATTACH hangs
    until the deadline kills it, and a second respawn heals.  Rank 0
    answers while rank 1's replay hangs: its reply is consumed, its
    deadline never moves, and it is neither retried nor respawned."""
    hang = tmp_path / "replay.hang"
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0)
    )
    pool = PersistentPool(2, timeout=4.0, max_retries=2, backoff_s=0.01,
                          fault_plan=plan)
    try:
        pool.attach(resident_attach_flagged,
                    [("a", 0.0, ()), ("b", 0.0, (str(hang),))])
        pid0 = pool.worker_pids()[0]
        hang.touch()
        start = time.monotonic()
        res = pool.run_batch(resident_sleep, [2.0, 0.0])
        assert res.results == [2.0, 0.0]
        assert res.retries == 2 and res.respawned == 2
        assert pool.worker_pids()[0] == pid0
        assert res.wall_times[0] < 4.0
        assert time.monotonic() - start < 30.0
    finally:
        pool.close()


def test_pool_degraded_round_masks_failed_rank():
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0, once=False)
    )
    pool = PersistentPool(2, timeout=60.0, max_retries=1, backoff_s=0.01,
                          degraded_ok=True, fault_plan=plan)
    try:
        pool.attach(resident_attach, ["a", "b"])
        res = pool.run_batch(resident_echo, ["x", "y"])
        assert res.failed_ranks == (1,)
        assert res.results[1] is None
        assert res.results[0][:3] == (0, "a", "x")
    finally:
        pool.close()


# -- the fault plan itself ---------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="explode", stage="query")
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="crash", stage="nowhere")
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="slow", stage="query", seconds=-1.0)


def test_fault_plan_json_roundtrip_and_env(monkeypatch, tmp_path):
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="crash", stage="query", rank=1, batch=2),
            FaultSpec(kind="slow", stage="attach", seconds=0.5, once=False),
        ),
        ledger_dir=str(tmp_path),
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.specs == plan.specs
    assert clone.ledger_dir == plan.ledger_dir
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env_value())
    from_env = FaultPlan.from_env()
    assert from_env is not None and from_env.specs == plan.specs
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert FaultPlan.from_env() is None


def test_once_only_ledger_claims_across_plan_copies(tmp_path):
    """The on-disk ledger is what makes ``once`` machine-wide: a
    *different* deserialized copy of the plan (= a respawned worker)
    must see the fault as already fired."""
    plan = FaultPlan(
        specs=(FaultSpec(kind="raise", stage="query", rank=0, batch=0),),
        ledger_dir=str(tmp_path),
    )
    with pytest.raises(FaultInjected):
        maybe_inject(plan, 0, "query", 0)
    clone = FaultPlan.from_json(plan.to_json())  # fresh object, same ledger
    maybe_inject(clone, 0, "query", 0)  # already claimed: no-op
    assert maybe_inject(None, 0, "query", 0) is None  # no plan: no-op


def test_scoped_ledger_is_owned_and_removed_with_its_plan(tmp_path):
    """A scoped plan's ledger names this process as its owner, goes
    when the plan is collected, and an orphaned one is swept."""
    import gc

    from repro.parallel.shared_arena import sweep_stale_stores

    plan = FaultPlan.scoped(FaultSpec(kind="raise", stage="query", rank=0, batch=0))
    ledger = plan.ledger_dir
    assert os.path.basename(ledger).startswith("repro-faults-")
    with open(os.path.join(ledger, "owner.pid"), encoding="ascii") as marker:
        assert int(marker.read()) == os.getpid()
    with pytest.raises(FaultInjected):
        maybe_inject(plan, 0, "query", 0)
    del plan
    gc.collect()
    assert not os.path.exists(ledger)
    orphan = tmp_path / "repro-faults-orphan"
    orphan.mkdir()
    (orphan / "spec0.fired").write_text("1\n", encoding="ascii")
    os.utime(orphan, (time.time() - 7200.0,) * 2)
    assert sweep_stale_stores(root=tmp_path) == 1 and not orphan.exists()


def test_slow_fault_delays_without_failing():
    plan = FaultPlan.scoped(
        FaultSpec(kind="slow", stage="query", rank=0, batch=0, seconds=0.3)
    )
    pool = PersistentPool(2, timeout=60.0, fault_plan=plan)
    try:
        pool.attach(resident_attach, ["a", "b"])
        start = time.monotonic()
        res = pool.run_batch(resident_echo, ["x", "y"])
        assert time.monotonic() - start >= 0.3
        assert res.retries == 0 and res.respawned == 0
        assert [r[0] for r in res.results] == [0, 1]
    finally:
        pool.close()
