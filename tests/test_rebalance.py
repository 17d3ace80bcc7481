"""Elastic rebalancing: policy windows, live migration, bit-identity.

The acceptance bar from the issue: with ``rebalance_li`` armed, a
session under a sustained per-rank slowdown migrates its plan between
rounds (and can grow the pool) while every batch — before, during and
after every migration and resize — stays bit-identical to the serial
engine, across {sequential, pipelined} x {2, 3} workers, sharded and
unsharded.  The decision layer (:class:`RebalancePolicy`) is unit
tested without processes; the satellites (recurring ``slow`` faults,
windowed gauge watermarks, retry-of-retry during re-attach) ride
along.
"""

import json
import time

import numpy as np
import pytest

from reference import assert_same_results
from repro.errors import ConfigurationError, ServiceError
from repro.obs import Gauge, JsonlTracer, MetricsRegistry, validate_trace_file
from repro.parallel.faults import FaultPlan, FaultSpec, maybe_inject
from repro.search.serial import SerialSearchEngine
from repro.service import (
    RebalanceConfig,
    RebalanceDecision,
    RebalancePolicy,
    SearchService,
    ServiceConfig,
    ShardedSearchService,
)


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


@pytest.fixture(scope="module")
def serial_refs(tiny_db, batches):
    engine = SerialSearchEngine(tiny_db)
    return [engine.run(batch) for batch in batches]


#: Recurring straggler: rank 0 runs every command body 3x slower —
#: the heterogeneous-host model the elastic session exists to absorb.
def _slow_rank0_plan(scale=2.0):
    return FaultPlan(
        [
            FaultSpec(
                kind="slow",
                stage="reply",
                rank=0,
                every_batch=True,
                scale=scale,
            )
        ]
    )


# -- RebalanceConfig ---------------------------------------------------


def test_rebalance_config_validation():
    with pytest.raises(ConfigurationError):
        RebalanceConfig(li_threshold=-0.1)
    with pytest.raises(ConfigurationError):
        RebalanceConfig(window=0)
    with pytest.raises(ConfigurationError):
        RebalanceConfig(cooldown=-1)
    with pytest.raises(ConfigurationError):
        RebalanceConfig(min_workers=0)
    with pytest.raises(ConfigurationError):
        RebalanceConfig(min_workers=4, max_workers=2)
    with pytest.raises(ConfigurationError):
        RebalanceConfig(slow_rank_speed=1.0)


def test_rebalance_config_clamp():
    cfg = RebalanceConfig(min_workers=2, max_workers=4)
    assert cfg.clamp(1) == 2
    assert cfg.clamp(3) == 3
    assert cfg.clamp(9) == 4
    unbounded = RebalanceConfig()
    assert unbounded.clamp(7) == 7
    assert unbounded.clamp(0) == 1


def test_service_config_validates_rebalance_knobs_eagerly():
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_workers=2, rebalance_li=0.3, rebalance_window=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_workers=2, rebalance_li=-1.0)
    # Unarmed: the elastic knobs are not even constructed.
    assert ServiceConfig(n_workers=2).rebalance_config() is None


# -- RebalancePolicy windows -------------------------------------------


def _skewed(policy, n=2, slow=3.0):
    """One skewed observation: rank 0 at ``slow``, the rest at 1.0."""
    walls = tuple([slow] + [1.0] * (n - 1))
    return policy.observe(walls, walls)


def test_policy_decides_only_on_full_windows():
    policy = RebalancePolicy(RebalanceConfig(li_threshold=0.3, window=3), 2)
    assert _skewed(policy) is None
    assert _skewed(policy) is None
    decision = _skewed(policy)
    assert isinstance(decision, RebalanceDecision)
    assert decision.reason == "li"
    assert decision.n_workers == 2
    assert decision.window_li == pytest.approx(0.5)
    # Speeds are unit-mean, slow rank below the fast one.
    assert np.mean(decision.speeds) == pytest.approx(1.0)
    assert decision.speeds[0] < decision.speeds[1]
    assert policy.trigger_total == 1


def test_policy_balanced_window_is_quiet():
    policy = RebalancePolicy(RebalanceConfig(li_threshold=0.3, window=2), 2)
    assert policy.observe((1.0, 1.0), (1.0, 1.0)) is None
    assert policy.observe((1.0, 1.0), (1.0, 1.0)) is None
    assert policy.trigger_total == 0


def test_policy_discards_vectors_straddling_a_resize():
    policy = RebalancePolicy(RebalanceConfig(li_threshold=0.3, window=2), 2)
    assert _skewed(policy) is None
    # A 3-wide vector (pool already resized, policy not yet told)
    # is stale — dropped, not accumulated.
    assert policy.observe((3.0, 1.0, 1.0), (3.0, 1.0, 1.0)) is None
    assert _skewed(policy) is not None  # second 2-wide completes it


def test_policy_cooldown_swallows_first_window_after_migration():
    policy = RebalancePolicy(
        RebalanceConfig(li_threshold=0.3, window=1, cooldown=1), 2
    )
    assert _skewed(policy) is not None
    policy.rebalanced(2, np.array([0.5, 1.5]))
    # First full post-migration window: still skewed but inside the
    # cooldown — judged only after an untainted window elapses.
    assert _skewed(policy) is None
    assert _skewed(policy) is not None


def test_policy_slow_rank_gated_on_residual_imbalance():
    """A compensated slow host keeps a low inferred speed forever;
    with the walls balanced that must NOT re-trigger."""
    policy = RebalancePolicy(
        RebalanceConfig(li_threshold=0.5, window=1, cooldown=0),
        2,
        work_shares=np.array([0.2, 0.8]),
    )
    # Equal walls under a 0.2/0.8 split: inferred speeds ~ (0.4, 1.6),
    # min well below slow_rank_speed=0.5 — but LI = 0, so quiet.
    assert policy.observe((1.0, 1.0), (1.0, 1.0)) is None
    # Residual imbalance above half the threshold re-arms the tripwire
    # even though the aggregate LI (1/3) stays below it: rank 0 runs
    # 2x wall on a fifth of the work — chronically slow.
    decision = policy.observe((2.0, 1.0), (2.0, 1.0))
    assert decision is not None and decision.reason == "slow_rank"


def test_policy_escalates_to_growth_on_second_consecutive_trip():
    policy = RebalancePolicy(
        RebalanceConfig(li_threshold=0.3, window=1, cooldown=0, max_workers=3),
        2,
    )
    first = _skewed(policy)
    assert first.reason == "li" and first.n_workers == 2
    second = _skewed(policy)
    assert second.reason == "escalate_grow" and second.n_workers == 3
    # A calm window resets the streak: the next trip is back to "li".
    assert policy.observe((1.0, 1.0), (1.0, 1.0)) is None
    assert _skewed(policy).reason == "li"


def test_policy_escalation_respects_max_workers():
    policy = RebalancePolicy(
        RebalanceConfig(li_threshold=0.3, window=1, cooldown=0, max_workers=2),
        2,
    )
    assert _skewed(policy).n_workers == 2
    second = _skewed(policy)
    assert second.n_workers == 2 and second.reason == "li"


# -- satellite: recurring slow faults ----------------------------------


def test_fault_spec_every_batch_and_scale_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="crash", stage="query", every_batch=True)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="raise", stage="query", scale=1.0)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="slow", stage="attach", every_batch=True)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="slow", stage="reply", scale=-1.0)
    # The legal shape: a batch-bearing stage, slow kind.
    FaultSpec(kind="slow", stage="reply", every_batch=True, scale=2.0)


def test_recurring_slow_fault_fires_on_every_batch():
    plan = FaultPlan(
        [FaultSpec(kind="slow", stage="reply", rank=0, every_batch=True,
                   seconds=0.02)]
    )
    start = time.perf_counter()
    for batch in range(3):
        maybe_inject(plan, 0, "reply", batch)
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.05  # all three fired, no once-only ledger
    # ... and scale stretches the observed command body.
    scaled = FaultPlan(
        [FaultSpec(kind="slow", stage="reply", rank=0, every_batch=True,
                   scale=2.0)]
    )
    start = time.perf_counter()
    maybe_inject(scaled, 0, "reply", 0, work_s=0.02)
    assert time.perf_counter() - start >= 0.035
    # Wrong rank: nothing fires.
    start = time.perf_counter()
    maybe_inject(scaled, 1, "reply", 0, work_s=5.0)
    assert time.perf_counter() - start < 1.0


# -- satellite: windowed gauge watermarks ------------------------------


def test_gauge_windowed_watermarks_reset_independently_of_lifetime():
    g = Gauge("service.batch_li_wall")
    assert g.read_watermarks() == {"min": 0.0, "max": 0.0, "n_updates": 0}
    for v in (0.4, 0.9, 0.2):
        g.set(v)
    first = g.read_watermarks(reset=True)
    assert first == {"min": 0.2, "max": 0.9, "n_updates": 3}
    # Window cleared; lifetime watermarks untouched.
    assert g.read_watermarks() == {"min": 0.0, "max": 0.0, "n_updates": 0}
    assert g.as_dict()["max"] == 0.9 and g.as_dict()["n_updates"] == 3
    g.set(0.5)
    assert g.read_watermarks(reset=False) == {
        "min": 0.5, "max": 0.5, "n_updates": 1,
    }
    # reset=False peeked without clearing.
    assert g.read_watermarks()["n_updates"] == 1


# -- live sessions: automatic migration, bit-identity ------------------


@pytest.mark.parametrize("n_workers", [2, 3])
def test_auto_migration_bit_identical_sequential(
    tiny_db, batches, serial_refs, n_workers
):
    """Sustained 3x slowdown on rank 0: the armed session migrates at
    least once and every batch stays bit-identical to serial."""
    config = ServiceConfig(
        n_workers=n_workers,
        fault_plan=_slow_rank0_plan(),
        max_retries=1,
        rebalance_li=0.3,
        rebalance_window=1,
        rebalance_cooldown=1,
    )
    stream = (batches * 2)[:5]
    refs = (serial_refs * 2)[:5]
    with SearchService(tiny_db, config) as service:
        for batch, reference in zip(stream, refs):
            results, stats = service.submit(batch)
            assert_same_results(reference, results)
            assert results.n_ranks == n_workers
            # The policy's food: master-observed per-rank round walls.
            assert len(stats.round_wall_s) == n_workers
            assert all(w > 0 for w in stats.round_wall_s)
        assert service.rebalance_total >= 1
        assert service.n_workers == n_workers  # no bounds: size pinned


def test_auto_migration_bit_identical_pipelined(tiny_db, batches, serial_refs):
    config = ServiceConfig(
        n_workers=2,
        max_pending=3,
        fault_plan=_slow_rank0_plan(),
        max_retries=1,
        rebalance_li=0.3,
        rebalance_window=1,
        rebalance_cooldown=1,
    )
    stream = (batches * 2)[:6]
    refs = (serial_refs * 2)[:6]
    with SearchService(tiny_db, config) as service:
        outcomes = list(service.stream(iter(stream)))
        migrations = service.rebalance_total
    assert len(outcomes) == len(stream)
    for (results, _), reference in zip(outcomes, refs):
        assert_same_results(reference, results)
    assert migrations >= 1


def test_auto_grow_with_bounds_under_sustained_imbalance(
    tiny_db, batches, serial_refs
):
    """Escalation end-to-end: when re-weighting cannot calm the LI
    window, the session grows the pool — within max_workers — and
    results never change."""
    config = ServiceConfig(
        n_workers=2,
        fault_plan=_slow_rank0_plan(scale=4.0),
        max_retries=1,
        rebalance_li=0.05,  # trips every window
        rebalance_window=1,
        rebalance_cooldown=0,
        max_workers=3,
    )
    stream = (batches * 3)[:8]
    refs = (serial_refs * 3)[:8]
    with SearchService(tiny_db, config) as service:
        for batch, reference in zip(stream, refs):
            results, _ = service.submit(batch)
            assert_same_results(reference, results)
        grown = service.n_workers
        assert service.rebalance_total >= 1
    assert grown == 3


# -- explicit rebalance(): resize + re-plan ----------------------------


def test_explicit_grow_shrink_replan_bit_identical(
    tiny_db, batches, serial_refs
):
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        results, _ = service.submit(batches[0])
        assert_same_results(serial_refs[0], results)

        summary = service.rebalance(n_workers=3)
        assert summary["migrated"] is True
        assert summary["n_workers"] == 3
        assert service.n_workers == 3
        results, _ = service.submit(batches[1])
        assert_same_results(serial_refs[1], results)
        assert results.n_ranks == 3

        summary = service.rebalance(n_workers=2, speeds=[1.0, 2.0])
        assert summary["n_workers"] == 2 and service.n_workers == 2
        results, _ = service.submit(batches[2])
        assert_same_results(serial_refs[2], results)
        assert results.n_ranks == 2

        # Same size, equal speeds: a plain re-plan — possibly a no-op,
        # but never a changed answer.
        summary = service.rebalance(reason="manual")
        assert summary["n_workers"] == 2
        results, _ = service.submit(batches[0])
        assert_same_results(serial_refs[0], results)
        assert service.rebalance_total >= 2


def test_rank_stats_after_a_grow_come_from_the_new_ranks(
    tiny_db, batches, serial_refs
):
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        service.submit(batches[0])
        service.rebalance(n_workers=3)
        results, _ = service.submit(batches[1])
    assert_same_results(serial_refs[1], results)
    assert [s.rank for s in results.rank_stats] == [0, 1, 2]
    assert all(s.build_time > 0 and s.n_ions > 0 for s in results.rank_stats)
    assert sum(s.n_entries for s in results.rank_stats) == tiny_db.n_entries


def test_explicit_rebalance_validation_and_clamping(tiny_db, batches):
    config = ServiceConfig(n_workers=2, min_workers=2, max_workers=3)
    with SearchService(tiny_db, config) as service:
        service.submit(batches[0])
        with pytest.raises(ConfigurationError):
            service.rebalance(n_workers=0)
        with pytest.raises(ConfigurationError):
            service.rebalance(n_workers=2, speeds=[1.0, -1.0])
        with pytest.raises(ConfigurationError):
            service.rebalance(n_workers=2, speeds=[1.0, 1.0, 1.0])
        # Out-of-bounds targets are clamped, not rejected.
        summary = service.rebalance(n_workers=9)
        assert summary["n_workers"] == 3 and service.n_workers == 3
        summary = service.rebalance(n_workers=1)
        assert summary["n_workers"] == 2 and service.n_workers == 2
    with pytest.raises(ServiceError):
        service.rebalance(n_workers=2)  # closed session


def test_explicit_rebalance_waits_for_a_queued_automatic_decision(
    tiny_db, batches, serial_refs
):
    """The automatic policy's own decision sits in the slot until the
    next between-rounds point; an explicit ``rebalance()`` arriving in
    that gap must queue behind it (bounded by its timeout), not fail
    with "already pending".  The pipeline thread is held at the gate so
    the interleaving is forced, not raced."""
    import threading

    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as service:
        service.submit(batches[0])
        gate = threading.Event()
        apply_pending = service._stage_rebalance

        def gated_stage_rebalance():
            gate.wait()
            apply_pending()

        service._stage_rebalance = gated_stage_rebalance
        automatic = RebalanceDecision(
            speeds=(1.0, 1.0), n_workers=2, window_li=0.5, reason="li"
        )
        with service._state.cond:
            service._pending_decision = (automatic, None)

        outcome = {}

        def explicit():
            try:
                outcome["summary"] = service.rebalance(n_workers=3, timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - asserted on below
                outcome["error"] = exc

        caller = threading.Thread(target=explicit)
        try:
            # Slot still taken when the caller's patience runs out.
            with pytest.raises(ServiceError, match="still pending"):
                service.rebalance(n_workers=3, timeout=0.2)
            caller.start()
            caller.join(0.3)
            assert caller.is_alive() and not outcome  # waiting, not refused
        finally:
            gate.set()  # never leave the pipeline thread parked
        caller.join(60.0)
        assert not caller.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["summary"]["n_workers"] == 3 and service.n_workers == 3
        results, _ = service.submit(batches[1])
        assert_same_results(serial_refs[1], results)


# -- satellite: retry-of-retry during re-attach ------------------------


def test_worker_dies_during_reattach_after_respawn(
    tiny_db, batches, serial_refs
):
    """Open-time double fault: rank 1 crashes in ATTACH, its respawned
    replacement crashes in the re-attach too; the second respawn
    heals.  The session then serves bit-identical batches."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="attach", rank=1),
        FaultSpec(kind="crash", stage="attach", rank=1, exit_code=23),
    )
    config = ServiceConfig(
        n_workers=2, max_retries=2, retry_backoff_s=0.01, fault_plan=plan
    )
    with SearchService(tiny_db, config) as service:
        assert service.respawn_total >= 2
        for batch, reference in zip(batches, serial_refs):
            results, _ = service.submit(batch)
            assert_same_results(reference, results)


def test_fresh_rank_crashes_during_migration_attach(
    tiny_db, batches, serial_refs
):
    """Migration-time retry: growing 2 -> 3 spawns rank 2, whose very
    first ATTACH (inside reconfigure) crashes.  The per-rank retry
    respawns it and the migration completes; results never change."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="attach", rank=2),
    )
    config = ServiceConfig(
        n_workers=2, max_retries=2, retry_backoff_s=0.01, fault_plan=plan
    )
    with SearchService(tiny_db, config) as service:
        results, _ = service.submit(batches[0])
        assert_same_results(serial_refs[0], results)
        assert service.respawn_total == 0  # rank 2 does not exist yet

        summary = service.rebalance(n_workers=3)
        assert summary["migrated"] is True and summary["n_workers"] == 3
        assert service.respawn_total >= 1  # the crash happened and healed

        for batch, reference in zip(batches, serial_refs):
            results, _ = service.submit(batch)
            assert_same_results(reference, results)
            assert results.n_ranks == 3


# -- sharded tier ------------------------------------------------------


def test_sharded_fleet_rebalances_per_shard_bit_identical(
    tiny_db, batches, serial_refs
):
    """Each shard runs its own policy off the same frozen config; the
    fleet view aggregates migrations and resident workers."""
    config = ServiceConfig(
        n_workers=2,
        fault_plan=_slow_rank0_plan(),
        max_retries=1,
        rebalance_li=0.3,
        rebalance_window=1,
        rebalance_cooldown=1,
    )
    stream = (batches * 2)[:5]
    refs = (serial_refs * 2)[:5]
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        for batch, reference in zip(stream, refs):
            results, _ = svc.submit(batch)
            assert_same_results(reference, results)
        # Rank 0 of EVERY shard pool is slow: both policies trip.
        assert svc.rebalance_total >= 2
        assert svc.n_workers_total == 4


# -- observability -----------------------------------------------------


def test_rebalance_trace_events_are_schema_valid(
    tiny_db, batches, serial_refs, tmp_path
):
    trace = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(trace)
    config = ServiceConfig(
        n_workers=2,
        tracer=tracer,
        metrics=MetricsRegistry(),
        fault_plan=_slow_rank0_plan(),
        max_retries=1,
        rebalance_li=0.3,
        rebalance_window=1,
        rebalance_cooldown=1,
    )
    stream = (batches * 2)[:4]
    refs = (serial_refs * 2)[:4]
    with SearchService(tiny_db, config) as service:
        for batch, reference in zip(stream, refs):
            results, _ = service.submit(batch)
            assert_same_results(reference, results)
        service.rebalance(n_workers=3)  # forces a pool.resize record
        auto_migrations = service.rebalance_total
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == [] and n > 0
    records = [
        json.loads(line) for line in trace.read_text().splitlines()
    ]
    events = [r for r in records if r.get("type") == "event"]
    names = [r["kind"] for r in events]
    assert names.count("rebalance.migrate") >= auto_migrations >= 2
    assert "rebalance.trigger" in names  # at least one automatic trigger
    migrate = next(r for r in events if r["kind"] == "rebalance.migrate")
    assert {"reason", "n_from", "n_to", "changed_ranks"} <= set(migrate)
    resize = next(r for r in events if r["kind"] == "pool.resize")
    assert resize["n_from"] == 2 and resize["n_to"] == 3
