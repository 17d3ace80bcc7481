"""Flight recorder: the always-on ring tracer and its black-box dumps.

The acceptance bar from the issue: an untraced session carries its
recent timeline in a bounded in-memory ring installed by default;
whenever a ``WorkerError``/``ShardError`` surfaces or a batch
degrades, a schema-valid JSONL dump appears whose path rides the
error / the batch's stats and whose contents include the fault's
supervision events.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.obs import (
    DEFAULT_CAPACITY,
    JsonlTracer,
    MetricsRegistry,
    RingTracer,
    flight_dump,
    validate_record,
    validate_trace_file,
)
from repro.obs.ring import _MAX_DUMPS
from repro.parallel.faults import FaultPlan, FaultSpec
from repro.service import (
    SearchService,
    ServiceConfig,
    ShardedSearchService,
)


def _records(path):
    return [json.loads(line) for line in open(path, encoding="ascii")]


def _by_kind(records):
    out = {}
    for r in records:
        out.setdefault(r.get("name") or r.get("kind"), []).append(r)
    return out


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


# -- ring unit tests ---------------------------------------------------


def test_ring_records_match_jsonl_tracer_shape(tmp_path):
    """Same inputs through both tracers must serialize identically."""
    import io

    ticks = [10.0, 20.0]
    buf = io.StringIO()
    jsonl = JsonlTracer(buf, clock=iter(ticks).__next__)
    ring = RingTracer(clock=iter(ticks).__next__)
    for t in (jsonl, ring):
        t.span("collect", 1.5, 0.25, {"batch": 3})
        t.event("retry", {"rank": 1, "attempt": 2})
    dump = tmp_path / "ring.jsonl"
    assert ring.dump(dump) == 2
    assert dump.read_text(encoding="ascii") == buf.getvalue()


def test_ring_is_bounded_and_counts_lifetime_records():
    ring = RingTracer(capacity=4)
    assert ring.capacity == 4 and ring.enabled
    for i in range(10):
        ring.event("respawn", {"rank": i})
    assert ring.n_records == 4 and ring.n_seen == 10
    # Oldest evicted: only the last `capacity` records survive.
    assert [r["rank"] for r in ring.records()] == [6, 7, 8, 9]
    assert all(not validate_record(r) for r in ring.records())


def test_ring_default_capacity_and_invalid_capacity():
    assert RingTracer().capacity == DEFAULT_CAPACITY
    with pytest.raises(ConfigurationError):
        RingTracer(capacity=0)


def test_ring_bind_shares_the_ring_and_merges_attrs():
    ring = RingTracer(clock=lambda: 0.0)
    shard1 = ring.bind(shard=1)
    deeper = shard1.bind(rank=2)
    deeper.span("demux", 0.0, 0.1, {"batch": 0, "name": "spoofed"})
    shard1.event("respawn", {"rank": 0})
    # One shared ring, bound attrs merged, reserved keys win.
    assert ring.n_records == 2 and deeper.n_records == 2
    span, event = ring.records()
    assert span["shard"] == 1 and span["rank"] == 2
    assert span["name"] == "demux"
    assert event["shard"] == 1 and event["kind"] == "respawn"
    # flush/close are inherited no-ops: uniform shutdown handling.
    ring.flush()
    ring.close()
    assert ring.n_records == 2


def test_flight_dump_appends_reason_event_and_writes_file(tmp_path):
    ring = RingTracer(clock=lambda: 0.0)
    assert flight_dump(ring, tmp_path, "unit-test") is None  # empty ring
    ring.event("respawn", {"rank": 0})
    path = flight_dump(ring, tmp_path, "unit-test", batch=7)
    assert path is not None and path.startswith(str(tmp_path))
    records = _records(path)
    assert [r["kind"] for r in records] == ["respawn", "flight.dump"]
    assert records[-1]["reason"] == "unit-test"
    assert records[-1]["batch"] == 7
    n, errors = validate_trace_file(path)
    assert errors == [] and n == 2
    assert flight_dump(None, tmp_path, "none") is None


def test_flight_dump_prunes_oldest_first(tmp_path):
    """The directory keeps its newest _MAX_DUMPS black boxes; files
    that are not flight dumps are never touched."""
    bystander = tmp_path / "notes.jsonl"
    bystander.write_text("{}\n")
    ring = RingTracer(clock=lambda: 0.0)
    ring.event("respawn", {"rank": 0})
    paths = []
    for i in range(_MAX_DUMPS + 8):
        path = flight_dump(ring, tmp_path, "unit-test", batch=i)
        # Pin distinct, increasing mtimes: the cap is by age.
        os.utime(path, ns=(i * 10**9, i * 10**9))
        paths.append(path)
    kept = sorted(str(p) for p in tmp_path.glob("repro-flight-*.jsonl"))
    assert kept == sorted(paths[-_MAX_DUMPS:])
    assert bystander.exists()


def test_flight_dump_survives_unprunable_directory(tmp_path, monkeypatch):
    """A pruning failure must not cost the caller the dump's path."""
    from repro.obs import ring as ring_mod

    def boom(newest):
        raise PermissionError("flight dir is not listable")

    monkeypatch.setattr(ring_mod, "_prune_dumps", boom)
    ring = RingTracer(clock=lambda: 0.0)
    ring.event("respawn", {"rank": 0})
    path = flight_dump(ring, tmp_path, "unit-test")
    assert path is not None and os.path.exists(path)


# -- default installation in the serving tier --------------------------


def test_service_installs_ring_by_default_and_file_tracer_wins(tiny_db):
    svc = SearchService(tiny_db, ServiceConfig(n_workers=2))
    assert isinstance(svc.flight_recorder, RingTracer)
    # An enabled config tracer suppresses the ring entirely.
    import io

    traced = SearchService(
        tiny_db,
        ServiceConfig(n_workers=2, tracer=JsonlTracer(io.StringIO())),
    )
    assert traced.flight_recorder is None
    # And the opt-out leaves nothing installed either.
    off = SearchService(
        tiny_db, ServiceConfig(n_workers=2, flight_recorder=False)
    )
    assert off.flight_recorder is None


def test_untraced_session_records_into_the_ring(tiny_db, batches):
    config = ServiceConfig(n_workers=2, metrics=MetricsRegistry())
    with SearchService(tiny_db, config) as service:
        service.submit(batches[0])
        ring = service.flight_recorder
        assert ring is not None and ring.n_records > 0
        kinds = _by_kind(ring.records())
        assert "session.open" in kinds and "batch" in kinds
        assert sorted(r["rank"] for r in kinds["worker.query"]) == [0, 1]
        assert all(not validate_record(r) for r in ring.records())


def test_worker_error_dumps_black_box_with_supervision_events(
    tiny_db, batches, tmp_path
):
    # Two crashes on the same (rank, batch) burn through max_retries=1,
    # so the surfaced WorkerError's dump must hold the whole story:
    # retry, backoff, respawn, then the fatal second crash.
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1),
        FaultSpec(kind="crash", stage="query", rank=1, batch=1),
    )
    config = ServiceConfig(
        n_workers=2, max_retries=1, retry_backoff_s=0.01,
        fault_plan=plan, metrics=MetricsRegistry(),
        flight_dir=tmp_path,
    )
    with SearchService(tiny_db, config) as service:
        service.submit(batches[0])
        with pytest.raises(WorkerError) as excinfo:
            service.submit(batches[1])
    exc = excinfo.value
    assert exc.flight_record is not None
    assert exc.flight_record.startswith(str(tmp_path))
    assert exc.flight_record in exc.brief
    n, errors = validate_trace_file(exc.flight_record)
    assert errors == [] and n > 0
    kinds = _by_kind(_records(exc.flight_record))
    assert [r["reason"] for r in kinds["flight.dump"]] == ["batch-error"]
    assert kinds["retry"][0]["rank"] == 1
    assert "backoff" in kinds and "respawn" in kinds
    # The healthy batch 0's timeline is in the box too — context, not
    # just the fault.
    assert 0 in {r["batch"] for r in kinds["batch"]}


def test_degraded_batch_dumps_black_box_on_stats(
    tiny_db, batches, tmp_path
):
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1, once=False)
    )
    config = ServiceConfig(
        n_workers=2, max_retries=1, retry_backoff_s=0.01,
        degraded_ok=True, fault_plan=plan, metrics=MetricsRegistry(),
        flight_dir=tmp_path,
    )
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    assert all_stats[0].flight_record is None  # healthy batch: no dump
    degraded = all_stats[1]
    assert degraded.degraded_ranks == (1,)
    assert degraded.flight_record is not None
    n, errors = validate_trace_file(degraded.flight_record)
    assert errors == []
    kinds = _by_kind(_records(degraded.flight_record))
    assert kinds["flight.dump"][0]["reason"] == "degraded-batch"
    assert kinds["degraded.rank"][0]["rank"] == 1
    # The dump is cut *after* the degraded batch's summary event, so
    # the black box explains itself.
    assert 1 in {r["batch"] for r in kinds["batch"]}


def test_flapping_rank_cannot_fill_the_flight_dir(tiny_db, batches, tmp_path):
    """40 consecutive degraded batches (rank 1 raises on every query)
    leave at most _MAX_DUMPS black boxes, the newest ones, and every
    batch's stats still name a dump that existed when it was cut."""
    plan = FaultPlan.scoped(
        FaultSpec(kind="raise", stage="query", rank=1, once=False)
    )
    config = ServiceConfig(
        n_workers=2, max_retries=0, degraded_ok=True, fault_plan=plan,
        metrics=MetricsRegistry(), flight_dir=tmp_path,
    )
    records = []
    with SearchService(tiny_db, config) as service:
        for i in range(40):
            _, stats = service.submit(batches[i % len(batches)])
            assert stats.degraded_ranks == (1,)
            assert stats.flight_record is not None
            assert os.path.exists(stats.flight_record)
            records.append(stats.flight_record)
    kept = {str(p) for p in tmp_path.iterdir()}
    assert len(kept) == _MAX_DUMPS
    # Newest survive, oldest went; two dumps cut within one filesystem
    # timestamp tick may swap places at the boundary (the unit test
    # above pins the exact order with explicit mtimes).
    assert set(records[-(_MAX_DUMPS - 2):]) <= kept
    assert kept <= set(records[-(_MAX_DUMPS + 2):])


def test_no_dump_when_recorder_disabled(tiny_db, batches, tmp_path):
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=0)
    )
    config = ServiceConfig(
        n_workers=2, max_retries=0, fault_plan=plan,
        metrics=MetricsRegistry(), flight_recorder=False,
        flight_dir=tmp_path,
    )
    with SearchService(tiny_db, config) as service:
        with pytest.raises(WorkerError) as excinfo:
            service.submit(batches[0])
    assert excinfo.value.flight_record is None
    assert list(tmp_path.iterdir()) == []


# -- sharded fleet -----------------------------------------------------


def test_fleet_shares_one_ring_and_dumps_on_shard_error(
    tiny_db, batches, tmp_path
):
    # Per-shard fault plans: shard 1's rank 1 crashes forever; with
    # retries disabled and no degraded_ok the batch fails with a
    # ShardError carrying the fleet-wide black box.
    plans = [
        None,
        FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=1, batch=1, once=False)
        ),
    ]
    config = ServiceConfig(
        n_workers=2, max_retries=0, metrics=MetricsRegistry(),
        flight_dir=tmp_path,
    )
    svc = ShardedSearchService(
        tiny_db, config, n_shards=2, shard_fault_plans=plans
    )
    assert isinstance(svc.flight_recorder, RingTracer)
    with svc:
        svc.submit(batches[0])
        from repro.errors import ShardError

        with pytest.raises(ShardError) as excinfo:
            svc.submit(batches[1])
    exc = excinfo.value
    assert exc.flight_record is not None
    assert exc.flight_record in exc.brief
    n, errors = validate_trace_file(exc.flight_record)
    assert errors == [] and n > 0
    records = _records(exc.flight_record)
    kinds = _by_kind(records)
    assert kinds["flight.dump"][0]["reason"] == "shard-batch-error"
    # One shared ring: both shards' bound views interleave into it.
    shard_ids = {r["shard"] for r in records if "shard" in r}
    assert shard_ids == {0, 1}
    # Fleet-level records (route spans, fleet session.open) are
    # unbound — the fleet records through the raw ring.
    assert any("shard" not in r for r in kinds["route"])
    assert any(r.get("fleet") for r in kinds["session.open"])


def test_fleet_degraded_batch_dumps_on_stats(tiny_db, batches, tmp_path):
    plans = [
        None,
        FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=1, batch=1, once=False)
        ),
    ]
    config = ServiceConfig(
        n_workers=2, max_retries=1, retry_backoff_s=0.01,
        degraded_ok=True, metrics=MetricsRegistry(), flight_dir=tmp_path,
    )
    with ShardedSearchService(
        tiny_db, config, n_shards=2, shard_fault_plans=plans
    ) as svc:
        all_stats = [svc.submit(batch)[1] for batch in batches]
    degraded = [s for s in all_stats if s.degraded_ranks]
    assert degraded and degraded[0].flight_record is not None
    n, errors = validate_trace_file(degraded[0].flight_record)
    assert errors == []
    kinds = _by_kind(_records(degraded[0].flight_record))
    assert kinds["flight.dump"][0]["reason"] == "degraded-batch"
    assert "degraded.rank" in kinds
