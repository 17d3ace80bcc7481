"""Observability layer: tracer, metrics, schema, and live-session traces.

The acceptance bar from the issue: a serve session with tracing on
emits schema-valid JSONL with per-rank query spans and a per-batch LI
gauge that matches an offline recompute from the batch stats; every
injected fault's supervision response (retry / respawn / hedge /
degraded) appears as a matching trace event; and the disabled path —
the no-op tracer every session gets by default — allocates nothing
per batch.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.obs import (
    EVENT_ATTRS,
    NULL_TRACER,
    SPAN_ATTRS,
    Counter,
    Gauge,
    Histogram,
    JsonlTracer,
    MetricsRegistry,
    Tracer,
    global_registry,
    quantile,
    validate_record,
    validate_trace_file,
    validate_trace_lines,
)
from repro.parallel.faults import FaultPlan, FaultSpec
from repro.search.metrics import load_imbalance
from repro.search.rank import worker_spans_from_report
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


# -- tracer unit tests -------------------------------------------------


def test_jsonl_tracer_span_event_and_bound_attrs():
    ticks = iter([10.0, 20.0]).__next__
    buf = io.StringIO()
    tracer = JsonlTracer(buf, clock=ticks)
    tracer.span("collect", 1.5, 0.25, {"batch": 3})
    tracer.event("retry", {"rank": 1, "attempt": 2})
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2 and tracer.n_records == 2
    span = json.loads(lines[0])
    assert span == {
        "type": "span", "name": "collect", "ts": 1.5, "dur": 0.25,
        "batch": 3,
    }
    event = json.loads(lines[1])
    # Events stamp themselves from the injected clock; spans never
    # read the clock (the caller already holds t0/dur).
    assert event["ts"] == 10.0
    assert event["kind"] == "retry" and event["rank"] == 1


def test_bind_merges_attrs_and_reserved_keys_win():
    buf = io.StringIO()
    tracer = JsonlTracer(buf, clock=lambda: 0.0)
    shard1 = tracer.bind(shard=1)
    deeper = shard1.bind(rank=2)
    deeper.span("demux", 0.0, 0.1, {"batch": 0, "name": "spoofed"})
    rec = json.loads(buf.getvalue())
    assert rec["shard"] == 1 and rec["rank"] == 2
    assert rec["name"] == "demux"  # reserved key beats the attr
    # Views share one sink: records and close() are common.
    assert tracer.n_records == 1 and shard1.n_records == 1
    shard1.close()
    deeper.event("respawn", {"rank": 0})
    assert tracer.n_records == 1  # closed sink drops writes
    tracer.close()  # idempotent


def test_null_tracer_is_inert_and_binds_to_itself():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.bind(shard=3) is NULL_TRACER
    assert NULL_TRACER.span("x", 0.0, 1.0) is None
    assert NULL_TRACER.event("y") is None
    NULL_TRACER.flush()
    NULL_TRACER.close()


def test_disabled_tracer_hot_path_allocates_nothing():
    """The guarded emit pattern every instrumentation site uses must
    be allocation-free when tracing is off."""
    tracer = Tracer()

    def hot_path(n):
        for _ in range(n):
            if tracer.enabled:  # pragma: no cover - never taken
                tracer.span("prepare", 0.0, 1.0, {"batch": 0})
            tracer.bind()  # unconditional shard-layer bind: free too
    hot_path(100)  # warm up allocator pools, method caches
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        hot_path(10_000)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before == 0


# -- metrics unit tests ------------------------------------------------


def test_quantile_matches_numpy_linear():
    values = [9.0, 2.0, 7.5, 3.25, 11.0, 0.5]
    for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
        assert quantile(values, q) == pytest.approx(
            float(np.quantile(np.array(values), q))
        )
    assert quantile([4.0], 0.95) == 4.0
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_counter_gauge_basics():
    c = Counter("n")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = Gauge("li")
    assert g.as_dict() == {"value": 0.0, "min": 0.0, "max": 0.0,
                           "n_updates": 0}
    g.set(0.4)
    g.set(0.1)
    assert g.value == 0.1 and g.min == 0.1 and g.max == 0.4
    assert g.n_updates == 2


def test_histogram_quantiles_clamp_to_observed_range():
    h = Histogram("lat", bounds=(0.01, 0.1, 1.0))
    for v in (0.02, 0.03, 0.04, 0.05):
        h.observe(v)
    assert h.n == 4 and h.mean == pytest.approx(0.035)
    # All mass in one bucket: interpolation stays inside [min, max].
    assert 0.02 <= h.quantile(0.5) <= 0.05
    assert h.quantile(1.0) == 0.05
    d = h.as_dict()
    assert d["n"] == 4 and d["p50"] <= d["p95"] <= d["p99"]
    with pytest.raises(ValueError):
        Histogram("bad", bounds=())
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("empty").quantile(0.5)


def test_registry_create_on_first_use_and_kind_mismatch():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    reg.gauge("g").set(2.0)
    with pytest.raises(TypeError):
        reg.histogram("a")
    snap = reg.snapshot()
    assert snap["a"]["kind"] == "counter"
    assert snap["g"] == {"value": 2.0, "min": 2.0, "max": 2.0,
                         "n_updates": 1, "kind": "gauge"}
    reg.reset()
    assert reg.snapshot() == {}
    assert global_registry() is global_registry()


# -- schema unit tests -------------------------------------------------


def test_schema_accepts_every_declared_span_and_event():
    for name, attrs in SPAN_ATTRS.items():
        rec = {"type": "span", "name": name, "ts": 1.0, "dur": 0.1}
        rec.update({k: 0 for k in attrs})
        assert validate_record(rec) == []
    for kind, attrs in EVENT_ATTRS.items():
        rec = {"type": "event", "kind": kind, "ts": 1.0}
        rec.update({k: 0 for k in attrs})
        assert validate_record(rec) == []


def test_schema_rejects_malformed_records():
    assert validate_record({"type": "span", "name": "nope", "ts": 0,
                            "dur": 0}) == ["unknown span name 'nope'"]
    assert validate_record({"type": "event", "kind": "nope",
                            "ts": 0}) == ["unknown event kind 'nope'"]
    errs = validate_record({"type": "span", "name": "worker.query",
                            "ts": 0.0, "dur": -1.0, "batch": 0})
    assert any("negative dur" in e for e in errs)
    assert any("missing attr 'rank'" in e for e in errs)
    assert validate_record({"type": "wat"}) == ["unknown record type 'wat'"]
    assert validate_record(7) == ["record is not an object: 7"]
    # Extra attrs are always fine (bound shard tags, fleet markers...)
    assert validate_record({"type": "event", "kind": "session.close",
                            "ts": 0.0, "fleet": True, "extra": 1}) == []


def test_validate_trace_lines_numbers_and_blanks():
    n, errors = validate_trace_lines([
        '{"type": "event", "kind": "session.close", "ts": 1.0}',
        "",
        "not json",
        '{"type": "span", "name": "bogus", "ts": 0, "dur": 0}',
    ])
    assert n == 2
    assert errors[0].startswith("line 3: invalid JSON")
    assert errors[1] == "line 4: unknown span name 'bogus'"


def test_worker_spans_reanchor_on_master_clock():
    report = {"spans": (("worker.open", 0.0, 0.5),
                        ("worker.query", 0.5, 2.0))}
    spans = worker_spans_from_report(report, anchor=100.0)
    assert spans == [("worker.open", 100.0, 0.5),
                     ("worker.query", 100.5, 2.0)]
    assert worker_spans_from_report({}, anchor=0.0) == []


# -- live session traces -----------------------------------------------


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


def test_session_open_event_carries_each_ranks_attach_times(tiny_db, tmp_path):
    """Each rank's store open and own index build show on every open,
    taken from the attach round's replies."""
    trace = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(trace)
    SearchService(tiny_db, ServiceConfig(n_workers=2, tracer=tracer)).open().close()
    tracer.close()
    (opened,) = _by_kind(_records(trace))["session.open"]
    for key in ("rank_open_s", "rank_build_s"):
        assert len(opened[key]) == 2 and all(s >= 0.0 for s in opened[key]), key
    assert sum(opened["rank_build_s"]) > 0.0


def test_session_trace_is_schema_valid_with_per_rank_spans_and_li_gauge(
    tiny_db, batches, tmp_path
):
    trace = tmp_path / "trace.jsonl"
    metrics = MetricsRegistry()
    tracer = JsonlTracer(trace)
    config = ServiceConfig(n_workers=2, tracer=tracer, metrics=metrics)
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == [] and n == tracer.n_records > 0
    kinds = _by_kind(_records(trace))
    assert len(kinds["session.open"]) == 1
    assert len(kinds["session.close"]) == 1
    for stage in ("prepare", "dispatch", "collect", "merge"):
        assert sorted(r["batch"] for r in kinds[stage]) == [0, 1, 2]
    # Per-rank query spans: one per (batch, rank), wall + CPU attrs
    # matching the stats vectors the master kept.
    queries = kinds["worker.query"]
    assert sorted((r["batch"], r["rank"]) for r in queries) == [
        (b, r) for b in range(3) for r in range(2)
    ]
    for rec in queries:
        stats = all_stats[rec["batch"]]
        assert rec["dur"] == pytest.approx(
            stats.query_wall_s[rec["rank"]], abs=1e-6
        )
        assert rec["cpu_s"] == pytest.approx(
            stats.query_cpu_s[rec["rank"]], abs=1e-6
        )
    # Worker spans re-anchor inside the master's batch window.
    collects = {r["batch"]: r for r in kinds["collect"]}
    for rec in queries:
        c = collects[rec["batch"]]
        assert rec["ts"] + rec["dur"] <= c["ts"] + c["dur"] + 0.25
    # The live LI gauge equals the offline recompute from the stats'
    # full per-rank wall vector — same function, same floats.
    gauge = metrics.gauge("service.batch_li_wall")
    assert gauge.n_updates == 3
    assert gauge.value == load_imbalance(all_stats[-1].query_wall_s)
    assert metrics.counter("service.batches").value == 3
    assert metrics.histogram("service.batch_total_s").n == 3
    # Per-batch summary events mirror the gauge (rounded for JSON).
    for rec in kinds["batch"]:
        stats = all_stats[rec["batch"]]
        assert rec["li_wall"] == pytest.approx(stats.query_li, abs=1e-8)
        assert rec["n_spectra"] == stats.n_spectra
        assert rec["retries"] == 0 and rec["respawned"] == 0


def test_untraced_session_touches_no_trace_and_default_is_null(
    tiny_db, batches
):
    config = ServiceConfig(n_workers=2)
    assert config.tracer is NULL_TRACER
    assert config.metrics is global_registry()
    with SearchService(tiny_db, config) as service:
        service.submit(batches[1])


# -- chaos sweep: faults must leave matching supervision events --------


def test_crash_fault_leaves_retry_backoff_respawn_events(
    tiny_db, batches, tmp_path
):
    trace = tmp_path / "chaos.jsonl"
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1)
    )
    tracer = JsonlTracer(trace)
    config = ServiceConfig(
        n_workers=2, max_retries=2, retry_backoff_s=0.01,
        fault_plan=plan, tracer=tracer, metrics=MetricsRegistry(),
    )
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == []
    kinds = _by_kind(_records(trace))
    assert all_stats[1].retries == 1 and all_stats[1].respawned == 1
    # One retry event per counted retry, same rank, batch attr carried.
    (retry,) = kinds["retry"]
    assert retry["rank"] == 1 and retry["attempt"] == 1
    assert retry["batch"] == 1
    (backoff,) = kinds["backoff"]
    assert backoff["rank"] == 1 and backoff["delay_s"] > 0
    (respawn,) = kinds["respawn"]
    assert respawn["rank"] == 1
    assert "hedge.launch" not in kinds and "degraded.rank" not in kinds
    # The retried rank's span sits on the retry's timeline, not at the
    # round's dispatch.
    (query,) = [
        r for r in kinds["worker.query"] if r["batch"] == 1 and r["rank"] == 1
    ]
    assert query["ts"] >= retry["ts"]


def test_degraded_fault_leaves_degraded_rank_event(
    tiny_db, batches, tmp_path
):
    trace = tmp_path / "degraded.jsonl"
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1, once=False)
    )
    tracer = JsonlTracer(trace)
    config = ServiceConfig(
        n_workers=2, max_retries=1, retry_backoff_s=0.01,
        degraded_ok=True, fault_plan=plan, tracer=tracer,
        metrics=MetricsRegistry(),
    )
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == []
    kinds = _by_kind(_records(trace))
    assert all_stats[1].degraded_ranks == (1,)
    (degraded,) = kinds["degraded.rank"]
    assert degraded["rank"] == 1 and degraded["retries"] == 1
    assert len(kinds["retry"]) == 1


def test_hedge_fault_leaves_hedge_launch_and_win_events(
    tiny_db, batches, tmp_path
):
    trace = tmp_path / "hedge.jsonl"
    plan = FaultPlan.scoped(
        FaultSpec(kind="slow", stage="query", rank=1, batch=1, seconds=8.0)
    )
    tracer = JsonlTracer(trace)
    config = ServiceConfig(
        n_workers=2, max_retries=0, hedge_after=0.5,
        fault_plan=plan, tracer=tracer, metrics=MetricsRegistry(),
    )
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == []
    kinds = _by_kind(_records(trace))
    assert all_stats[1].hedged >= 1
    launches = kinds["hedge.launch"]
    assert len(launches) == all_stats[1].hedged
    assert all(r["rank"] == 1 for r in launches)
    # Every launch resolves exactly once: a win (promoted hedge) or a
    # loss (original answered first / hedge failed).
    resolved = kinds.get("hedge.win", []) + kinds.get("hedge.loss", [])
    assert len(resolved) == len(launches)
    assert len(kinds.get("hedge.win", [])) >= 1  # the 8 s straggler lost


def test_hedge_winner_spans_are_reanchored_to_hedge_launch(
    tiny_db, batches, tmp_path
):
    # When a hedge wins, the promoted result's worker spans were
    # measured by the *replacement* worker, whose round started at
    # hedge launch — not at the original dispatch.  The trace must
    # carry the winner's timing on the winner's timeline: one
    # worker.query span for the hedged rank, starting after the hedge
    # fired, with the replacement's short duration (not the 8 s
    # straggler's).
    trace = tmp_path / "hedge_spans.jsonl"
    plan = FaultPlan.scoped(
        FaultSpec(kind="slow", stage="query", rank=1, batch=1, seconds=8.0)
    )
    tracer = JsonlTracer(trace)
    config = ServiceConfig(
        n_workers=2, max_retries=0, hedge_after=0.5,
        fault_plan=plan, tracer=tracer, metrics=MetricsRegistry(),
    )
    with SearchService(tiny_db, config) as service:
        all_stats = [service.submit(batch)[1] for batch in batches]
    tracer.close()

    assert all_stats[1].hedged >= 1
    kinds = _by_kind(_records(trace))
    assert len(kinds.get("hedge.win", [])) >= 1
    queries = [r for r in kinds["worker.query"] if r["batch"] == 1]
    # No leaked loser spans: exactly one query span per rank.
    assert sorted(r["rank"] for r in queries) == [0, 1]
    hedged_span = next(r for r in queries if r["rank"] == 1)
    normal_span = next(r for r in queries if r["rank"] == 0)
    # The winner queried at full speed — nowhere near the fault's 8 s.
    assert hedged_span["dur"] < 4.0
    # Its start is re-based to the hedge launch: at least hedge_after
    # past the round's dispatch, well after the healthy rank started.
    (dispatch,) = [r for r in kinds["dispatch"] if r["batch"] == 1]
    assert hedged_span["ts"] >= dispatch["ts"] + 0.4
    assert hedged_span["ts"] > normal_span["ts"] + 0.4
    # The healthy rank's span still sits at dispatch time.
    assert abs(normal_span["ts"] - dispatch["ts"]) < 0.4


# -- sharded fleet traces ----------------------------------------------


def test_sharded_trace_has_route_demux_and_shard_bound_records(
    tiny_db, batches, tmp_path
):
    trace = tmp_path / "fleet.jsonl"
    metrics = MetricsRegistry()
    tracer = JsonlTracer(trace)
    config = ServiceConfig(n_workers=2, tracer=tracer, metrics=metrics)
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        all_stats = [svc.submit(batch)[1] for batch in batches]
    tracer.close()

    n, errors = validate_trace_file(trace)
    assert errors == []
    kinds = _by_kind(_records(trace))
    routes = {r["batch"]: r for r in kinds["route"]}
    demuxes = {r["batch"]: r for r in kinds["demux"]}
    for i, stats in enumerate(all_stats):
        assert routes[i]["dispatched"] == stats.shards_dispatched
        assert routes[i]["skipped"] == stats.shards_skipped
        assert i in demuxes
    # Inner-service records carry their bound shard id; fleet-level
    # records don't.
    shard_ids = {r.get("shard") for r in kinds["worker.query"]}
    assert shard_ids <= {0, 1} and shard_ids  # routed shards only
    assert all("shard" not in r for r in kinds["route"])
    fleet_opens = [r for r in kinds["session.open"] if r.get("fleet")]
    assert len(fleet_opens) == 1
    assert fleet_opens[0]["n_workers"] == 4
    fleet_batches = [r for r in kinds["batch"] if r.get("fleet")]
    assert sorted(r["batch"] for r in fleet_batches) == [0, 1, 2]
    for rec in fleet_batches:
        assert rec["li_wall"] == pytest.approx(
            all_stats[rec["batch"]].query_li, abs=1e-8
        )
    # Fleet metrics aggregate over the whole session.
    assert metrics.counter("fleet.batches").value == 3
    assert metrics.counter("fleet.shards_dispatched").value == sum(
        s.shards_dispatched for s in all_stats
    )
    assert metrics.gauge("fleet.batch_li_wall").value == load_imbalance(
        all_stats[-1].query_wall_s
    )
