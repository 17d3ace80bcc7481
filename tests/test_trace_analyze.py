"""Trace analyzer: offline reconstruction must agree with live stats.

The acceptance bar from the issue: ``repro trace analyze`` recomputes
the paper's Eq.-1 load imbalance from ``worker.query`` spans and it
must agree with the live ``service.batch_li_wall`` gauge; stage walls
and the p50/p95 batch quantiles must match the ``BatchStats`` /
``SessionStats`` the session itself reported.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    analyze_trace,
    analyze_trace_file,
    diff_traces,
    load_trace,
    render_analysis,
    render_diff,
    render_gantt,
    trace_stats,
)
from repro.obs import schema
from repro.obs.analyze import LI_TOLERANCE
from repro.service import (
    SearchService,
    ServiceConfig,
    ShardedSearchService,
    aggregate_batch_stats,
)
from repro.util.ascii_plot import gantt_chart


@pytest.fixture(scope="module")
def traced_session(tiny_db, tiny_spectra, tmp_path_factory):
    """One traced 3-batch session plus everything it reported live."""
    path = tmp_path_factory.mktemp("analyze") / "trace.jsonl"
    metrics = MetricsRegistry()
    batches = [
        list(tiny_spectra),
        list(tiny_spectra[:7]),
        list(tiny_spectra[5:]),
    ]
    with JsonlTracer(path) as tracer:
        config = ServiceConfig(n_workers=2, tracer=tracer, metrics=metrics)
        with SearchService(tiny_db, config) as service:
            all_stats = [service.submit(batch)[1] for batch in batches]
    return path, all_stats, metrics


# -- live-session agreement (the acceptance bar) -----------------------


def test_recomputed_li_matches_live_gauge_and_batch_stats(traced_session):
    path, all_stats, metrics = traced_session
    analysis = analyze_trace_file(path)
    assert analysis.n_batches == 3 and analysis.n_workers == 2
    assert analysis.li_agreement is True
    for timeline, stats in zip(analysis.batches, all_stats):
        assert timeline.batch == stats.batch_index
        # The batch event snapshots the gauge value at emit time...
        assert timeline.li_event == pytest.approx(stats.query_li, abs=1e-9)
        # ...and Eq. 1 over the worker.query spans re-derives it.
        assert timeline.li_recomputed == pytest.approx(
            stats.query_li, abs=LI_TOLERANCE
        )
    gauge = metrics.gauge("service.batch_li_wall")
    assert analysis.batches[-1].li_event == pytest.approx(
        gauge.value, abs=1e-9
    )
    assert analysis.li_max == pytest.approx(
        max(s.query_li for s in all_stats), abs=1e-9
    )


def test_stage_walls_match_batch_stats(traced_session):
    path, all_stats, _ = traced_session
    analysis = analyze_trace_file(path)
    for timeline, stats in zip(analysis.batches, all_stats):
        assert timeline.stages["prepare"] == pytest.approx(
            stats.preprocess_s, abs=1e-8
        )
        assert timeline.stages["merge"] == pytest.approx(
            stats.merge_s, abs=1e-8
        )
        assert timeline.stages["collect"] == pytest.approx(
            stats.collect_wait_s, abs=1e-8
        )
        assert timeline.total_event_s == pytest.approx(
            stats.total_s, abs=1e-8
        )
        # Per-rank worker walls are the query_wall_s vector.
        walls = timeline.worker_wall
        for rank, wall in enumerate(stats.query_wall_s):
            assert walls[rank] == pytest.approx(wall, abs=1e-8)


def test_quantiles_match_session_stats(traced_session):
    path, all_stats, _ = traced_session
    analysis = analyze_trace_file(path)
    session = aggregate_batch_stats(all_stats)
    assert analysis.p50_total_s == pytest.approx(
        session.p50_batch_s, abs=1e-8
    )
    assert analysis.p95_total_s == pytest.approx(
        session.p95_batch_s, abs=1e-8
    )
    assert analysis.li_mean == pytest.approx(session.query_li_mean, abs=1e-9)


def test_analysis_structure_and_rendering(traced_session):
    path, _, _ = traced_session
    analysis = analyze_trace_file(path)
    assert not analysis.fleet
    assert analysis.event_counts["batch"] == 3
    assert set(analysis.rank_util) == {0, 1}
    assert all(0.0 < u <= 1.0 for u in analysis.rank_util.values())
    for name in ("prepare", "dispatch", "collect", "merge"):
        assert analysis.stage_totals[name].count == 3
    for timeline in analysis.batches:
        labels = [label for label, _ in timeline.critical_path]
        assert any(label.startswith("worker[") for label in labels)
        assert timeline.critical_stage in labels
    report = render_analysis(analysis, source=str(path))
    assert "agrees with the live gauge" in report
    assert "per-batch timelines" in report
    assert "per-rank utilization" in report


def test_render_gantt_selects_batches(traced_session):
    path, _, _ = traced_session
    analysis = analyze_trace_file(path)
    chart = render_gantt(analysis, batch=1, width=48)
    assert "batch 1" in chart and "rank 0" in chart and "prepare" in chart
    assert "batch 0" not in chart
    all_charts = render_gantt(analysis)
    assert all_charts.count("wall") == 3
    with pytest.raises(ConfigurationError):
        render_gantt(analysis, batch=99)
    with pytest.raises(ConfigurationError):
        render_gantt(analyze_trace([]))


# -- fleet traces ------------------------------------------------------


def test_fleet_analysis_and_shard_slice(tiny_db, tiny_spectra, tmp_path):
    path = tmp_path / "fleet.jsonl"
    tracer = JsonlTracer(path)
    config = ServiceConfig(
        n_workers=2, tracer=tracer, metrics=MetricsRegistry()
    )
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        all_stats = [
            svc.submit(batch)[1]
            for batch in (list(tiny_spectra), list(tiny_spectra[:7]))
        ]
    tracer.close()
    fleet = analyze_trace_file(path)
    assert fleet.fleet and fleet.n_shards == 2 and fleet.n_workers == 4
    assert fleet.li_agreement is True
    for timeline, stats in zip(fleet.batches, all_stats):
        assert timeline.li_event == pytest.approx(stats.query_li, abs=1e-9)
        assert timeline.li_recomputed == pytest.approx(
            stats.query_li, abs=LI_TOLERANCE
        )
        # Fleet ranks flatten shard-local ranks: shard*width + rank.
        assert set(timeline.worker_wall) == {0, 1, 2, 3}
    assert "route" in fleet.stage_totals and "demux" in fleet.stage_totals
    # A shard slice re-analyzes that shard's records as a plain
    # unsharded session over its local ranks.
    shard0 = analyze_trace_file(path, shard=0)
    assert not shard0.fleet and shard0.n_workers == 2
    assert set(shard0.rank_busy_s) == {0, 1}
    assert shard0.n_batches == 2


def test_fleet_analysis_skips_li_recompute_after_a_pool_resize(
    tiny_db, tiny_spectra, tmp_path
):
    """Once a shard's pool resizes, worker spans no longer map onto
    the open-time fleet rank numbering: the analyzer reports the batch
    events' LI and recomputes none, instead of disagreeing."""
    path = tmp_path / "resized.jsonl"
    tracer = JsonlTracer(path)
    config = ServiceConfig(
        n_workers=1, tracer=tracer, metrics=MetricsRegistry()
    )
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        svc.services[0].rebalance(n_workers=2)
        all_stats = [
            svc.submit(batch)[1]
            for batch in (list(tiny_spectra), list(tiny_spectra[:7]))
        ]
    tracer.close()
    fleet = analyze_trace_file(path)
    assert fleet.li_agreement is True
    for timeline, stats in zip(fleet.batches, all_stats):
        assert timeline.li_recomputed is None
        assert timeline.li_event == pytest.approx(stats.query_li, abs=1e-9)


# -- regression attribution (diff) -------------------------------------


def _synthetic_trace(merge_s, rank1_s):
    """Two-batch trace with controllable merge and rank-1 walls."""
    records = [
        {"type": "event", "kind": "session.open", "ts": 0.0,
         "n_workers": 2, "policy": "greedy"},
    ]
    t = 1.0
    for bi in range(2):
        records += [
            {"type": "span", "name": "prepare", "ts": t, "dur": 0.012,
             "batch": bi},
            {"type": "span", "name": "dispatch", "ts": t + 0.012,
             "dur": 0.001, "batch": bi},
            {"type": "span", "name": "worker.query", "ts": t + 0.013,
             "dur": 0.020, "batch": bi, "rank": 0},
            {"type": "span", "name": "worker.query", "ts": t + 0.013,
             "dur": rank1_s, "batch": bi, "rank": 1},
            {"type": "span", "name": "collect", "ts": t + 0.013,
             "dur": rank1_s + 0.001, "batch": bi},
            {"type": "span", "name": "merge", "ts": t + 0.014 + rank1_s,
             "dur": merge_s, "batch": bi},
            {"type": "event", "kind": "batch", "ts": t + 0.020 + rank1_s,
             "batch": bi, "total_s": 0.015 + rank1_s + merge_s,
             "li_wall": 0.0},
        ]
        t += 1.0
    records.append({"type": "event", "kind": "session.close", "ts": t})
    return records


def test_diff_attributes_known_stage_regression():
    a = analyze_trace(_synthetic_trace(merge_s=0.005, rank1_s=0.020))
    b = analyze_trace(_synthetic_trace(merge_s=0.065, rank1_s=0.020))
    diff = diff_traces(a, b)
    # The injected +60 ms merge must rank as the primary suspect.
    top = diff.stage_deltas[0]
    assert top.name == "merge"
    assert top.delta_s == pytest.approx(0.060, abs=1e-9)
    assert diff.p50_delta_s == pytest.approx(0.060, abs=1e-9)
    others = [d for d in diff.stage_deltas if d.name != "merge"]
    assert all(abs(d.delta_s) < 1e-9 for d in others)
    report = render_diff(diff, a_name="base", b_name="cand")
    assert "merge" in report and "slower" in report


def test_diff_attributes_straggler_rank():
    a = analyze_trace(_synthetic_trace(merge_s=0.005, rank1_s=0.020))
    b = analyze_trace(_synthetic_trace(merge_s=0.005, rank1_s=0.090))
    diff = diff_traces(a, b)
    # The straggler inflates the worker pseudo-stage and the collect
    # wait that covers it — both must rank above every master stage.
    top_two = {d.name for d in diff.stage_deltas[:2]}
    assert top_two == {"worker", "collect"}
    by_name = {d.name: d for d in diff.stage_deltas}
    assert by_name["worker"].delta_s == pytest.approx(0.070, abs=1e-9)
    rank1 = {d.name: d for d in diff.rank_deltas}["rank 1"]
    assert rank1.delta_s == pytest.approx(0.070, abs=1e-9)
    rank0 = {d.name: d for d in diff.rank_deltas}["rank 0"]
    assert abs(rank0.delta_s) < 1e-9


def test_diff_of_trace_with_itself_is_flat(traced_session):
    path, _, _ = traced_session
    analysis = analyze_trace_file(path)
    diff = diff_traces(analysis, analysis)
    assert diff.p50_delta_s == 0.0 and diff.li_delta == 0.0
    assert all(d.delta_s == 0.0 for d in diff.stage_deltas)
    assert all(d.delta_s == 0.0 for d in diff.rank_deltas)


# -- loaders, gantt primitive, schema stats ----------------------------


def test_load_trace_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type":"event","kind":"x","ts":0.0}\nnot json\n')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_trace(bad)


def test_gantt_chart_primitive():
    chart = gantt_chart(
        [("stage", [(0.0, 0.5)]), ("rank 0", [(0.25, 0.75)])],
        width=20,
        title="demo",
    )
    lines = chart.splitlines()
    assert lines[0] == "demo"
    assert any("#" in line for line in lines[1:])
    # Every interval paints at least one cell, even sub-pixel ones.
    tiny = gantt_chart([("a", [(0.0, 1.0)]), ("b", [(0.5, 1e-9)])])
    assert all("#" in line for line in tiny.splitlines()[:2])
    with pytest.raises(ConfigurationError):
        gantt_chart([])
    with pytest.raises(ConfigurationError):
        gantt_chart([("a", [])])
    with pytest.raises(ConfigurationError):
        gantt_chart([("a", [(0.0, -1.0)])])
    with pytest.raises(ConfigurationError):
        gantt_chart([("a", [(0.0, 1.0)])], width=5)


def test_trace_stats_counts_and_durations(traced_session):
    path, all_stats, _ = traced_session
    stats = trace_stats(path)
    assert stats["batch"]["type"] == "event"
    assert stats["batch"]["count"] == 3
    assert stats["worker.query"]["type"] == "span"
    assert stats["worker.query"]["count"] == 6
    expected = sum(sum(s.query_wall_s) for s in all_stats)
    assert stats["worker.query"]["dur_s"] == pytest.approx(
        expected, abs=1e-6
    )


def test_schema_cli_stats_and_requirements(traced_session, capsys):
    path, _, _ = traced_session
    rc = schema.main(
        ["--stats", str(path), "--require", "worker.query>=6",
         "--require", "batch=3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "worker.query: 6" in out
    assert "s total" in out
    rc = schema.main([str(path), "--require", "respawn>=1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "requirement" in captured.out + captured.err


def test_schema_cli_rejects_malformed_requirement(traced_session, capsys):
    path, _, _ = traced_session
    rc = schema.main([str(path), "--require", "worker.query"])
    captured = capsys.readouterr()
    assert rc == 2  # usage error, distinct from a failed requirement
    assert "bad --require spec" in captured.out + captured.err
