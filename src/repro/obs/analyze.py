"""Trace analyzer: turn recorded span/event JSONL into answers.

The write side (:mod:`repro.obs.trace` / :mod:`repro.obs.ring`)
records *what happened when*; this module reconstructs *where the
time went* — the question the paper's whole argument (Eq.-1 load
imbalance over per-rank query walls) is about.  Three consumers,
surfaced as the ``repro trace`` CLI family:

* :func:`analyze_trace` → :class:`TraceAnalysis` — per-batch stage
  breakdown, per-rank utilization, pipeline-overlap efficiency, the
  critical path, and a **recomputed Eq.-1 LI** from the re-anchored
  ``worker.query`` spans that must agree with the ``batch`` events'
  ``li_wall`` (which is the live ``service.batch_li_wall`` gauge's
  value, emitted from the same vector) — the agreement is
  test-enforced, so the offline and live views can never drift.
* :func:`render_gantt` — ASCII per-batch timelines over the
  :func:`repro.util.ascii_plot.gantt_chart` machinery.
* :func:`diff_traces` → :class:`TraceDiff` — attribute a latency
  regression between two traces to specific stages and ranks.

Sharded traces: fleet-level records (``route`` / ``demux`` spans,
``fleet: true`` batch events) are analyzed at the fleet level; every
inner-service record carries its bound ``shard`` attribute, so
``analyze_trace(records, shard=N)`` re-runs the full single-service
analysis on one shard's slice.  The fleet LI is recomputed from
worker spans only when no batch skipped a shard (skips desynchronize
inner batch numbering from fleet batch numbering; the event-carried
``li_wall`` is always reported).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import quantile
from repro.util.ascii_plot import gantt_chart
from repro.util.tables import format_table

__all__ = [
    "BatchTimeline",
    "StageStat",
    "TraceAnalysis",
    "TraceDiff",
    "load_trace",
    "analyze_trace",
    "analyze_trace_file",
    "diff_traces",
    "render_analysis",
    "render_gantt",
    "render_diff",
]

#: Master pipeline stages of one service, in execution order.
_SERVICE_STAGES = ("prepare", "dispatch", "collect", "merge")
#: Fleet-level stages of the shard router.
_FLEET_STAGES = ("route", "demux")
#: LI agreement tolerance: events carry ``li_wall`` rounded to 9
#: decimals and span durations are rounded the same way, so the
#: recomputation can differ from the live gauge only in the last
#: digits of that rounding.
LI_TOLERANCE = 1e-6


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Decode a JSONL trace file into a list of record dicts."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}: line {lineno} is not valid JSON ({exc})"
                ) from None
            if isinstance(obj, dict):
                records.append(obj)
    return records


@dataclass(slots=True)
class StageStat:
    """Aggregate over every span of one name in the trace."""

    name: str
    count: int
    total_s: float
    mean_s: float
    max_s: float


@dataclass(slots=True)
class BatchTimeline:
    """One batch's reconstructed timeline.

    ``stages`` maps each master stage name to its summed wall seconds
    for this batch; ``worker_spans`` maps rank → list of
    ``(name, ts, dur)`` re-anchored worker spans; ``li_recomputed``
    is Eq. 1 over the per-rank ``worker.query`` durations (``None``
    when the trace carries no usable worker spans for this batch);
    ``li_event`` / ``total_event_s`` come from the batch's summary
    event (the live gauge's value at the time).  ``critical_path``
    lists the serial chain ``(label, seconds)`` whose largest entry is
    ``critical_stage``; ``overlap_s`` is the portion of this batch's
    master-stage work that ran while another batch's round was on the
    pipe.
    """

    batch: int
    t0: float
    t1: float
    stages: Dict[str, float]
    stage_spans: Dict[str, List[Tuple[float, float]]]
    worker_spans: Dict[int, List[Tuple[str, float, float]]]
    li_recomputed: Optional[float]
    li_event: Optional[float]
    total_event_s: Optional[float]
    critical_path: List[Tuple[str, float]]
    critical_stage: str
    overlap_s: float

    @property
    def worker_wall(self) -> Dict[int, float]:
        """Per-rank ``worker.query`` wall seconds for this batch."""
        return {
            rank: sum(d for n, _, d in spans if n == "worker.query")
            for rank, spans in self.worker_spans.items()
        }


@dataclass(slots=True)
class TraceAnalysis:
    """The full reconstruction of one trace (or one shard's slice)."""

    n_records: int
    fleet: bool
    n_workers: Optional[int]
    n_shards: Optional[int]
    session_span_s: float
    batches: List[BatchTimeline]
    stage_totals: Dict[str, StageStat]
    rank_busy_s: Dict[int, float]
    rank_util: Dict[int, float]
    event_counts: Dict[str, int]
    p50_total_s: float
    p95_total_s: float
    li_mean: float
    li_max: float
    li_agreement: bool
    overlap_total_s: float
    overlap_efficiency: float

    @property
    def n_batches(self) -> int:
        """Batches with a summary event or at least one span."""
        return len(self.batches)


def _merged_intervals(
    intervals: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of ``(start, end)`` intervals as a sorted disjoint list."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _overlap_with(
    span: Tuple[float, float], windows: Sequence[Tuple[float, float]]
) -> float:
    """Seconds of ``span = (start, dur)`` inside the window union."""
    start, dur = span
    end = start + dur
    covered = 0.0
    for w_start, w_end in windows:
        covered += max(0.0, min(end, w_end) - max(start, w_start))
    return covered


def analyze_trace(
    records: Sequence[Mapping[str, Any]], *, shard: Optional[int] = None
) -> TraceAnalysis:
    """Reconstruct per-batch timelines from decoded trace records.

    With ``shard`` set, only that shard's bound records are analyzed
    (an inner service of a fleet trace, treated as a standalone
    session); otherwise fleet traces are analyzed at the fleet level
    and flat traces at the service level.
    """
    # Deferred: repro.search pulls in the whole engine stack, which
    # imports repro.obs — importing it at module scope would cycle.
    from repro.search.metrics import load_imbalance


    if shard is not None:
        records = [r for r in records if r.get("shard") == shard]
        fleet = False
    else:
        fleet = any(r.get("fleet") for r in records)

    n_workers: Optional[int] = None
    n_shards: Optional[int] = None
    for r in records:
        if r.get("type") == "event" and r.get("kind") == "session.open":
            if fleet and not r.get("fleet"):
                continue
            n_workers = int(r.get("n_workers", 0)) or None
            if r.get("n_shards") is not None:
                n_shards = int(r["n_shards"])
            break

    stage_names = _FLEET_STAGES if fleet else _SERVICE_STAGES
    # Fleet view: inner-service records carry a shard binding and use
    # the inner session's batch numbering; only unbound (fleet-level)
    # spans and fleet events key the per-batch view.
    def is_fleet_level(r: Mapping[str, Any]) -> bool:
        return not fleet or "shard" not in r

    batch_events: Dict[int, Mapping[str, Any]] = {}
    stage_spans: Dict[int, Dict[str, List[Tuple[float, float]]]] = {}
    worker_spans: Dict[int, Dict[int, List[Tuple[str, float, float]]]] = {}
    event_counts: Dict[str, int] = {}
    t_min, t_max = float("inf"), float("-inf")
    shards_skipped = 0
    for r in records:
        rtype = r.get("type")
        ts = r.get("ts")
        if isinstance(ts, (int, float)):
            t_min = min(t_min, float(ts))
            end = float(ts) + float(r.get("dur", 0.0) or 0.0)
            t_max = max(t_max, end)
        if rtype == "event":
            kind = str(r.get("kind"))
            event_counts[kind] = event_counts.get(kind, 0) + 1
            if kind == "batch" and isinstance(r.get("batch"), int):
                if fleet and not r.get("fleet"):
                    continue
                batch_events[int(r["batch"])] = r
            continue
        if rtype != "span":
            continue
        name = str(r.get("name"))
        bi = r.get("batch")
        if not isinstance(bi, int):
            continue
        if name == "route":
            shards_skipped += int(r.get("skipped", 0) or 0)
        if name in stage_names and is_fleet_level(r):
            stage_spans.setdefault(bi, {}).setdefault(name, []).append(
                (float(r["ts"]), float(r["dur"]))
            )
        elif name.startswith("worker.") and isinstance(r.get("rank"), int):
            if fleet:
                # Flatten (shard, rank) into the fleet rank space at
                # open-time pool sizes — shard s's rank r sits at
                # s * workers_per_shard + r, matching
                # ShardedBatchStats.query_wall_s until a pool resizes.
                sid = r.get("shard")
                if not isinstance(sid, int) or not n_shards or not n_workers:
                    continue
                w = n_workers // n_shards
                rank = sid * w + int(r["rank"])
            else:
                rank = int(r["rank"])
            worker_spans.setdefault(bi, {}).setdefault(rank, []).append(
                (name, float(r["ts"]), float(r["dur"]))
            )

    # Fleet batch numbering desyncs from inner numbering as soon as a
    # shard is skipped for some batch (each inner session numbers only
    # the batches it received), and the fleet rank numbering above
    # holds only while every shard keeps its open-time pool size —
    # recompute LI only when provably safe.
    resized = any(r.get("kind") == "pool.resize" for r in records)
    worker_mapping_safe = not fleet or (shards_skipped == 0 and not resized)

    all_batches = sorted(
        set(batch_events) | set(stage_spans) | set(worker_spans)
    )
    # Round windows (dispatch → collect end, or the worker spans'
    # extent) per batch, for the overlap computation below.
    windows: Dict[int, Tuple[float, float]] = {}
    for bi in all_batches:
        spans = stage_spans.get(bi, {})
        lo, hi = float("inf"), float("-inf")
        for name in ("dispatch", "collect", "route"):
            for ts, dur in spans.get(name, ()):
                lo, hi = min(lo, ts), max(hi, ts + dur)
        for rank_spans in worker_spans.get(bi, {}).values():
            for _, ts, dur in rank_spans:
                lo, hi = min(lo, ts), max(hi, ts + dur)
        if lo < hi:
            windows[bi] = (lo, hi)

    batches: List[BatchTimeline] = []
    li_agreement = True
    for bi in all_batches:
        spans = stage_spans.get(bi, {})
        wspans = worker_spans.get(bi, {}) if worker_mapping_safe else {}
        stages = {
            name: sum(d for _, d in spans.get(name, ()))
            for name in stage_names
            if name in spans
        }
        ev = batch_events.get(bi)
        t0 = min(
            [ts for s in spans.values() for ts, _ in s]
            + [ts for rs in wspans.values() for _, ts, _ in rs],
            default=0.0,
        )
        t1 = max(
            [ts + d for s in spans.values() for ts, d in s]
            + [ts + d for rs in wspans.values() for _, ts, d in rs],
            default=t0,
        )
        # Eq. 1 recomputation over the full rank vector (0.0 for ranks
        # with no span — exactly how a degraded rank enters the live
        # gauge's vector on BatchStats).
        li_rec: Optional[float] = None
        if wspans and n_workers:
            vec = [0.0] * n_workers
            for rank, rank_spans in wspans.items():
                if 0 <= rank < n_workers:
                    vec[rank] = sum(
                        d for n, _, d in rank_spans if n == "worker.query"
                    )
            li_rec = load_imbalance(vec) if any(vec) else 0.0
        li_event = (
            float(ev["li_wall"]) if ev and "li_wall" in ev else None
        )
        if li_rec is not None and li_event is not None:
            if abs(li_rec - li_event) > LI_TOLERANCE:
                li_agreement = False
        # Critical path: the serial chain a batch cannot go faster
        # than — master stages, the slowest rank's worker time, and
        # the residual collect wait the workers did not explain.
        worker_totals = {
            rank: sum(d for _, _, d in rank_spans)
            for rank, rank_spans in wspans.items()
        }
        chain: List[Tuple[str, float]] = []
        for name in stage_names:
            if name in ("collect",):
                continue
            if name in stages:
                chain.append((name, stages[name]))
        if worker_totals:
            slow_rank = max(worker_totals, key=lambda r: worker_totals[r])
            chain.append((f"worker[{slow_rank}]", worker_totals[slow_rank]))
            residual = stages.get("collect", 0.0) - worker_totals[slow_rank]
            if residual > 0:
                chain.append(("collect.wait", residual))
        elif "collect" in stages:
            chain.append(("collect", stages["collect"]))
        critical = max(chain, key=lambda e: e[1])[0] if chain else ""
        # Overlap: this batch's prepare/merge seconds that ran
        # inside any *other* batch's round window — the master work
        # the pipeline hid behind worker compute.
        other_windows = _merged_intervals(
            [w for obi, w in windows.items() if obi != bi]
        )
        overlap = 0.0
        for name in ("prepare", "merge", "demux"):
            for span in spans.get(name, ()):
                overlap += _overlap_with(span, other_windows)
        batches.append(
            BatchTimeline(
                batch=bi,
                t0=t0,
                t1=t1,
                stages=stages,
                stage_spans=spans,
                worker_spans=wspans,
                li_recomputed=li_rec,
                li_event=li_event,
                total_event_s=(
                    float(ev["total_s"]) if ev and "total_s" in ev else None
                ),
                critical_path=chain,
                critical_stage=critical,
                overlap_s=overlap,
            )
        )

    # Session-level aggregates.
    stage_totals: Dict[str, StageStat] = {}
    for r in records:
        if r.get("type") != "span":
            continue
        name = str(r.get("name"))
        dur = float(r.get("dur", 0.0) or 0.0)
        st = stage_totals.get(name)
        if st is None:
            stage_totals[name] = StageStat(name, 1, dur, dur, dur)
        else:
            st.count += 1
            st.total_s += dur
            st.max_s = max(st.max_s, dur)
    for st in stage_totals.values():
        st.mean_s = st.total_s / st.count

    session_span = max(0.0, t_max - t_min) if t_min < t_max else 0.0
    rank_busy: Dict[int, float] = {}
    for per_rank in worker_spans.values():
        for rank, rank_spans in per_rank.items():
            rank_busy[rank] = rank_busy.get(rank, 0.0) + sum(
                d for _, _, d in rank_spans
            )
    rank_util = {
        rank: (busy / session_span if session_span > 0 else 0.0)
        for rank, busy in sorted(rank_busy.items())
    }

    totals = [
        b.total_event_s
        for b in batches
        if b.total_event_s is not None
    ]
    # Steady-state population matches aggregate_batch_stats: batches
    # after the first (cold-cache) one; a one-batch trace falls back.
    steady = totals[1:] if len(totals) > 1 else totals
    lis = [b.li_event for b in batches if b.li_event is not None]
    overlap_total = sum(b.overlap_s for b in batches)
    master_total = sum(
        sum(b.stages.get(n, 0.0) for n in ("prepare", "merge", "demux"))
        for b in batches
    )
    return TraceAnalysis(
        n_records=len(records),
        fleet=fleet,
        n_workers=n_workers,
        n_shards=n_shards,
        session_span_s=session_span,
        batches=batches,
        stage_totals=stage_totals,
        rank_busy_s=dict(sorted(rank_busy.items())),
        rank_util=rank_util,
        event_counts=dict(sorted(event_counts.items())),
        p50_total_s=quantile(steady, 0.50) if steady else 0.0,
        p95_total_s=quantile(steady, 0.95) if steady else 0.0,
        li_mean=sum(lis) / len(lis) if lis else 0.0,
        li_max=max(lis) if lis else 0.0,
        li_agreement=li_agreement,
        overlap_total_s=overlap_total,
        overlap_efficiency=(
            overlap_total / master_total if master_total > 0 else 0.0
        ),
    )


def analyze_trace_file(
    path: Union[str, Path], *, shard: Optional[int] = None
) -> TraceAnalysis:
    """Load + analyze a JSONL trace file."""
    return analyze_trace(load_trace(path), shard=shard)


# -- rendering ---------------------------------------------------------


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{1e3 * value:.2f}"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


def render_analysis(analysis: TraceAnalysis, *, source: str = "trace") -> str:
    """Human-readable report of one :class:`TraceAnalysis`."""
    a = analysis
    lines: List[str] = []
    topo = []
    if a.n_workers:
        topo.append(f"{a.n_workers} workers")
    if a.n_shards:
        topo.append(f"{a.n_shards} shards")
    lines.append(
        f"{source}: {a.n_records} records, {a.n_batches} batches"
        + (", " + ", ".join(topo) if topo else "")
        + f", session span {a.session_span_s:.3f} s"
    )
    if a.batches:
        lines.append(
            f"steady-state batch latency: p50 {_ms(a.p50_total_s)} ms, "
            f"p95 {_ms(a.p95_total_s)} ms (from batch events)"
        )
        agreement = (
            "agrees with the live gauge" if a.li_agreement
            else "DISAGREES with the live gauge"
        )
        lines.append(
            f"load imbalance (Eq. 1): mean {_pct(a.li_mean)}, max "
            f"{_pct(a.li_max)}; recomputed from worker.query spans "
            f"{agreement} (tolerance {LI_TOLERANCE:g})"
        )
        lines.append(
            f"pipeline overlap: {1e3 * a.overlap_total_s:.2f} ms of "
            f"master-stage work hidden behind worker rounds "
            f"({_pct(a.overlap_efficiency)} of master-stage seconds)"
        )
    supervision = {
        k: v
        for k, v in a.event_counts.items()
        if k not in ("session.open", "session.close", "batch")
    }
    if supervision:
        lines.append(
            "supervision events: "
            + ", ".join(f"{k} x{v}" for k, v in supervision.items())
        )
    if a.stage_totals:
        rows = [
            (st.name, st.count, _ms(st.total_s), _ms(st.mean_s), _ms(st.max_s))
            for st in sorted(
                a.stage_totals.values(), key=lambda s: -s.total_s
            )
        ]
        lines.append("")
        lines.append(format_table(
            ["stage", "spans", "total ms", "mean ms", "max ms"], rows,
            title="stage breakdown (all batches)",
        ))
    if a.batches:
        rows = []
        for b in a.batches:
            worker_max = max(b.worker_wall.values(), default=None)
            rows.append((
                b.batch,
                _ms(b.total_event_s),
                _ms(b.stages.get("prepare")) if "prepare" in b.stages else "-",
                _ms(b.stages.get("dispatch", b.stages.get("route"))),
                _ms(b.stages.get("collect")) if "collect" in b.stages else "-",
                _ms(b.stages.get("merge", b.stages.get("demux"))),
                _ms(worker_max),
                _pct(b.li_event),
                _pct(b.li_recomputed),
                _ms(b.overlap_s),
                b.critical_stage or "-",
            ))
        lines.append(format_table(
            ["batch", "total ms", "prep", "disp", "collect", "merge",
             "worker max", "LI", "LI rec", "overlap", "critical"],
            rows, title="per-batch timelines",
        ))
    if a.rank_busy_s:
        rows = [
            (rank, _ms(busy), _pct(a.rank_util.get(rank)))
            for rank, busy in a.rank_busy_s.items()
        ]
        lines.append(format_table(
            ["rank", "busy ms", "utilization"], rows,
            title="per-rank utilization (worker spans / session span)",
        ))
    return "\n".join(lines)


def render_gantt(
    analysis: TraceAnalysis,
    *,
    batch: Optional[int] = None,
    width: int = 64,
) -> str:
    """ASCII per-batch timelines (one chart per batch).

    With ``batch`` set, renders only that batch.  Rows are the master
    stages in execution order plus one row per rank's worker spans;
    the time axis is seconds relative to the batch's first span.
    """
    selected = [
        b for b in analysis.batches if batch is None or b.batch == batch
    ]
    if not selected:
        raise ConfigurationError(
            f"no batch {batch} in this trace"
            if batch is not None
            else "trace contains no batch spans to chart"
        )
    charts: List[str] = []
    stage_order = _FLEET_STAGES if analysis.fleet else _SERVICE_STAGES
    for b in selected:
        rows: List[Tuple[str, List[Tuple[float, float]]]] = []
        for name in stage_order:
            if name in b.stage_spans:
                rows.append((
                    name,
                    [(ts - b.t0, dur) for ts, dur in b.stage_spans[name]],
                ))
        for rank in sorted(b.worker_spans):
            rows.append((
                f"rank {rank}",
                [
                    (ts - b.t0, dur)
                    for _, ts, dur in b.worker_spans[rank]
                ],
            ))
        title = f"batch {b.batch} — {1e3 * (b.t1 - b.t0):.2f} ms wall"
        if b.li_event is not None:
            title += f", LI {_pct(b.li_event)}"
        charts.append(gantt_chart(rows, width=width, title=title))
    return "\n".join(charts)


# -- regression attribution --------------------------------------------


@dataclass(slots=True)
class StageDelta:
    """Mean per-batch seconds of one stage in trace A vs trace B."""

    name: str
    a_mean_s: float
    b_mean_s: float

    @property
    def delta_s(self) -> float:
        """B minus A (positive = B is slower here)."""
        return self.b_mean_s - self.a_mean_s


@dataclass(slots=True)
class TraceDiff:
    """Latency attribution between two traces of comparable sessions."""

    a: TraceAnalysis
    b: TraceAnalysis
    p50_delta_s: float
    li_delta: float
    stage_deltas: List[StageDelta] = field(default_factory=list)
    rank_deltas: List[StageDelta] = field(default_factory=list)


def _steady_batches(analysis: TraceAnalysis) -> List[BatchTimeline]:
    batches = analysis.batches
    return batches[1:] if len(batches) > 1 else list(batches)


def _stage_means(analysis: TraceAnalysis) -> Dict[str, float]:
    """Mean per-batch seconds per stage over the steady population,
    plus the ``worker`` pseudo-stage (slowest rank per batch)."""
    batches = _steady_batches(analysis)
    if not batches:
        return {}
    sums: Dict[str, float] = {}
    for b in batches:
        for name, secs in b.stages.items():
            sums[name] = sums.get(name, 0.0) + secs
        worker_max = max(b.worker_wall.values(), default=None)
        if worker_max is not None:
            sums["worker"] = sums.get("worker", 0.0) + worker_max
    return {name: total / len(batches) for name, total in sums.items()}


def _rank_means(analysis: TraceAnalysis) -> Dict[int, float]:
    batches = _steady_batches(analysis)
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for b in batches:
        for rank, wall in b.worker_wall.items():
            sums[rank] = sums.get(rank, 0.0) + wall
            counts[rank] = counts.get(rank, 0) + 1
    return {rank: sums[rank] / counts[rank] for rank in sums}


def diff_traces(a: TraceAnalysis, b: TraceAnalysis) -> TraceDiff:
    """Attribute the latency difference B − A to stages and ranks.

    Stage deltas compare mean per-batch stage seconds over each
    trace's steady batches (sorted by absolute delta — the top entry
    is the regression's primary suspect); rank deltas do the same for
    each rank's ``worker.query`` wall.
    """
    a_stages, b_stages = _stage_means(a), _stage_means(b)
    stage_deltas = [
        StageDelta(name, a_stages.get(name, 0.0), b_stages.get(name, 0.0))
        for name in sorted(set(a_stages) | set(b_stages))
    ]
    stage_deltas.sort(key=lambda d: -abs(d.delta_s))
    a_ranks, b_ranks = _rank_means(a), _rank_means(b)
    rank_deltas = [
        StageDelta(f"rank {r}", a_ranks.get(r, 0.0), b_ranks.get(r, 0.0))
        for r in sorted(set(a_ranks) | set(b_ranks))
    ]
    return TraceDiff(
        a=a,
        b=b,
        p50_delta_s=b.p50_total_s - a.p50_total_s,
        li_delta=b.li_max - a.li_max,
        stage_deltas=stage_deltas,
        rank_deltas=rank_deltas,
    )


def render_diff(diff: TraceDiff, *, a_name: str = "A", b_name: str = "B") -> str:
    """Human-readable attribution report for one :class:`TraceDiff`."""
    lines: List[str] = []
    a, b = diff.a, diff.b
    direction = "slower" if diff.p50_delta_s > 0 else "faster"
    pct = (
        abs(diff.p50_delta_s) / a.p50_total_s * 100
        if a.p50_total_s > 0
        else 0.0
    )
    lines.append(
        f"steady p50: {a_name} {_ms(a.p50_total_s)} ms -> {b_name} "
        f"{_ms(b.p50_total_s)} ms ({b_name} is {_ms(abs(diff.p50_delta_s))} "
        f"ms / {pct:.1f}% {direction})"
    )
    lines.append(
        f"max LI: {a_name} {_pct(a.li_max)} -> {b_name} {_pct(b.li_max)}"
    )
    if diff.stage_deltas:
        top = diff.stage_deltas[0]
        lines.append(
            f"top contributor: {top.name} "
            f"({'+' if top.delta_s >= 0 else ''}{_ms(top.delta_s)} ms/batch)"
        )
        rows = [
            (
                d.name,
                _ms(d.a_mean_s),
                _ms(d.b_mean_s),
                f"{'+' if d.delta_s >= 0 else ''}{_ms(d.delta_s)}",
                (
                    f"{'+' if d.delta_s >= 0 else ''}"
                    f"{d.delta_s / d.a_mean_s * 100:.1f}%"
                    if d.a_mean_s > 0
                    else "-"
                ),
            )
            for d in diff.stage_deltas
        ]
        lines.append("")
        lines.append(format_table(
            ["stage", f"{a_name} ms", f"{b_name} ms", "delta ms", "delta %"],
            rows, title="per-stage attribution (mean per steady batch)",
        ))
    if diff.rank_deltas:
        rows = [
            (
                d.name,
                _ms(d.a_mean_s),
                _ms(d.b_mean_s),
                f"{'+' if d.delta_s >= 0 else ''}{_ms(d.delta_s)}",
            )
            for d in diff.rank_deltas
        ]
        lines.append(format_table(
            ["rank", f"{a_name} ms", f"{b_name} ms", "delta ms"],
            rows, title="per-rank query wall (mean per steady batch)",
        ))
    return "\n".join(lines)
