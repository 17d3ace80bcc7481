"""Service-throughput benchmark: one-shot vs resident per-batch cost.

Measures what the persistent service (:mod:`repro.service`) actually
amortizes, on a stream of identical-shape query batches:

* **one-shot** — a fresh :class:`~repro.service.SearchService`
  session opened and closed around every batch: each batch pays
  worker spawn + interpreter import + arena spill + attach (~0.5 s on
  a laptop-class host),
* **resident** — one :class:`~repro.service.SearchService` session:
  spawn + spill + attach are paid once in ``open()``; each
  ``submit()`` sends the packed batch in the round's one command,
* **pipelined** — the same session driven through
  ``SearchService.stream``: the master preprocesses + packs batch
  N+1 and merges batch N while the workers query, so the per-batch
  *completion interval* drops below the sequential per-submit latency
  by however much master-side work the overlap hides.

Metrics written to ``BENCH_service.json``:

* ``oneshot.mean_batch_s`` / ``resident.steady_batch_s`` — per-batch
  wall seconds; ``speedup.resident_vs_oneshot`` is their ratio (the
  headline: the spawn/spill overhead is paid once per *session*, not
  once per *batch*),
* ``pipelined.steady_batch_s`` — the steady-state completion interval
  of the overlapped stream; ``speedup.pipelined_vs_sequential`` is
  sequential-steady / pipelined-steady (>= 1 when the overlap hides
  real master work), and ``pipelined.overlap_s_total`` is the master
  wall time that ran behind worker rounds,
* ``resident.open_s`` vs ``resident.steady_batch_s`` — the amortized
  session cost against the steady-state latency floor,
* ``observability.*`` — steady-state latency of three paired sessions
  (bare, in-memory flight recorder, JSONL file tracer);
  ``overhead_ratio`` and ``ring_overhead_ratio`` are what the
  ``--obs-overhead`` regression guard bounds,
* ``resilience.*`` — the supervision layer's per-session totals
  (``retries`` re-dispatches, ``hedged`` speculative duplicates,
  ``respawns`` worker replacements) summed over the resident and
  pipelined sessions.  A fault-free benchmark run **must** report all
  zeros — the supervision fast path adds no work when nothing fails —
  and the results are refused otherwise.

Every batch's merged results — one-shot, resident, every batch — are
checked bit-identical to the serial engine before anything is
reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.db.proteome import ProteomeConfig
from repro.index.slm import SLMIndexSettings
from repro.obs import (
    NULL_TRACER,
    JsonlTracer,
    MetricsRegistry,
    validate_trace_file,
)
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.serial import SerialSearchEngine
from repro.service import (
    SearchService,
    ServiceConfig,
    aggregate_batch_stats,
)
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_service.json"

N_WORKERS = 2


def same_results(a, b) -> bool:
    """Exact equality of two SearchResults' merged spectra."""
    if len(a.spectra) != len(b.spectra):
        return False
    for sa, sb in zip(a.spectra, b.spectra):
        if sa.scan_id != sb.scan_id or sa.n_candidates != sb.n_candidates:
            return False
        if [(p.entry_id, p.score, p.shared_peaks) for p in sa.psms] != [
            (p.entry_id, p.score, p.shared_peaks) for p in sb.psms
        ]:
            return False
    return True


def run(quick: bool = False) -> dict:
    n_families = 6 if quick else 16
    n_batches = 3 if quick else 6
    batch_size = 20 if quick else 60
    settings = SLMIndexSettings()

    db = IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=n_families, seed=4242),
            max_variants_per_peptide=8,
        )
    )
    all_spectra = generate_run(
        db.entries,
        SyntheticRunConfig(n_spectra=n_batches * batch_size, seed=777),
    )
    batches = [
        all_spectra[i * batch_size : (i + 1) * batch_size]
        for i in range(n_batches)
    ]

    serial = SerialSearchEngine(db, settings)
    references = [serial.run(batch) for batch in batches]
    identical = True

    # -- one-shot: a fresh session (fresh spawn) per batch --------------
    # Each total is the batch's open-through-close wall time.
    oneshot_totals = []
    for i, batch in enumerate(batches):
        config = ServiceConfig(n_workers=N_WORKERS, index=settings)
        t_start = time.perf_counter()
        with SearchService(db, config) as service:
            res, _stats = service.submit(batch)
        oneshot_totals.append(time.perf_counter() - t_start)
        identical = identical and same_results(references[i], res)

    # -- resident: one session, the same stream ------------------------
    resident_totals = []
    with SearchService(
        db, ServiceConfig(n_workers=N_WORKERS, index=settings)
    ) as service:
        open_s = service.open_s
        attach_s = service.attach_s
        for i, batch in enumerate(batches):
            res, stats = service.submit(batch)
            identical = identical and same_results(references[i], res)
            resident_totals.append(stats.total_s)
        resident_session = aggregate_batch_stats(service.batch_stats)
        respawns = service.respawn_total
    identical = identical and respawns == 0

    # -- pipelined: the same stream through the overlapped session ------
    completions = []
    with SearchService(
        db,
        ServiceConfig(n_workers=N_WORKERS, index=settings, max_pending=4),
    ) as service:
        pipe_open_s = service.open_s
        t_stream = time.perf_counter()
        for i, (res, stats) in enumerate(service.stream(iter(batches))):
            identical = identical and same_results(references[i], res)
            completions.append(time.perf_counter())
        pipe_wall = completions[-1] - t_stream
        pipe_session = aggregate_batch_stats(service.batch_stats)
        respawns_pipe = service.respawn_total
    identical = identical and respawns_pipe == 0
    overlap_total = pipe_session.overlap_s_total
    depth_max = pipe_session.pipeline_depth_max
    # Throughput view: per-batch completion intervals of the stream.
    gaps = [completions[0] - t_stream] + [
        b - a for a, b in zip(completions, completions[1:])
    ]
    pipe_steady = min(gaps[1:]) if len(gaps) > 1 else gaps[0]
    # Fault-free supervision must be invisible: any retry, hedge, or
    # respawn in a clean benchmark run invalidates the numbers.
    retries_total = resident_session.retries + pipe_session.retries
    hedged_total = resident_session.hedged + pipe_session.hedged
    identical = identical and retries_total == 0 and hedged_total == 0

    steady = resident_session.steady_batch_s
    mean_oneshot = sum(oneshot_totals) / len(oneshot_totals)

    # -- observability: bare vs ring vs traced, back-to-back ------------
    # Three paired sessions over the same repeated stream: a *bare*
    # session (flight recorder off, no tracer), the *ring* default (the
    # in-memory flight recorder every untraced session now carries),
    # and a *traced* session (JSONL file tracer).  Both enabled paths
    # must stay within a few percent of bare (the --obs-overhead
    # regression guard bounds each ratio) and the JSONL trace must be
    # schema-valid with zero violations.  Steady-state is a min over
    # many samples measured under the same machine state, so
    # single-scheduler-hiccup noise does not masquerade as overhead.
    obs_batches = batches * (3 if quick else 2)

    def obs_session(tracer, metrics, flight_recorder=False):
        ok = True
        with SearchService(
            db,
            ServiceConfig(
                n_workers=N_WORKERS,
                index=settings,
                tracer=tracer,
                metrics=metrics,
                flight_recorder=flight_recorder,
            ),
        ) as service:
            for i, batch in enumerate(obs_batches):
                res, stats = service.submit(batch)
                ok = ok and same_results(references[i % len(batches)], res)
            session = aggregate_batch_stats(service.batch_stats)
            ring = service.flight_recorder
            ring_seen = ring.n_seen if ring is not None else 0
        return session, ok, ring_seen

    bare_session, ok, _ = obs_session(NULL_TRACER, MetricsRegistry())
    identical = identical and ok
    ring_session, ok, ring_seen = obs_session(
        NULL_TRACER, MetricsRegistry(), flight_recorder=True
    )
    identical = identical and ok and ring_seen > 0
    fd, trace_path = tempfile.mkstemp(suffix=".jsonl", prefix="bench-trace-")
    os.close(fd)
    tracer = JsonlTracer(trace_path)
    traced_session, ok, _ = obs_session(tracer, MetricsRegistry())
    identical = identical and ok
    tracer.close()
    n_trace_records, trace_errors = validate_trace_file(trace_path)
    os.unlink(trace_path)
    traced_steady = traced_session.steady_batch_s
    ring_steady = ring_session.steady_batch_s
    untraced_steady = bare_session.steady_batch_s

    report = {
        "benchmark": "service_throughput",
        "quick": quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "start_method": "spawn",
            "n_workers": N_WORKERS,
        },
        "workload": {
            "n_entries": db.n_entries,
            "n_batches": n_batches,
            "batch_size": batch_size,
            "total_cpsms_per_batch": [r.total_cpsms for r in references],
        },
        "oneshot": {
            "per_batch_total_s": oneshot_totals,
            "mean_batch_s": mean_oneshot,
        },
        "resident": {
            "open_s": open_s,
            "attach_s": attach_s,
            "per_batch_total_s": resident_totals,
            "first_batch_s": resident_totals[0],
            "steady_batch_s": steady,
            "batches_per_sec": 1.0 / steady,
        },
        "pipelined": {
            "open_s": pipe_open_s,
            "stream_wall_s": pipe_wall,
            "per_batch_gap_s": gaps,
            "mean_batch_s": pipe_wall / n_batches,
            "steady_batch_s": pipe_steady,
            "batches_per_sec": 1.0 / pipe_steady,
            "overlap_s_total": overlap_total,
            "pipeline_depth_max": depth_max,
        },
        "speedup": {
            # The headline: spawn + import + attach paid once per
            # session instead of once per batch.
            "resident_vs_oneshot": mean_oneshot / steady,
            "overhead_amortized_s": mean_oneshot - steady,
            # The pipeline headline: master stages hidden behind the
            # workers' rounds shrink the per-batch completion interval.
            "pipelined_vs_sequential": steady / pipe_steady,
        },
        "observability": {
            # Steady-state latency with the JSONL tracer / the default
            # in-memory flight recorder enabled, vs the bare session;
            # both ratios are what the --obs-overhead regression guard
            # bounds (<= 1.05).
            "traced_steady_batch_s": traced_steady,
            "ring_steady_batch_s": ring_steady,
            "untraced_steady_batch_s": untraced_steady,
            "overhead_ratio": traced_steady / untraced_steady,
            "ring_overhead_ratio": ring_steady / untraced_steady,
            "ring_records_seen": ring_seen,
            "n_batches_per_session": len(obs_batches),
            "trace_records": n_trace_records,
            "trace_schema_errors": len(trace_errors),
            "li_wall_mean": traced_session.query_li_mean,
            "li_wall_max": traced_session.query_li_max,
            "p50_batch_s": traced_session.p50_batch_s,
            "p95_batch_s": traced_session.p95_batch_s,
        },
        "resilience": {
            # Supervision-layer accounting over both sessions; a clean
            # run reports zeros (the retry/hedge paths are dormant).
            "retries": retries_total,
            "hedged": hedged_total,
            "respawns": respawns + respawns_pipe,
        },
        "identical_results": bool(identical),
        "note": (
            "oneshot.mean_batch_s includes per-run worker spawn + import "
            "+ arena attach; resident.steady_batch_s is a submit() on an "
            "already-attached session (min over batches >= 1); "
            "pipelined.steady_batch_s is the min completion interval of "
            "the overlapped stream (same-session throughput view)."
        ),
    }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke)"
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH, help="output JSON path"
    )
    args = parser.parse_args()
    report = run(quick=args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    w = report["workload"]
    print(
        f"entries={w['n_entries']} batches={w['n_batches']}x{w['batch_size']} "
        f"workers={report['machine']['n_workers']} "
        f"cpus={report['machine']['cpu_count']}"
    )
    print(f"one-shot mean batch : {report['oneshot']['mean_batch_s'] * 1e3:8.1f} ms")
    print(
        f"resident open       : {report['resident']['open_s'] * 1e3:8.1f} ms "
        f"(paid once per session)"
    )
    print(
        f"resident steady batch: {report['resident']['steady_batch_s'] * 1e3:7.1f} ms "
        f"({report['resident']['batches_per_sec']:.1f} batches/s)"
    )
    p = report["pipelined"]
    print(
        f"pipelined steady batch: {p['steady_batch_s'] * 1e3:6.1f} ms "
        f"({p['batches_per_sec']:.1f} batches/s, depth {p['pipeline_depth_max']}, "
        f"{p['overlap_s_total'] * 1e3:.1f} ms master work overlapped)"
    )
    o = report["observability"]
    print(
        f"traced steady batch : {o['traced_steady_batch_s'] * 1e3:8.1f} ms "
        f"(x{o['overhead_ratio']:.3f} of bare, {o['trace_records']} "
        f"records, {o['trace_schema_errors']} schema errors)"
    )
    print(
        f"ring steady batch   : {o['ring_steady_batch_s'] * 1e3:8.1f} ms "
        f"(x{o['ring_overhead_ratio']:.3f} of bare, "
        f"{o['ring_records_seen']} records through the flight recorder)"
    )
    for key, value in report["speedup"].items():
        unit = " s" if key.endswith("_s") else "x"
        print(f"{key:>24}: {value:6.2f}{unit}")
    print(f"identical_results={report['identical_results']}")
    print(f"wrote {args.out}")
    if not report["identical_results"]:
        raise SystemExit(
            "service and serial engines disagree — refusing to report"
        )


if __name__ == "__main__":
    main()
