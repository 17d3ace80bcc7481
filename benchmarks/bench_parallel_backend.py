"""Real-parallel backend benchmark: LBE speedup in actual seconds.

Measures the query phase of the process backend
(:class:`~repro.service.ParallelSearchEngine` — real OS workers over
a memmap-shared fragment arena) against the in-process serial query
phase *on the same kernels*, for LBE (cyclic) and naive (chunk)
partitioning at 1/2/3 workers.  This is the paper's headline claim —
wall-clock speedup from load-balanced parallel peptide search —
finally measured on real processes instead of virtual clocks.

Metrics (all real seconds, written to ``BENCH_parallel.json``):

* ``serial_s.query`` — the in-process query phase over the full
  database (the 1-worker baseline, same rank body as the workers),
* per config (policy × workers): each worker's query wall and CPU
  seconds, the master-observed parallel-section wall, and phase times,
* ``speedup.query_dedicated_Nw`` — serial query seconds over the
  slowest worker's query **CPU** seconds.  Worker CPU time equals the
  wall-clock a worker would take with a dedicated core, so this is
  the machine-independent speedup figure; on a host with >= N free
  cores it coincides with ``speedup.query_wall_Nw`` (reported
  alongside, from worker wall clocks).  ``machine.cpu_count`` records
  how much physical parallelism backed the wall numbers — on a 1-CPU
  container the wall figures necessarily hover at ~1x while the
  dedicated figures show the work division.
* ``speedup.lbe_vs_naive_Nw`` — slowest-worker query time under chunk
  over slowest-worker under cyclic: the load-balancing win itself.

Every configuration's merged results are checked bit-identical to the
serial engine before anything is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_backend.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.db.proteome import ProteomeConfig
from repro.index.slm import SLMIndexSettings
from repro.service import ParallelSearchEngine, ServiceConfig
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.metrics import load_imbalance
from repro.search.rank import build_rank_index, run_rank_queries
from repro.search.serial import SerialSearchEngine
from repro.spectra.preprocess import PreprocessConfig, preprocess_spectrum
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_parallel.json"


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
    n_families = 8 if quick else 30
    n_spectra = 40 if quick else 360
    repeats = 2 if quick else 3
    worker_counts = (2,) if quick else (2, 3)
    settings = SLMIndexSettings()

    db = IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=n_families, seed=4242),
            max_variants_per_peptide=8,
        )
    )
    spectra = generate_run(
        db.entries, SyntheticRunConfig(n_spectra=n_spectra, seed=777)
    )
    processed = [preprocess_spectrum(s, PreprocessConfig()) for s in spectra]

    serial_reference = SerialSearchEngine(db, settings).run(spectra)

    # Serial query-phase baseline: the identical rank body, one
    # in-process "rank" owning the whole database.  Build once (the
    # engines amortize builds the same way), time the query phase.
    arena = db.arena_for(settings.fragmentation)
    all_ids = np.arange(db.n_entries, dtype=np.int64)
    sub, full_index = build_rank_index(arena, all_ids, settings)
    serial_query_s = float("inf")
    serial_query_cpu = float("inf")
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        run_rank_queries(full_index, sub, all_ids, processed, top_k=5)
        serial_query_s = min(serial_query_s, time.perf_counter() - t0)
        serial_query_cpu = min(serial_query_cpu, time.process_time() - c0)

    configs = {}
    identical = True
    for policy in ("cyclic", "chunk"):
        for n_workers in worker_counts:
            engine = ParallelSearchEngine(
                db,
                ServiceConfig(
                    n_workers=n_workers, policy=policy, index=settings
                ),
            )
            best = None
            open_s = None
            for _ in range(repeats):
                res = engine.run(spectra)
                # Every run opens its own session; the first run's
                # open (spill + spawn + attach) is the cold cost.
                if open_s is None:
                    open_s = res.phase_times["open"]
                identical = identical and same_results(serial_reference, res)
                if best is None or res.phase_times["query_cpu"] < best.phase_times["query_cpu"]:
                    best = res
            configs[f"{policy}_{n_workers}w"] = {
                "policy": policy,
                "n_workers": n_workers,
                "query_wall_max_s": max(s.query_time for s in best.rank_stats),
                "query_cpu_max_s": max(s.query_cpu_time for s in best.rank_stats),
                "per_worker_query_cpu_s": [
                    s.query_cpu_time for s in best.rank_stats
                ],
                "query_cpu_imbalance": load_imbalance(
                    [s.query_cpu_time for s in best.rank_stats]
                ),
                "build_wall_max_s": max(s.build_time for s in best.rank_stats),
                "parallel_wall_s": best.phase_times["parallel_wall"],
                "parallel_overhead_s": best.phase_times["parallel_overhead"],
                "open_s": open_s,
                "per_worker_entries": [s.n_entries for s in best.rank_stats],
            }

    speedup = {}
    for n_workers in worker_counts:
        cyclic = configs[f"cyclic_{n_workers}w"]
        chunk = configs[f"chunk_{n_workers}w"]
        speedup[f"query_dedicated_{n_workers}w"] = (
            serial_query_cpu / cyclic["query_cpu_max_s"]
        )
        speedup[f"query_wall_{n_workers}w"] = (
            serial_query_s / cyclic["query_wall_max_s"]
        )
        speedup[f"lbe_vs_naive_{n_workers}w"] = (
            chunk["query_cpu_max_s"] / cyclic["query_cpu_max_s"]
        )

    report = {
        "benchmark": "parallel_backend",
        "quick": quick,
        "repeats": repeats,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "start_method": "spawn",
        },
        "workload": {
            "n_entries": db.n_entries,
            "n_ions": int(arena.n_ions),
            "n_spectra": len(spectra),
            "total_cpsms": serial_reference.total_cpsms,
        },
        "serial_s": {
            "query": serial_query_s,
            "query_cpu": serial_query_cpu,
        },
        "configs": configs,
        "speedup": speedup,
        "identical_results": bool(identical),
        "note": (
            "query_dedicated_* uses per-worker CPU seconds = the "
            "wall-clock a worker takes with a dedicated core; it equals "
            "query_wall_* when machine.cpu_count >= n_workers and is the "
            "machine-independent figure on oversubscribed hosts."
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
        f"entries={w['n_entries']} spectra={w['n_spectra']} "
        f"cpus={report['machine']['cpu_count']}"
    )
    print(
        f"serial query: {report['serial_s']['query'] * 1e3:8.1f} ms wall "
        f"/ {report['serial_s']['query_cpu'] * 1e3:8.1f} ms cpu"
    )
    for name, cfg in report["configs"].items():
        print(
            f"{name:>10}: query {cfg['query_wall_max_s'] * 1e3:8.1f} ms wall "
            f"/ {cfg['query_cpu_max_s'] * 1e3:8.1f} ms cpu (max worker), "
            f"LI {100 * cfg['query_cpu_imbalance']:.1f}%, "
            f"overhead {cfg['parallel_overhead_s'] * 1e3:8.1f} ms"
        )
    for key, value in report["speedup"].items():
        print(f"{key:>24}: {value:6.2f}x")
    print(f"identical_results={report['identical_results']}")
    print(f"wrote {args.out}")
    if not report["identical_results"]:
        raise SystemExit("parallel and serial engines disagree — refusing to report")


if __name__ == "__main__":
    main()
