"""The measurement spine: one command, every metric by name.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed N]
                                    [--seconds S] [--trace 0|1] [--smoke]

Without ``--workload`` every workload runs, each in a fresh interpreter,
and the combined record is written to ``out/spine.json`` (``--out`` to
choose).  ``--trace 0`` measures end to end with tracing off; ``--trace
1`` runs a short untraced baseline and then the traced run that yields
the per-layer metrics; omitted, one process does both.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is non-zero when any batch
failed or differed from the serial engine, when the supervision layer
retried / hedged / respawned on what must be a clean run, or when the
run left a child process or a spill directory behind.

``BENCHMARK.json`` at the repository root is the single table of metric
names, units, directions and bounds; this script refuses to print a
metric set that differs from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parent.parent
OUT = SPINE / "out"
sys.path.insert(0, str(ROOT / "src"))


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def stamp(seed: int) -> dict:
    """Where and on what these numbers were taken."""
    import platform

    import numpy

    from workloads import N_WORKERS

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = proc.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": sha,
        "nproc": nproc,
        "n_workers": N_WORKERS,
        "oversubscribed": nproc < N_WORKERS,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def live_children() -> list:
    """Pids of this process's children that have not been reaped."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def run_workload(args, manifest: dict) -> int:
    """Measure one workload in this process; returns the exit code."""
    import endtoend
    import layers
    from spans import SpanLog
    from workloads import by_name

    workload = by_name(args.workload)
    if args.smoke:
        workload = workload.smoke()
    # Spills land inside the checkout, under a directory this run owns
    # and removes.  tempfile reads TMPDIR on first use, which is later
    # than this, here and in every spawned worker.
    tmp = OUT / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    seconds = args.seconds
    traced_only = args.trace == 1
    log = SpanLog()
    try:
        # The traced run needs an untraced baseline of the same process
        # for the tracing overhead and the speed-up over serial; when
        # only per-layer metrics are asked for it is kept short.
        baseline = endtoend.measure_end_to_end(
            workload,
            args.seed,
            seconds / 2 if traced_only else seconds,
            1 if traced_only else workload.setup_cycles,
        )
        traced = None
        if args.trace != 0:
            traced = layers.measure_layers(workload, seconds / 2, baseline, log)
    finally:
        gc.collect()  # spill directories go with their last holder
        leftovers = sorted(p.name for p in tmp.iterdir())
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    # multiprocessing's resource tracker is a helper this process
    # started by spawning workers; stop and reap it like the rest.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    children = live_children()

    def declared(kind: str, values: dict) -> dict:
        units = {m["name"]: m["unit"] for m in manifest[kind]}
        if set(values) != set(units):
            raise SystemExit(
                f"{kind} metrics differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(units))}"
            )
        return {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        }

    metrics = {}
    if not traced_only:
        metrics.update(declared("end_to_end", baseline.metrics))
    if traced is not None:
        metrics.update(declared("per_layer", traced.metrics))

    runs = [baseline] if traced is None else [baseline, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.phase.failed for r in runs)
    resilience = {
        key: sum(r.resilience[key] for r in runs) for key in baseline.resilience
    }
    clean = not any(resilience.values()) and not leftovers and not children
    correct = failed == 0 and clean

    width = max(len(name) for name in metrics)
    print(f"workload {workload.name}  seed {args.seed}  "
          f"measured {baseline.phase.n_batches} batches / "
          f"{baseline.phase.n_spectra} spectra in {baseline.phase.wall_s:.2f} s "
          f"(latency samples: {len(baseline.phase.latencies_s)})")
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
    if leftovers:
        print(f"LEFTOVER spill directories: {leftovers}")
    if children:
        print(f"LIVE child processes: {children}")
    if any(resilience.values()):
        print(f"SUPERVISION ACTIVITY on a clean run: {resilience}")

    record = {
        "workload": workload.name,
        "smoke": args.smoke,
        "claim": None,
        "stamp": {
            **stamp(args.seed),
            **baseline.sizes,
            "measured_batches": baseline.phase.n_batches,
            "measured_spectra": baseline.phase.n_spectra,
            "warmup_batches": workload.warmup,
            "batch_size": workload.batch_size,
            "unique_batches": workload.n_unique,
            "in_flight": workload.in_flight,
            "seconds": seconds,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "resilience": resilience,
        "setup_cycles_s": baseline.setup_cycles_s,
        "pass_walls_s": [wall for wall, _, _ in baseline.phase.passes()],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="ascii"
    )
    if traced is not None:
        log.write(OUT / f"{workload.name}.spans.jsonl")
        with open(OUT / f"{workload.name}.trace.jsonl", "w", encoding="ascii") as fh:
            for rec in traced.trace_records:
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args, manifest: dict) -> int:
    """Every workload, one fresh interpreter each; one combined record."""
    combined = {"claim": None, "workloads": {}}
    code = 0
    for entry in manifest["workloads"]:
        cmd = [
            sys.executable, str(SPINE / "run.py"),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        record_path = OUT / f"{entry['name']}.json"
        record_path.unlink(missing_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if record_path.exists():
            combined["workloads"][entry["name"]] = json.loads(
                record_path.read_text(encoding="ascii")
            )
    out_path = Path(args.out) if args.out else OUT / "spine.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(combined, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out_path}")
    return code


def main() -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                             "BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end only, 1 per-layer only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, at most 30 batches per workload")
    parser.add_argument("--out", help="combined record path (all workloads)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(manifest["run_seconds"])
    if args.workload is None:
        return run_all(args, manifest)
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
