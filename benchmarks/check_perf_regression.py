"""CI perf-regression guard for the hot-path and parallel benchmarks.

Compares freshly-measured benchmark reports against the committed
trajectories (``BENCH_hotpath.json``, ``BENCH_parallel.json``) and
fails (non-zero exit) when a guarded speedup regresses below the
allowed fraction of the committed figure.  The committed reports are
produced on a developer machine with the full workload while CI runs
``--quick`` on shared runners, so the tolerances are deliberately
generous: the guard exists to catch order-of-magnitude regressions
(an accidentally de-vectorized kernel, a dropped cache, a backend
that silently serializes), not single-digit-percent noise.

Hot-path checks (``--baseline``/``--fresh``), in order:

1. the fresh report's ``identical_results`` flag is true (the bench
   itself refuses to report mismatched kernels, but belt-and-braces),
2. fresh combined speedup >= ``--floor`` (absolute sanity bound),
3. fresh combined speedup >= ``--min-ratio`` x committed combined,
4. fresh batched-filtration speedup over the per-spectrum baseline
   >= ``--filter-floor`` (the batched kernel must not regress into a
   real loss; the floor sits below 1.0 for timing-noise margin).

Parallel-backend checks (``--parallel-baseline``/``--parallel-fresh``):

1. ``identical_results`` is true (process backend == serial engine),
2. dedicated-core query speedup at 2 workers >= ``--parallel-floor``
   (CPU-seconds based, so it holds even on 1-CPU runners),
3. >= ``--min-ratio`` x the committed dedicated 2-worker figure,
4. LBE-vs-naive (chunk/cyclic slowest-worker ratio) at 2 workers
   >= ``--lbe-floor`` (well below 1.0: small quick workloads can
   land near-balanced chunk partitions by luck).

Service checks (``--service-baseline``/``--service-fresh``):

1. ``identical_results`` is true (every session batch == serial),
2. resident-vs-oneshot per-batch speedup >= ``--service-floor``
   (the session must actually amortize the spawn/spill overhead —
   a service that silently re-attaches per batch lands at ~1.0),
3. pipelined-vs-sequential steady-state throughput >=
   ``--pipeline-floor`` (the overlapped session must never be a real
   loss against sequential submits on the same resident pool; the
   floor sits below 1.0 for the timing noise of quick CI workloads —
   the committed full-workload figure is the trajectory to beat),
4. enabled JSONL tracing costs <= ``--obs-overhead`` of the untraced
   steady-state latency and the traced session's trace is schema-clean
   (``observability.trace_schema_errors == 0``) — telemetry must stay
   out of the hot loops,
5. the default in-memory flight recorder costs <= ``--obs-overhead``
   of the bare (recorder-off) steady-state latency
   (``observability.ring_overhead_ratio``) — it is always on in
   production, so it gets the same ceiling as file tracing.

Shard-routing checks (``--shard-baseline``/``--shard-fresh``):

1. ``identical_results`` is true (sharded fleet == serial engine,
   with dormant supervision),
2. routing selectivity >= ``--selectivity-floor`` (on the bench's
   mass-sorted batches the router must actually skip shards — a
   router degenerating into broadcast lands at 0.0; the exact routing
   counts are timing-independent, so this holds on any runner),
3. sharded-vs-unsharded steady latency <= ``--shard-latency-ceiling``
   (the fleet costs fan-out/merge overhead and oversubscribes small
   runners, but must not blow up by an order of magnitude).

Elastic-rebalancing checks (``--rebalance-baseline``/
``--rebalance-fresh``):

1. ``identical_results`` is true (both sessions == serial engine,
   before and after every migration),
2. the rebalancing session applied >= 1 migration (a dead trigger
   means the benchmark measured two frozen sessions),
3. rebalanced-vs-frozen steady latency >= ``--rebalance-gain`` on the
   skewed-host harness (live re-planning must beat the frozen plan),
   and >= ``--min-ratio`` x the committed gain when a baseline is
   supplied.

Any pair of reports may be supplied alone; at least one is required.

Usage::

    python benchmarks/check_perf_regression.py \
        --baseline BENCH_hotpath.json --fresh /tmp/bench_fresh.json \
        --parallel-baseline BENCH_parallel.json \
        --parallel-fresh /tmp/bench_parallel_fresh.json \
        --service-baseline BENCH_service.json \
        --service-fresh /tmp/bench_service_fresh.json \
        --shard-baseline BENCH_shard.json \
        --shard-fresh /tmp/bench_shard_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check_hotpath(args, failures: list) -> None:
    baseline = json.loads(args.baseline.read_text(encoding="ascii"))
    fresh = json.loads(args.fresh.read_text(encoding="ascii"))

    if not fresh.get("identical_results", False):
        failures.append("fresh hot-path run reports identical_results=false")

    committed_combined = float(baseline["speedup"]["combined"])
    fresh_combined = float(fresh["speedup"]["combined"])
    required = args.min_ratio * committed_combined
    print(
        f"combined speedup: fresh {fresh_combined:.2f}x vs committed "
        f"{committed_combined:.2f}x (required >= {required:.2f}x, "
        f"floor {args.floor:.2f}x)"
    )
    if fresh_combined < args.floor:
        failures.append(
            f"combined speedup {fresh_combined:.2f}x below absolute "
            f"floor {args.floor:.2f}x"
        )
    if fresh_combined < required:
        failures.append(
            f"combined speedup {fresh_combined:.2f}x below "
            f"{args.min_ratio:.2f} x committed ({required:.2f}x)"
        )

    filter_batch = float(
        fresh["speedup"].get("filter_batch_vs_per_spectrum", float("nan"))
    )
    print(
        f"batched filtration vs per-spectrum: {filter_batch:.2f}x "
        f"(required >= {args.filter_floor:.2f}x)"
    )
    if not filter_batch >= args.filter_floor:  # catches NaN too
        failures.append(
            f"batched filtration speedup {filter_batch:.2f}x below "
            f"floor {args.filter_floor:.2f}x"
        )


def check_parallel(args, failures: list) -> None:
    fresh = json.loads(args.parallel_fresh.read_text(encoding="ascii"))

    if not fresh.get("identical_results", False):
        failures.append("fresh parallel run reports identical_results=false")

    dedicated = float(fresh["speedup"].get("query_dedicated_2w", float("nan")))
    print(
        f"parallel query speedup (dedicated-core, 2 workers): "
        f"{dedicated:.2f}x (required >= {args.parallel_floor:.2f}x)"
    )
    if not dedicated >= args.parallel_floor:  # catches NaN too
        failures.append(
            f"dedicated 2-worker query speedup {dedicated:.2f}x below "
            f"floor {args.parallel_floor:.2f}x"
        )
    if args.parallel_baseline is not None:
        committed = json.loads(
            args.parallel_baseline.read_text(encoding="ascii")
        )
        committed_dedicated = float(committed["speedup"]["query_dedicated_2w"])
        required = args.min_ratio * committed_dedicated
        print(
            f"  vs committed {committed_dedicated:.2f}x "
            f"(required >= {required:.2f}x)"
        )
        if dedicated < required:
            failures.append(
                f"dedicated 2-worker query speedup {dedicated:.2f}x below "
                f"{args.min_ratio:.2f} x committed ({required:.2f}x)"
            )

    lbe = float(fresh["speedup"].get("lbe_vs_naive_2w", float("nan")))
    print(
        f"LBE vs naive partitioning (2 workers): {lbe:.2f}x "
        f"(required >= {args.lbe_floor:.2f}x)"
    )
    if not lbe >= args.lbe_floor:
        failures.append(
            f"LBE-vs-naive speedup {lbe:.2f}x below floor "
            f"{args.lbe_floor:.2f}x"
        )


def check_service(args, failures: list) -> None:
    fresh = json.loads(args.service_fresh.read_text(encoding="ascii"))

    if not fresh.get("identical_results", False):
        failures.append("fresh service run reports identical_results=false")

    resident = float(
        fresh["speedup"].get("resident_vs_oneshot", float("nan"))
    )
    print(
        f"service resident-vs-oneshot batch speedup: {resident:.2f}x "
        f"(required >= {args.service_floor:.2f}x)"
    )
    if not resident >= args.service_floor:  # catches NaN too
        failures.append(
            f"resident-vs-oneshot speedup {resident:.2f}x below floor "
            f"{args.service_floor:.2f}x"
        )
    if args.service_baseline is not None:
        committed = json.loads(
            args.service_baseline.read_text(encoding="ascii")
        )
        committed_resident = float(committed["speedup"]["resident_vs_oneshot"])
        required = args.min_ratio * committed_resident
        print(
            f"  vs committed {committed_resident:.2f}x "
            f"(required >= {required:.2f}x)"
        )
        if resident < required:
            failures.append(
                f"resident-vs-oneshot speedup {resident:.2f}x below "
                f"{args.min_ratio:.2f} x committed ({required:.2f}x)"
            )

    pipelined = float(
        fresh["speedup"].get("pipelined_vs_sequential", float("nan"))
    )
    print(
        f"service pipelined-vs-sequential steady throughput: "
        f"{pipelined:.2f}x (required >= {args.pipeline_floor:.2f}x)"
    )
    if not pipelined >= args.pipeline_floor:  # catches NaN too
        failures.append(
            f"pipelined-vs-sequential steady throughput {pipelined:.2f}x "
            f"below floor {args.pipeline_floor:.2f}x — the overlapped "
            "session is losing to sequential submits"
        )

    obs = fresh.get("observability", {})
    overhead = float(obs.get("overhead_ratio", float("nan")))
    schema_errors = obs.get("trace_schema_errors")
    print(
        f"service traced/untraced steady latency: {overhead:.3f}x "
        f"(required <= {args.obs_overhead:.2f}x, "
        f"{obs.get('trace_records', '?')} trace records)"
    )
    if not overhead <= args.obs_overhead:  # catches NaN too
        failures.append(
            f"enabled tracing costs {overhead:.3f}x the untraced steady "
            f"latency, above ceiling {args.obs_overhead:.2f}x — the "
            "tracer has crept into the hot path"
        )
    ring_overhead = float(obs.get("ring_overhead_ratio", float("nan")))
    print(
        f"service flight-recorder/bare steady latency: "
        f"{ring_overhead:.3f}x (required <= {args.obs_overhead:.2f}x, "
        f"{obs.get('ring_records_seen', '?')} records through the ring)"
    )
    if not ring_overhead <= args.obs_overhead:  # catches NaN too
        failures.append(
            f"the default flight recorder costs {ring_overhead:.3f}x the "
            f"bare steady latency, above ceiling {args.obs_overhead:.2f}x "
            "— the always-on ring must stay invisible in the hot path"
        )
    if schema_errors != 0:
        failures.append(
            f"traced benchmark session emitted "
            f"{schema_errors!r} schema violations — the trace no longer "
            "matches repro.obs.schema"
        )


def check_shard(args, failures: list) -> None:
    fresh = json.loads(args.shard_fresh.read_text(encoding="ascii"))

    if not fresh.get("identical_results", False):
        failures.append("fresh shard-routing run reports identical_results=false")

    selectivity = float(
        fresh.get("routing", {}).get("selectivity", float("nan"))
    )
    print(
        f"shard routing selectivity: {selectivity:.2f} "
        f"(required >= {args.selectivity_floor:.2f})"
    )
    if not selectivity >= args.selectivity_floor:  # catches NaN too
        failures.append(
            f"shard routing selectivity {selectivity:.2f} below floor "
            f"{args.selectivity_floor:.2f} — the mass-range router is "
            "broadcasting batches to shards their windows cannot reach"
        )
    if args.shard_baseline is not None:
        committed = json.loads(args.shard_baseline.read_text(encoding="ascii"))
        committed_sel = float(committed["routing"]["selectivity"])
        required = args.min_ratio * committed_sel
        print(
            f"  vs committed {committed_sel:.2f} "
            f"(required >= {required:.2f})"
        )
        if selectivity < required:
            failures.append(
                f"shard routing selectivity {selectivity:.2f} below "
                f"{args.min_ratio:.2f} x committed ({required:.2f})"
            )

    ratio = float(
        fresh.get("latency", {}).get("sharded_vs_unsharded", float("nan"))
    )
    print(
        f"shard steady latency vs unsharded: {ratio:.2f}x "
        f"(required <= {args.shard_latency_ceiling:.2f}x)"
    )
    if not ratio <= args.shard_latency_ceiling:  # catches NaN too
        failures.append(
            f"sharded steady latency {ratio:.2f}x the unsharded session, "
            f"above ceiling {args.shard_latency_ceiling:.2f}x — the "
            "fan-out/merge overhead is exploding"
        )


def check_rebalance(args, failures: list) -> None:
    fresh = json.loads(args.rebalance_fresh.read_text(encoding="ascii"))

    if not fresh.get("identical_results", False):
        failures.append(
            "fresh rebalance run reports identical_results=false — a "
            "migration changed *what* was scored, not just where"
        )

    migrations = int(fresh.get("rebalanced", {}).get("migrations", 0))
    print(f"rebalance migrations applied: {migrations} (required >= 1)")
    if migrations < 1:
        failures.append(
            "rebalancing session never migrated — the LI trigger is "
            "dead and the benchmark measured two frozen sessions"
        )

    gain = float(
        fresh.get("speedup", {}).get("rebalanced_vs_frozen", float("nan"))
    )
    print(
        f"rebalanced vs frozen steady latency: {gain:.2f}x "
        f"(required >= {args.rebalance_gain:.2f}x)"
    )
    if not gain >= args.rebalance_gain:  # catches NaN too
        failures.append(
            f"rebalanced steady latency gain {gain:.2f}x below floor "
            f"{args.rebalance_gain:.2f}x — live re-planning no longer "
            "beats the frozen plan on the skewed-host harness"
        )
    if args.rebalance_baseline is not None:
        committed = json.loads(
            args.rebalance_baseline.read_text(encoding="ascii")
        )
        committed_gain = float(committed["speedup"]["rebalanced_vs_frozen"])
        required = args.min_ratio * committed_gain
        print(
            f"  vs committed {committed_gain:.2f}x "
            f"(required >= {required:.2f}x)"
        )
        if gain < required:
            failures.append(
                f"rebalance gain {gain:.2f}x below {args.min_ratio:.2f} x "
                f"committed ({required:.2f}x)"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_hotpath.json (the trajectory to beat)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="freshly measured hot-path report (e.g. a --quick run on CI)",
    )
    parser.add_argument(
        "--parallel-baseline",
        type=Path,
        default=None,
        help="committed BENCH_parallel.json",
    )
    parser.add_argument(
        "--parallel-fresh",
        type=Path,
        default=None,
        help="freshly measured parallel-backend report",
    )
    parser.add_argument(
        "--service-baseline",
        type=Path,
        default=None,
        help="committed BENCH_service.json",
    )
    parser.add_argument(
        "--service-fresh",
        type=Path,
        default=None,
        help="freshly measured service-throughput report",
    )
    parser.add_argument(
        "--shard-baseline",
        type=Path,
        default=None,
        help="committed BENCH_shard.json",
    )
    parser.add_argument(
        "--shard-fresh",
        type=Path,
        default=None,
        help="freshly measured shard-routing report",
    )
    parser.add_argument(
        "--rebalance-baseline",
        type=Path,
        default=None,
        help="committed BENCH_rebalance.json",
    )
    parser.add_argument(
        "--rebalance-fresh",
        type=Path,
        default=None,
        help="freshly measured elastic-rebalancing report",
    )
    parser.add_argument(
        "--rebalance-gain",
        type=float,
        default=1.02,
        help="minimum rebalanced-vs-frozen steady-latency ratio on the "
        "skewed-host harness (default: 1.02 — the committed figure is "
        "~1.2x at 2 workers with a 3x-slow rank; the floor only "
        "requires the migration to not be a loss, with margin for "
        "noisy shared runners)",
    )
    parser.add_argument(
        "--selectivity-floor",
        type=float,
        default=0.15,
        help="minimum fraction of (batch, shard) dispatches the router "
        "must skip on the bench's mass-sorted batches (default: 0.15 — "
        "the routing counts are exact and machine-independent; the "
        "committed full-workload figure is ~0.5, the floor only "
        "catches the router degenerating into broadcast)",
    )
    parser.add_argument(
        "--shard-latency-ceiling",
        type=float,
        default=6.0,
        help="maximum sharded/unsharded steady batch latency ratio "
        "(default: 6.0 — the fleet runs n_shards x n_workers processes "
        "on runners with one or two cores, so generous headroom; the "
        "guard catches an order-of-magnitude merge/fan-out blow-up)",
    )
    parser.add_argument(
        "--service-floor",
        type=float,
        default=1.2,
        help="minimum resident-vs-oneshot per-batch speedup (default: "
        "1.2 — the committed figure is ~16x on a 1-CPU container; the "
        "floor only catches the service degenerating into per-batch "
        "re-attach, with a wide margin for slow shared runners)",
    )
    parser.add_argument(
        "--pipeline-floor",
        type=float,
        default=0.9,
        help="minimum pipelined-vs-sequential steady-state throughput "
        "ratio (default: 0.9 — the pipelined session must at least "
        "match sequential submits; the floor sits below 1.0 only for "
        "the sub-100ms timing noise of quick CI workloads on shared "
        "1-to-2-core runners, where the master/worker overlap window "
        "is thin)",
    )
    parser.add_argument(
        "--obs-overhead",
        type=float,
        default=1.05,
        help="maximum traced/untraced steady batch latency ratio "
        "(default: 1.05 — enabled JSONL tracing emits a handful of "
        "records per batch off the measured path, so 5 percent covers "
        "timing noise; a ratio above it means tracing crept into the "
        "per-spectrum or per-rank hot loops)",
    )
    parser.add_argument(
        "--parallel-floor",
        type=float,
        default=1.1,
        help="minimum dedicated-core query speedup at 2 workers "
        "(default: 1.1 — CPU-seconds based, so valid on any runner; a "
        "work-dividing backend lands well above it, a serializing one "
        "at ~1.0 or below)",
    )
    parser.add_argument(
        "--lbe-floor",
        type=float,
        default=0.6,
        help="minimum LBE-vs-naive slowest-worker ratio at 2 workers "
        "(default: 0.6 — quick workloads can land near-balanced chunk "
        "partitions; the guard only catches LBE becoming a large loss)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.35,
        help="fresh combined speedup must reach this fraction of the "
        "committed combined speedup (default: 0.35 — CI runners are "
        "slower and noisier than the committing machine)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1.5,
        help="absolute minimum combined speedup (default: 1.5)",
    )
    parser.add_argument(
        "--filter-floor",
        type=float,
        default=0.8,
        help="minimum batched-vs-per-spectrum filtration speedup "
        "(default: 0.8 — batching must never be a real loss, but the "
        "quick-mode stages are sub-millisecond best-of-2 timings, so "
        "leave noise margin below 1.0)",
    )
    args = parser.parse_args()

    if (args.baseline is None) != (args.fresh is None):
        parser.error("--baseline and --fresh must be supplied together")
    if args.parallel_baseline is not None and args.parallel_fresh is None:
        parser.error("--parallel-baseline requires --parallel-fresh")
    if args.service_baseline is not None and args.service_fresh is None:
        parser.error("--service-baseline requires --service-fresh")
    if args.shard_baseline is not None and args.shard_fresh is None:
        parser.error("--shard-baseline requires --shard-fresh")
    if args.rebalance_baseline is not None and args.rebalance_fresh is None:
        parser.error("--rebalance-baseline requires --rebalance-fresh")
    have_hotpath = args.baseline is not None
    have_parallel = args.parallel_fresh is not None
    have_service = args.service_fresh is not None
    have_shard = args.shard_fresh is not None
    have_rebalance = args.rebalance_fresh is not None
    if not (
        have_hotpath
        or have_parallel
        or have_service
        or have_shard
        or have_rebalance
    ):
        parser.error(
            "supply --baseline/--fresh, --parallel-fresh, "
            "--service-fresh, --shard-fresh and/or --rebalance-fresh "
            "(each with its optional committed baseline)"
        )

    failures: list = []
    if have_hotpath:
        check_hotpath(args, failures)
    if have_parallel:
        check_parallel(args, failures)
    if have_service:
        check_service(args, failures)
    if have_shard:
        check_shard(args, failures)
    if have_rebalance:
        check_rebalance(args, failures)

    if failures:
        for f in failures:
            print(f"PERF REGRESSION: {f}", file=sys.stderr)
        return 1
    print("perf guard: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
