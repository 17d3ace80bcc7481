"""Per-layer measurement: set-up walk, traced session, layer walk.

Three views of the same workload, all taken from outside the program:

* **set-up walk** — the steps ``open()`` performs (digest, arena, plan,
  spill, spawn + attach) called one by one through their public
  functions on the session's own database objects, so that ``open()``
  finds each product cached and its own span is the residual;
* **traced session** — the workload again, shorter, with
  ``ServiceConfig.tracer`` set to a ring; ``obs.analyze.analyze_trace``
  turns its records into per-batch stage times (the program's own
  account of a batch), and ``/proc`` gives memory per process;
* **layer walk** — in the benchmark process, each rank manifest of the
  session's own plan is rebuilt and a sample of batches is pushed
  through preprocess → spill → open → filter → score → top-k → reply
  pickle → merge, one benchmark-side span per call, with the kernels'
  exact work counters beside the times.

The budget row ``service.unaccounted_ms`` is the traced session's
median latency minus the median stage times; see README.md.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.index.arena import thread_workspace
from repro.index.memory import IndexMemoryModel
from repro.obs.analyze import TraceAnalysis, analyze_trace
from repro.obs.metrics import quantile
from repro.obs.ring import RingTracer
from repro.parallel.persistent import PersistentPool
from repro.parallel.shared_arena import shared_spill_for
from repro.parallel.shared_spectra import SharedSpectraStore
from repro.parallel.worker import resident_attach, resident_echo
from repro.search.engine import make_lbe_plan
from repro.search.metrics import load_imbalance
from repro.search.rank import (
    build_rank_index,
    merge_rank_payloads,
    run_rank_queries,
    summarize_rank_output,
)
from repro.search.scoring import score_many
from repro.spectra.preprocess import PreprocessConfig, preprocess_batch

from endtoend import (
    EndToEnd,
    Phase,
    drive,
    make_service,
    memory_mb,
    resilience_counters,
    session_pids,
)
from spans import SpanLog, duration
from workloads import (
    N_WORKERS,
    TOP_K,
    Workload,
    build_database,
    index_settings,
)

#: Ring size for the traced session: ~10 records per (shard) batch, so
#: this never evicts inside one measured window.
_TRACE_CAPACITY = 1 << 20
_ROUNDTRIP_SAMPLES = 200
_MB = 1e6


def _p50_ms(seconds: Sequence[float]) -> float:
    return quantile(list(seconds), 0.5) * 1e3 if seconds else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# -- set-up walk ---------------------------------------------------------


@dataclass
class WalkedSession:
    """An open traced session whose set-up was timed step by step."""

    service: object
    tracer: RingTracer
    pools: List[tuple]  # (database, LBEPlan) per worker pool
    setup: Dict[str, float]


def walked_setup(workload: Workload, log: SpanLog) -> WalkedSession:
    """Open a traced session, timing each set-up layer on the way."""
    settings = index_settings(workload)
    tracer = RingTracer(_TRACE_CAPACITY)
    with log.span("setup.walk"):
        with log.span("db.build"):
            database = build_database(workload)
        # The sharded constructor cuts the ShardPlan (one database
        # object per shard); the plain one does no work.
        with log.span("sharding.plan"):
            service = make_service(workload, database, tracer=tracer)
        if workload.n_shards:
            pool_dbs = [shard.database for shard in service.plan.shards]
        else:
            pool_dbs = [database]
        config = service.config
        spills = []
        for pool_db in pool_dbs:
            with log.span("index.arena_build"):
                arena = pool_db.arena_for(settings.fragmentation)
            # Warms the database's grouping cache (the plan's cost);
            # open() redoes only the cheap assignment and id mapping.
            with log.span("core.plan"):
                make_lbe_plan(
                    pool_db,
                    n_ranks=config.n_workers,
                    policy=config.policy,
                    policy_seed=config.policy_seed,
                    grouping=config.grouping,
                )
            # Held until open() returns: the session then owns the
            # process-wide cached handle.
            with log.span("parallel.arena_spill"):
                spills.append(shared_spill_for(arena, settings.resolution))
        with log.span("service.open") as open_span:
            service.open()

    def by_name(name: str) -> float:
        return sum(log.durations(name))

    sharded = bool(workload.n_shards)
    inner = service.services if sharded else [service]
    setup = {
        "db.build_s": by_name("db.build"),
        "index.arena_build_s": by_name("index.arena_build"),
        "core.plan_s": by_name("core.plan"),
        "parallel.arena_spill_s": by_name("parallel.arena_spill"),
        "parallel.arena_spill_mb": sum(s.store.nbytes() for s in spills) / _MB,
        "parallel.attach_s": service.attach_s,
        "service.open_s": sum(s.open_s for s in inner),
        "sharding.plan_s": by_name("sharding.plan") if sharded else 0.0,
        "sharding.open_s": duration(open_span) if sharded else 0.0,
    }
    pools = [(db, s.plan) for db, s in zip(pool_dbs, inner)]
    return WalkedSession(service, tracer, pools, setup)


def setup_layer_sum(metrics: Dict[str, float], sharded: bool) -> float:
    """The walked layers that lie on ``open()``'s path, summed.

    ``parallel.spawn_s`` / ``parallel.attach_s`` / ``index.rank_build_s``
    are views *inside* the open residual and are not added again; on a
    fleet the open residual is ``sharding.open_s`` (its shards open one
    after another), otherwise ``service.open_s``.
    """
    return (
        metrics["db.build_s"]
        + metrics["sharding.plan_s"]
        + metrics["index.arena_build_s"]
        + metrics["core.plan_s"]
        + metrics["parallel.arena_spill_s"]
        + (metrics["sharding.open_s"] if sharded else metrics["service.open_s"])
    )


# -- traced session ------------------------------------------------------


def _stage_p50s(analyses: Sequence[TraceAnalysis]) -> Dict[str, float]:
    """Median per-batch stage times over every (pool, batch) timeline."""
    stages: Dict[str, List[float]] = {
        name: [] for name in ("prepare", "spill", "dispatch", "collect", "merge")
    }
    worker_open: List[float] = []
    worker_query: List[float] = []
    collect_wait: List[float] = []
    for analysis in analyses:
        for batch in analysis.batches:
            for name, samples in stages.items():
                if name in batch.stages:
                    samples.append(batch.stages[name])
            if not batch.worker_spans:
                continue
            # The slowest rank sets the round.
            per_rank = [
                (
                    sum(d for n, _, d in spans if n == "worker.open"),
                    sum(d for n, _, d in spans if n == "worker.query"),
                )
                for spans in batch.worker_spans.values()
            ]
            slow_open, slow_query = max(per_rank, key=sum)
            worker_open.append(slow_open)
            worker_query.append(slow_query)
            collect_wait.append(dict(batch.critical_path).get("collect.wait", 0.0))
    out = {f"service.{name}_ms": _p50_ms(s) for name, s in stages.items()}
    out["service.worker_open_ms"] = _p50_ms(worker_open)
    out["service.worker_query_ms"] = _p50_ms(worker_query)
    out["service.collect_wait_ms"] = _p50_ms(collect_wait)
    return out


def traced_session_metrics(
    workload: Workload,
    session: WalkedSession,
    batches: list,
    phase: Phase,
    t_measured: float,
    untraced_spectra_per_s: float,
) -> Dict[str, float]:
    """Stage budget, pipeline, routing and telemetry-cost metrics."""
    # Keep the measured window only (warm-up excluded), plus the
    # session.open events the analyzer reads the pool shape from.
    records = [
        r
        for r in session.tracer.records()
        if r.get("kind") == "session.open" or r["ts"] >= t_measured
    ]
    sharded = bool(workload.n_shards)
    if sharded:
        fleet = analyze_trace(records)
        pools = [analyze_trace(records, shard=s) for s in range(workload.n_shards)]
        route = [b.stages["route"] for b in fleet.batches if "route" in b.stages]
        demux = [b.stages["demux"] for b in fleet.batches if "demux" in b.stages]
    else:
        pools = [analyze_trace(records)]
        route = demux = []
    out = _stage_p50s(pools)
    out["sharding.route_ms"] = _p50_ms(route)
    out["sharding.demux_ms"] = _p50_ms(demux)
    out["service.unaccounted_ms"] = phase.p_ms(0.5) - sum(
        out[name]
        for name in (
            "service.prepare_ms",
            "service.spill_ms",
            "service.dispatch_ms",
            "service.worker_open_ms",
            "service.worker_query_ms",
            "service.collect_wait_ms",
            "service.merge_ms",
            "sharding.route_ms",
            "sharding.demux_ms",
        )
    )
    stats = phase.stats
    out["service.queue_wait_ms"] = _p50_ms([s.wait_s for s in stats])
    out["service.pipeline_depth"] = _mean([s.pipeline_depth for s in stats])
    out["service.overlap_frac"] = _mean([a.overlap_efficiency for a in pools])
    out["service.rank_util"] = _mean(
        [u for a in pools for u in a.rank_util.values()]
    )
    out["core.li_wall"] = _mean([s.query_li for s in stats])
    out["core.li_cpu"] = _mean([s.query_li_cpu for s in stats])
    out["parallel.scatter_bytes"] = _mean([s.scatter_bytes for s in stats])
    if sharded:
        settings = index_settings(workload)
        routed = [session.service.plan.route(b, settings) for b in batches]
        pairs = sum(len(positions) for r in routed for positions in r)
        broadcast = sum(len(b) for b in batches) * workload.n_shards
        out["sharding.dispatch_frac"] = sum(
            s.shards_dispatched for s in stats
        ) / (len(stats) * workload.n_shards)
        out["sharding.pair_frac"] = pairs / broadcast
    else:
        # One pool: every batch and every spectrum goes to it.
        out["sharding.dispatch_frac"] = out["sharding.pair_frac"] = 1.0
    out["obs.records_per_batch"] = len(records) / max(phase.n_batches, 1)
    out["obs.trace_overhead_frac"] = (
        1.0 - phase.spectra_per_s / untraced_spectra_per_s
    )
    return out


def memory_metrics(session: WalkedSession, sizes: Dict[str, int]) -> Dict[str, float]:
    """PSS per process kind against the structural index model."""
    master, *workers = session_pids(session.service)
    worker_mem = [memory_mb(pid) for pid in workers]
    model = IndexMemoryModel(ions_per_entry=sizes["n_ions"] / sizes["n_entries"])
    return {
        "mem.master_pss_mb": memory_mb(master)[0],
        "mem.worker_pss_mb": sum(pss for pss, _ in worker_mem),
        "mem.worker_private_mb": sum(private for _, private in worker_mem),
        "mem.model_mb": model.distributed(sizes["n_entries"], N_WORKERS).steady_bytes
        / _MB,
    }


# -- pool round-trip -----------------------------------------------------


def pool_roundtrip(log: SpanLog) -> Dict[str, float]:
    """Spawn cost of a fresh idle pool and its empty-command round-trip."""
    with log.span("parallel.spawn") as spawn:
        pool = PersistentPool(N_WORKERS)
        pool.attach(resident_attach, [None] * N_WORKERS)
    try:
        for _ in range(_ROUNDTRIP_SAMPLES):
            with log.span("parallel.roundtrip"):
                pool.run_batch(resident_echo, [None] * N_WORKERS)
    finally:
        pool.close()
    return {
        "parallel.spawn_s": duration(spawn),
        "parallel.roundtrip_ms": _p50_ms(log.durations("parallel.roundtrip")),
    }


# -- layer walk ----------------------------------------------------------


def _walk_rank(log: SpanLog, b: int, store_dir: Path, unit, settings, workspace):
    """One rank's round on one batch, call by call.

    Returns the rank's ``{open, filter, score, topk, unpickle}`` seconds,
    its reply as the master would unpickle it, and the reply's bytes.
    """
    _, index, sub_arena, entry_ids = unit
    with log.span("walk.rank", batch=b):
        with log.span("parallel.spectra_open", batch=b) as s_open:
            spectra = SharedSpectraStore.open(store_dir).load(mmap_mode="r")
        with log.span("index.filter_many", batch=b) as s_filter:
            filtered = index.filter_many(spectra, workspace=workspace)
        with log.span("search.score_many", batch=b) as s_score:
            score_many(
                spectra,
                [f.candidates for f in filtered],
                fragment_tolerance=settings.fragment_tolerance,
                fragmentation=settings.fragmentation,
                arena=sub_arena,
                workspace=workspace,
            )
        # The rank body as the worker runs it; its excess over the two
        # kernels is the per-spectrum top-k selection.
        with log.span("search.run_rank_queries", batch=b) as s_run:
            out = run_rank_queries(index, sub_arena, entry_ids, spectra, top_k=TOP_K)
        report = summarize_rank_output(out)
        with log.span("parallel.reply_pickle", batch=b):
            blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        with log.span("parallel.reply_unpickle", batch=b) as s_unpickle:
            report = pickle.loads(blob)
    times = {
        "open": duration(s_open),
        "filter": duration(s_filter),
        "score": duration(s_score),
        "topk": max(0.0, duration(s_run) - duration(s_filter) - duration(s_score)),
        "unpickle": duration(s_unpickle),
    }
    return times, report, len(blob)


def layer_walk(
    workload: Workload, session: WalkedSession, batches: list, log: SpanLog
) -> Dict[str, float]:
    """Push sample batches through each layer's public calls, by hand."""
    settings = index_settings(workload)
    # One unit per (pool, rank): what one resident worker holds.
    units = []
    for pool_id, (pool_db, plan) in enumerate(session.pools):
        arena = pool_db.arena_for(settings.fragmentation)
        for rank in range(plan.n_ranks):
            entry_ids = np.asarray(plan.rank_global_ids(rank), dtype=np.int64)
            with log.span("index.rank_build"):
                sub_arena, index = build_rank_index(arena, entry_ids, settings)
            units.append((pool_id, index, sub_arena, entry_ids))
    workspace = thread_workspace()
    scratch = Path(tempfile.mkdtemp(prefix="spine-walk-"))

    # Evenly spaced over the pool, so mass-sorted pools are sampled
    # across their whole mass range.
    step = max(1, len(batches) // workload.walk_batches)
    sample = list(range(0, len(batches), step))[: workload.walk_batches]

    # Per batch: the slowest rank's kernel times (the round waits for
    # it) and the master-side sums.
    slowest = ("open", "filter", "score", "topk")
    summed = ("preprocess", "spill", "unpickle", "merge", "reply_bytes", "spill_bytes")
    per_batch: Dict[str, List[float]] = {k: [] for k in slowest + summed}
    totals = dict.fromkeys(
        (
            "spectra", "peaks_in", "peaks_kept", "ions", "buckets", "candidates",
            "scored", "residues", "psms", "filter_s", "score_s",
        ),
        0.0,
    )
    cands_per_unit = [0] * len(units)
    try:
        for b in sample:
            batch = batches[b]
            rank_times: List[Dict[str, float]] = []
            acc = dict.fromkeys(summed, 0.0)
            with log.span("walk.batch", batch=b):
                with log.span("spectra.preprocess", batch=b) as sp:
                    processed = preprocess_batch(batch, PreprocessConfig())
                acc["preprocess"] = duration(sp)
                totals["spectra"] += len(batch)
                totals["peaks_in"] += sum(s.n_peaks for s in batch)
                totals["peaks_kept"] += sum(s.n_peaks for s in processed)
                if workload.n_shards:
                    routed = session.service.plan.route(batch, settings)
                else:
                    routed = [list(range(len(batch)))]
                for pool_id, positions in enumerate(routed):
                    if not positions:
                        continue
                    sub = [processed[i] for i in positions]
                    store_dir = scratch / f"b{b}_p{pool_id}"
                    with log.span("parallel.spectra_spill", batch=b) as sp:
                        store = SharedSpectraStore.spill(sub, store_dir)
                    acc["spill"] += duration(sp)
                    acc["spill_bytes"] += store.nbytes()
                    payloads = []
                    for u, unit in enumerate(units):
                        if unit[0] != pool_id:
                            continue
                        times, report, reply_bytes = _walk_rank(
                            log, b, store_dir, unit, settings, workspace
                        )
                        rank_times.append(times)
                        acc["unpickle"] += times["unpickle"]
                        acc["reply_bytes"] += reply_bytes
                        totals["filter_s"] += times["filter"]
                        totals["score_s"] += times["score"]
                        totals["ions"] += report["ions_scanned"]
                        totals["buckets"] += report["buckets_scanned"]
                        totals["candidates"] += int(report["counts"].sum())
                        totals["scored"] += report["candidates_scored"]
                        totals["residues"] += report["residues_scored"]
                        totals["psms"] += sum(
                            ids.size for ids, _, _ in report["local_psms"]
                        )
                        cands_per_unit[u] += report["candidates_scored"]
                        payloads.append((report["counts"], report["local_psms"]))
                    plan = session.pools[pool_id][1]
                    with log.span("search.merge", batch=b) as sp:
                        merge_rank_payloads(payloads, sub, plan.mapping, TOP_K)
                    acc["merge"] += duration(sp)
                    shutil.rmtree(store_dir)
            for k in summed:
                per_batch[k].append(acc[k])
            for k in slowest:
                per_batch[k].append(max(t[k] for t in rank_times))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    n = totals["spectra"]
    return {
        "index.rank_build_s": max(log.durations("index.rank_build")),
        "spectra.preprocess_ms": _p50_ms(per_batch["preprocess"]),
        "spectra.peaks_kept_frac": totals["peaks_kept"] / totals["peaks_in"],
        "index.filter_ms": _p50_ms(per_batch["filter"]),
        "index.ions_scanned": totals["ions"] / n,
        "index.buckets_scanned": totals["buckets"] / n,
        "index.candidates": totals["candidates"] / n,
        "index.filter_mions_per_s": totals["ions"] / totals["filter_s"] / 1e6,
        "index.cand_per_kion": totals["candidates"] / (totals["ions"] / 1e3),
        "search.score_ms": _p50_ms(per_batch["score"]),
        "search.candidates_scored": totals["scored"] / n,
        "search.residues_scored": totals["residues"] / n,
        "search.score_kcands_per_s": totals["scored"] / totals["score_s"] / 1e3,
        "search.topk_ms": _p50_ms(per_batch["topk"]),
        "search.psm_kept_frac": totals["psms"] / max(totals["scored"], 1),
        "search.merge_ms": _p50_ms(per_batch["merge"]),
        "parallel.reply_bytes": _mean(per_batch["reply_bytes"]),
        "parallel.reply_unpickle_ms": _p50_ms(per_batch["unpickle"]),
        "parallel.spectra_spill_ms": _p50_ms(per_batch["spill"]),
        "parallel.spectra_open_ms": _p50_ms(per_batch["open"]),
        "parallel.spectra_spill_bytes": _mean(per_batch["spill_bytes"]),
        "core.li_cands": load_imbalance(cands_per_unit) if any(cands_per_unit) else 0.0,
    }


# -- the traced run ------------------------------------------------------


@dataclass
class Layers:
    metrics: Dict[str, float]
    phase: Phase
    attempted: int
    resilience: Dict[str, int]
    trace_records: List[dict]


def measure_layers(
    workload: Workload, seconds: float, baseline: EndToEnd, log: SpanLog
) -> Layers:
    """The traced run: every per-layer metric of one workload."""
    session = walked_setup(workload, log)
    service = session.service
    metrics = dict(session.setup)
    try:
        # Same seed, same inputs: the baseline's pool and oracle apply.
        batches, references = baseline.batches, baseline.references
        warm = drive(
            service, batches, references,
            in_flight=workload.in_flight, first_op=0, n_ops=workload.warmup,
        )
        t_measured = time.perf_counter()
        phase = drive(
            service, batches, references,
            in_flight=workload.in_flight, first_op=warm.next_op,
            seconds=seconds, n_ops=workload.max_ops,
        )
        phase.failed += warm.failed
        metrics.update(memory_metrics(session, baseline.sizes))
        metrics.update(
            traced_session_metrics(
                workload, session, batches, phase, t_measured,
                baseline.phase.spectra_per_s,
            )
        )
        resilience = resilience_counters(service, warm.stats + phase.stats)
    finally:
        with log.span("service.close") as close_span:
            service.close()
    metrics["service.close_s"] = duration(close_span)
    # On an idle machine: the session's workers are gone.
    metrics.update(pool_roundtrip(log))
    metrics.update(layer_walk(workload, session, batches, log))
    metrics["setup.unaccounted_s"] = baseline.metrics["setup_s"] - setup_layer_sum(
        metrics, bool(workload.n_shards)
    )
    metrics["search.serial_spectra_per_s"] = baseline.serial_spectra_per_s
    speedup = baseline.phase.spectra_per_s / baseline.serial_spectra_per_s
    metrics["core.speedup_vs_serial"] = speedup
    metrics["core.parallel_eff"] = speedup / N_WORKERS
    metrics["parallel.retries"] = resilience["retries"]
    metrics["parallel.hedged"] = resilience["hedged"]
    metrics["parallel.respawns"] = resilience["respawns"]
    metrics["service.degraded_batches"] = resilience["degraded_batches"]
    metrics["correctness.failed_frac"] = phase.failed / (
        warm.n_batches + phase.n_batches
    )
    return Layers(
        metrics=metrics,
        phase=phase,
        attempted=warm.n_batches + phase.n_batches,
        resilience=resilience,
        trace_records=session.tracer.records(),
    )
