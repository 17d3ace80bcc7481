"""Command-line interface: the LBDSLIM-style end-user tool.

Subcommands mirror the paper's toolchain stages::

    python -m repro generate --out-dir data/           # proteome.fasta + run.ms2
    python -m repro digest   --fasta data/proteome.fasta --out data/peptides.fasta
    python -m repro group    --fasta data/peptides.fasta --out data/clustered.fasta
    python -m repro search   --fasta data/proteome.fasta --ms2 data/run.ms2 \\
                             --ranks 8 --policy cyclic --report data/psms.tsv
    python -m repro index    --fasta data/proteome.fasta --out data/index/
    python -m repro serve    --fasta data/proteome.fasta --ranks 2 \\
                             --batch data/run.ms2 --batch data/run2.ms2
    python -m repro trace analyze data/trace.jsonl       # timeline analysis
    python -m repro trace gantt   data/trace.jsonl       # ASCII timelines
    python -m repro trace diff    data/a.jsonl data/b.jsonl
    python -m repro figures --sizes 18 30 --spectra 60  # quick figure tables

Every command is deterministic under ``--seed`` and prints a short
summary table; ``search`` additionally reports per-policy load
imbalance when ``--compare-policies`` is set, and runs on real OS
worker processes over a memmap-shared arena (real wall-clock times,
identical results) with ``--backend process``: one service session
opened and closed around the one batch, its ``total`` the
open-through-close wall time.  ``serve`` keeps those
workers *resident* across an unbounded stream of query batches (MS2
paths via ``--batch``, or newline-separated on stdin) and prints
per-batch latency and scatter accounting; ``--pipeline`` drives the
stream through the service's overlapped session (preprocess batch N+1
while the workers query batch N — identical results, higher
throughput), and ``--index`` starts the session from an index archive
(``repro index``): the database's arena store plus its entry table,
which the workers attach as it lies on disk — no digestion, arena
build or spill.  SIGTERM drains the session like Ctrl-C does.

``trace`` is the consume side of the telemetry stack: ``analyze``
reconstructs per-batch timelines (stage breakdown, per-rank
utilization, overlap efficiency, critical path, recomputed Eq.-1 LI)
from a recorded trace — a ``--trace`` file or a flight-recorder black
box; ``gantt`` renders the timelines as ASCII charts; ``diff``
attributes a latency regression between two traces to stages/ranks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence

from repro.core.partition import POLICIES
from repro.errors import (
    ConfigurationError,
    FormatError,
    InvalidSpectrumError,
    ServiceError,
    ShardError,
    WorkerError,
)
from repro.index.slm import SLMIndexSettings

if TYPE_CHECKING:
    from repro.search.database import IndexedDatabase

# Each command imports what it runs inside its handler, so ``--help``
# loads no service, parallel or obs module.

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LBE distributed peptide search (IPDPSW 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic proteome + MS2 run")
    gen.add_argument("--out-dir", type=Path, required=True)
    gen.add_argument("--families", type=int, default=20)
    gen.add_argument("--spectra", type=int, default=100)
    gen.add_argument("--seed", type=int, default=7)

    dig = sub.add_parser("digest", help="tryptic digestion of a protein FASTA")
    dig.add_argument("--fasta", type=Path, required=True)
    dig.add_argument("--out", type=Path, required=True)
    dig.add_argument("--missed-cleavages", type=int, default=2)
    dig.add_argument("--min-length", type=int, default=6)
    dig.add_argument("--max-length", type=int, default=40)

    grp = sub.add_parser("group", help="Algorithm 1: write a clustered FASTA")
    grp.add_argument("--fasta", type=Path, required=True,
                     help="peptide FASTA (digest output)")
    grp.add_argument("--out", type=Path, required=True)
    grp.add_argument("--criterion", type=int, choices=(1, 2), default=2)
    grp.add_argument("--gsize", type=int, default=20)

    srch = sub.add_parser("search", help="distributed search of an MS2 file")
    srch.add_argument("--fasta", type=Path, required=True,
                      help="protein FASTA to digest and index")
    srch.add_argument("--ms2", type=Path, required=True)
    srch.add_argument("--ranks", type=int, default=4)
    srch.add_argument("--backend", default="simulated",
                      choices=("simulated", "process"),
                      help="simulated = ranks run in turn in one thread, "
                      "charged to virtual clocks (deterministic virtual "
                      "seconds); process = real OS workers over a "
                      "memmap-shared arena (real wall-clock seconds)")
    srch.add_argument("--policy", default="cyclic", choices=tuple(POLICIES))
    srch.add_argument("--report", type=Path, default=None,
                      help="write PSMs as TSV to this path")
    srch.add_argument("--max-variants", type=int, default=8)
    srch.add_argument("--top-k", type=int, default=5)
    srch.add_argument("--compare-policies", action="store_true")
    srch.add_argument("--seed", type=int, default=0)

    idx = sub.add_parser(
        "index",
        help="write an index archive (arena store + entry table) for "
        "serve --index",
    )
    idx.add_argument("--fasta", type=Path, required=True,
                     help="protein FASTA to digest and index")
    idx.add_argument("--out", type=Path, required=True,
                     help="archive directory (absent or empty)")
    idx.add_argument("--max-variants", type=int, default=8)

    srv = sub.add_parser(
        "serve",
        help="persistent search service over a stream of MS2 batches",
    )
    srv.add_argument("--fasta", type=Path, default=None,
                     help="protein FASTA to digest and index")
    srv.add_argument("--index", type=Path, default=None,
                     help="index archive directory (repro index); the "
                     "workers attach its arena store in place — no FASTA "
                     "parse, digestion, variant enumeration, arena build "
                     "or spill")
    srv.add_argument("--pipeline", action="store_true",
                     help="drive the batches through the overlapped "
                     "pipelined session (preprocess batch N+1 while the "
                     "workers query batch N); identical results")
    srv.add_argument("--batch", type=Path, action="append", default=None,
                     help="MS2 file to submit as one batch (repeatable); "
                     "omitted = read newline-separated MS2 paths from stdin")
    srv.add_argument("--ranks", type=int, default=2)
    srv.add_argument("--policy", default="cyclic", choices=tuple(POLICIES))
    srv.add_argument("--report-dir", type=Path, default=None,
                     help="write each batch's PSMs as TSV under this dir")
    srv.add_argument("--max-variants", type=int, default=8)
    srv.add_argument("--top-k", type=int, default=5)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--max-retries", type=int, default=1,
                     help="per-rank retry budget: respawn + re-dispatch a "
                     "crashed/hung rank's task up to this many times per "
                     "batch before the batch fails (0 = fail on first "
                     "fault, the library default)")
    srv.add_argument("--degraded-ok", action="store_true",
                     help="after a rank's retries are exhausted, return "
                     "the batch's partial results (explicit "
                     "degraded-coverage mask in the report) instead of "
                     "failing the batch")
    srv.add_argument("--hedge-after", type=float, default=None,
                     metavar="SECONDS",
                     help="straggler hedging: if a rank's query round "
                     "exceeds this soft deadline, speculatively re-run "
                     "its task on a fresh worker and take the first "
                     "answer (default: off)")
    srv.add_argument("--rebalance-li", type=float, default=None,
                     metavar="LI",
                     help="arm elastic self-rebalancing: when a sliding "
                     "window of batches sustains this Eq.-1 load "
                     "imbalance (or a rank is chronically slow), "
                     "re-plan with observed per-rank speed weights and "
                     "migrate the session between rounds — results stay "
                     "bit-identical (default: off)")
    srv.add_argument("--rebalance-window", type=int, default=4,
                     metavar="BATCHES",
                     help="batches per rebalance decision window "
                     "(default 4); the trigger judges window means, "
                     "never single batches")
    srv.add_argument("--min-workers", type=int, default=None,
                     help="lower pool-size bound for elastic scaling "
                     "(default: pin at --ranks)")
    srv.add_argument("--max-workers", type=int, default=None,
                     help="upper pool-size bound for elastic scaling: "
                     "sustained imbalance that re-weighting cannot fix "
                     "grows the pool up to this (default: pin at "
                     "--ranks)")
    srv.add_argument("--shards", type=int, default=1,
                     help="cut the database into this many contiguous "
                     "precursor-mass shards, each with its own resident "
                     "pool of --ranks workers; batches are routed only "
                     "to shards their precursor windows can reach "
                     "(default 1 = unsharded session)")
    srv.add_argument("--shard-boundaries", type=float, nargs="+",
                     default=None, metavar="DA",
                     help="explicit shard boundary masses in Da "
                     "(ascending, one fewer than --shards); default "
                     "balances shards by entry count")
    srv.add_argument("--trace", type=Path, default=None, metavar="FILE",
                     help="export a structured JSONL trace of the "
                     "session to FILE: spans for every pipeline stage "
                     "(prepare/dispatch/worker.query per rank/"
                     "collect/merge, shard route/demux) and events for "
                     "every supervision transition (retry, backoff, "
                     "respawn, hedge, degraded); validate with "
                     "python -m repro.obs.schema FILE (default: off, "
                     "zero-cost no-op tracer)")
    srv.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                     help="dump the session's MetricsRegistry snapshot "
                     "(counters, gauges, latency histogram quantiles) as "
                     "JSON to FILE at session close — machine-readable "
                     "steady-state numbers without a trace")
    srv.add_argument("--flight-dir", type=Path, default=None, metavar="DIR",
                     help="directory the flight recorder dumps its "
                     "black-box JSONL into when a worker/shard error "
                     "surfaces or a batch degrades (default: the system "
                     "temp dir); the recorder is always on unless "
                     "--no-flight-recorder or --trace is given")
    srv.add_argument("--no-flight-recorder", action="store_true",
                     help="disable the always-on in-memory flight "
                     "recorder (no black-box dumps on failures)")

    trc = sub.add_parser(
        "trace",
        help="analyze recorded JSONL traces (serve --trace files or "
        "flight-recorder black boxes)",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    trc_an = trc_sub.add_parser(
        "analyze",
        help="per-batch timelines: stage breakdown, per-rank "
        "utilization, overlap efficiency, critical path, recomputed "
        "Eq.-1 load imbalance",
    )
    trc_an.add_argument("file", type=Path)
    trc_an.add_argument("--shard", type=int, default=None,
                        help="analyze only this shard's records of a "
                        "fleet trace, as a standalone session")
    trc_ga = trc_sub.add_parser(
        "gantt", help="ASCII per-batch span timelines"
    )
    trc_ga.add_argument("file", type=Path)
    trc_ga.add_argument("--batch", type=int, default=None,
                        help="render only this batch")
    trc_ga.add_argument("--width", type=int, default=64)
    trc_ga.add_argument("--shard", type=int, default=None,
                        help="chart only this shard's records of a "
                        "fleet trace")
    trc_di = trc_sub.add_parser(
        "diff",
        help="attribute the latency difference between two traces "
        "(B vs A) to stages and ranks",
    )
    trc_di.add_argument("file_a", type=Path)
    trc_di.add_argument("file_b", type=Path)
    trc_di.add_argument("--shard", type=int, default=None)

    figs = sub.add_parser("figures", help="print quick figure tables")
    figs.add_argument("--sizes", type=float, nargs="+", default=[18.0, 49.45])
    figs.add_argument("--spectra", type=int, default=60)
    figs.add_argument("--seed", type=int, default=29)

    return parser


def _build_database(fasta: Path, max_variants: int) -> IndexedDatabase:
    """The FASTA → digest → dedup → variant-expansion build, shared by
    every command that indexes a proteome (`search`, `index`, `serve`)."""
    from repro.db.fasta import read_fasta
    from repro.search.database import DatabaseConfig, IndexedDatabase

    return IndexedDatabase.build(
        DatabaseConfig(max_variants_per_peptide=max_variants),
        records=list(read_fasta(fasta)),
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.db.fasta import write_fasta
    from repro.db.proteome import ProteomeConfig, generate_proteome
    from repro.search.database import DatabaseConfig, IndexedDatabase
    from repro.spectra.ms2 import write_ms2
    from repro.spectra.synthetic import SyntheticRunConfig, generate_run

    args.out_dir.mkdir(parents=True, exist_ok=True)
    proteome = generate_proteome(
        ProteomeConfig(n_families=args.families, seed=args.seed)
    )
    fasta_path = args.out_dir / "proteome.fasta"
    write_fasta(fasta_path, proteome.records)

    db = IndexedDatabase.build(
        DatabaseConfig(max_variants_per_peptide=8), records=proteome.records
    )
    spectra = generate_run(
        db.entries, SyntheticRunConfig(n_spectra=args.spectra, seed=args.seed + 1)
    )
    ms2_path = args.out_dir / "run.ms2"
    write_ms2(ms2_path, spectra)
    print(f"wrote {len(proteome.records)} proteins -> {fasta_path}")
    print(f"wrote {len(spectra)} spectra -> {ms2_path}")
    return 0


def _cmd_digest(args: argparse.Namespace) -> int:
    from repro.db.dedup import first_occurrences
    from repro.db.digest import DigestionConfig, digest_rows
    from repro.db.fasta import FastaRecord, read_fasta, write_fasta

    records = list(read_fasta(args.fasta))
    config = DigestionConfig(
        missed_cleavages=args.missed_cleavages,
        min_length=args.min_length,
        max_length=args.max_length,
    )
    unique = first_occurrences(digest_rows(records, config))
    write_fasta(
        args.out,
        (FastaRecord(f"pep{i}", row[0]) for i, row in enumerate(unique)),
    )
    print(f"digested {len(records)} proteins -> {len(unique)} unique "
          f"peptides -> {args.out}")
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    from repro.core.grouping import GroupingConfig, group_peptides
    from repro.db.fasta import read_fasta, write_grouped_fasta

    sequences = [rec.sequence for rec in read_fasta(args.fasta)]
    grouping = group_peptides(
        sequences, GroupingConfig(criterion=args.criterion, gsize=args.gsize)
    )
    write_grouped_fasta(
        args.out,
        [sequences[i] for i in grouping.order],
        grouping.group_sizes.tolist(),
    )
    print(f"grouped {grouping.n_sequences} peptides into "
          f"{grouping.n_groups} groups -> {args.out}")
    return 0


def _search_once(
    db: IndexedDatabase,
    spectra,
    policy: str,
    args: argparse.Namespace,
):
    if getattr(args, "backend", "simulated") == "process":
        from repro.search.psm import RankStats, SearchResults
        from repro.service import SearchService, ServiceConfig

        config = ServiceConfig(
            n_workers=args.ranks,
            policy=policy,
            policy_seed=args.seed,
            top_k=args.top_k,
        )
        if not spectra:
            # Nothing to search: no worker needs to exist.
            return SearchResults(
                spectra=[],
                rank_stats=[RankStats(rank=r) for r in range(args.ranks)],
                phase_times={},
                policy_name=policy,
                n_ranks=args.ranks,
            )
        # One session for the one batch: ``total`` spans open
        # through close.
        t_start = time.perf_counter()
        with SearchService(db, config) as service:
            results, _stats = service.submit(spectra)
        results.phase_times["total"] = time.perf_counter() - t_start
        return results
    from repro.search.engine import DistributedSearchEngine, EngineConfig

    engine = DistributedSearchEngine(
        db,
        EngineConfig(
            n_ranks=args.ranks,
            policy=policy,
            policy_seed=args.seed,
            top_k=args.top_k,
        ),
    )
    return engine.run(spectra)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search.metrics import load_imbalance
    from repro.search.report import write_psm_report
    from repro.spectra.ms2 import read_ms2
    from repro.util.tables import format_table

    db = _build_database(args.fasta, args.max_variants)
    spectra = list(read_ms2(args.ms2))
    clock = "real" if args.backend == "process" else "virtual"
    print(f"index: {db.n_entries} entries from {db.n_bases} peptides; "
          f"queries: {len(spectra)} spectra; ranks: {args.ranks}; "
          f"backend: {args.backend}")

    results = _search_once(db, spectra, args.policy, args)
    print(
        f"policy {args.policy}: {results.total_cpsms} cPSMs "
        f"({results.cpsms_per_query:.0f}/query), "
        f"LI {100 * load_imbalance(results.query_times):.1f}%, "
        f"query {results.query_time * 1e3:.2f} ms, "
        f"total {results.execution_time * 1e3:.2f} ms ({clock})"
    )
    if args.report is not None:
        rows = write_psm_report(args.report, results, db.entries)
        print(f"wrote {rows} PSM rows -> {args.report}")

    if args.compare_policies:
        rows = []
        for policy in POLICIES:
            res = (
                results if policy == args.policy
                else _search_once(db, spectra, policy, args)
            )
            rows.append(
                (
                    policy,
                    f"{100 * load_imbalance(res.query_times):.1f}%",
                    f"{res.query_time * 1e3:.2f}",
                    f"{res.execution_time * 1e3:.2f}",
                )
            )
        print()
        print(format_table(
            ["policy", "LI", "query ms", "total ms"], rows,
            title=f"policy comparison, {args.ranks} ranks",
        ))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    db = _build_database(args.fasta, args.max_variants)
    settings = SLMIndexSettings()
    try:
        db.save(args.out, settings)
    except ConfigurationError as exc:
        raise SystemExit(f"index: {exc}") from None
    print(
        f"indexed {db.n_entries} entries "
        f"({db.arena_for(settings.fragmentation).n_ions} ions) from "
        f"{db.n_bases} peptides -> {args.out} (arena store + entry table)"
    )
    return 0


def _serve_database(args: argparse.Namespace):
    """Resolve the serve session's database + index settings source."""
    if (args.fasta is None) == (args.index is None):
        raise SystemExit(
            "serve: supply exactly one of --fasta or --index"
        )
    if args.index is not None:
        from repro.search.database import IndexedDatabase

        return IndexedDatabase.load(args.index)
    return _build_database(args.fasta, args.max_variants), SLMIndexSettings()


def _interrupt(signum, frame):
    """SIGTERM handler: unwind exactly as Ctrl-C does, draining the session."""
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import NULL_TRACER, JsonlTracer, MetricsRegistry
    from repro.search.report import write_psm_report
    from repro.service import SearchService, ServiceConfig, ShardedSearchService
    from repro.service import aggregate_batch_stats
    from repro.spectra.ms2 import read_ms2
    from repro.util.tables import format_table

    db, index_settings = _serve_database(args)
    # Paths stream lazily: a stdin-fed session opens on its first path
    # and serves each later one as it arrives.
    paths = (
        iter(args.batch)
        if args.batch
        else (Path(line.strip()) for line in sys.stdin if line.strip())
    )
    first = next(paths, None)
    if first is None:
        print("serve: no batches (pass --batch or pipe MS2 paths on stdin)",
              file=sys.stderr)
        return 2
    batch_paths: List[Path] = []

    def batches():
        for path in itertools.chain([first], paths):
            batch_paths.append(path)
            yield list(read_ms2(path))

    if args.report_dir is not None:
        args.report_dir.mkdir(parents=True, exist_ok=True)

    # One registry per serve invocation: the summary lines below read
    # live p50/p95/LI out of it, so it must not be polluted by other
    # sessions sharing the process-wide default registry.
    metrics = MetricsRegistry()
    tracer = (
        JsonlTracer(args.trace) if args.trace is not None else NULL_TRACER
    )
    config = ServiceConfig(
        n_workers=args.ranks,
        policy=args.policy,
        policy_seed=args.seed,
        top_k=args.top_k,
        index=index_settings,
        max_retries=args.max_retries,
        degraded_ok=args.degraded_ok,
        hedge_after=args.hedge_after,
        tracer=tracer,
        metrics=metrics,
        flight_recorder=not args.no_flight_recorder,
        flight_dir=args.flight_dir,
        rebalance_li=args.rebalance_li,
        rebalance_window=args.rebalance_window,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
    )
    source = "index archive" if args.index is not None else "FASTA"
    mode = "pipelined" if args.pipeline else "sequential"
    sharded = args.shards > 1 or args.shard_boundaries is not None
    # Only an unsharded archive start attaches the archive's own store;
    # each shard still builds and spills its own arena.
    paid = (
        "spawn + attach the archive's arena store"
        if args.index is not None and not sharded
        else "spawn + arena build + spill + attach"
    )
    if args.shards < 1:
        raise SystemExit("serve: --shards must be >= 1")
    if sharded:
        service_cm = ShardedSearchService(
            db, config,
            n_shards=args.shards,
            boundaries=args.shard_boundaries,
        )
        topology = (
            f"{args.shards} mass-range shards x {args.ranks} resident "
            f"workers"
        )
    else:
        service_cm = SearchService(db, config)
        topology = f"{args.ranks} resident workers"
    with ExitStack() as stack:
        # LIFO: the service closes first (emitting its session.close
        # event), then the tracer flushes and releases the file —
        # including when a batch fails and the error propagates.
        stack.callback(tracer.close)
        if threading.current_thread() is threading.main_thread():
            # SIGTERM unwinds this stack like Ctrl-C: the session drains
            # and closes, then the previous handler comes back.
            previous = signal.signal(signal.SIGTERM, _interrupt)
            stack.callback(signal.signal, signal.SIGTERM, previous)
        service = stack.enter_context(service_cm)
        print(
            f"session: {db.n_entries} entries (from {source}), "
            f"{topology}, policy {args.policy}, "
            f"backend process, {mode} submits; "
            f"open {service.open_s:.2f} s "
            f"({paid}, paid once)"
        )
        if args.pipeline:
            # The streaming driver keeps up to max_pending batches in
            # the pipeline; MS2 parsing of batch N+1 also overlaps the
            # workers' round for batch N through the lazy generator.
            outcomes = service.stream(batches())
        else:
            outcomes = (service.submit(batch) for batch in batches())
        rows = []
        for i, (results, stats) in enumerate(outcomes):
            row = [
                i,
                batch_paths[i].name,
                stats.n_spectra,
                results.total_cpsms,
                f"{stats.total_s * 1e3:.1f}",
                f"{stats.query_wall_max_s * 1e3:.1f}",
                f"{100 * stats.query_li:.1f}%",
                f"{stats.overlap_s * 1e3:.1f}",
                stats.scatter_bytes,
                stats.retries,
                stats.hedged,
                stats.respawned,
                ",".join(map(str, stats.degraded_ranks)) or "-",
            ]
            if sharded:
                row.append(f"{stats.shards_dispatched}/{stats.shards_skipped}")
                row.append(",".join(map(str, stats.degraded_shards)) or "-")
            rows.append(tuple(row))
            if args.report_dir is not None:
                report_path = args.report_dir / f"batch_{i:04d}.tsv"
                write_psm_report(report_path, results, db.entries)
        columns = ["batch", "file", "spectra", "cPSMs", "total ms",
                   "query ms", "LI", "overlap ms", "scatter B", "retries",
                   "hedged", "respawn", "degraded"]
        if sharded:
            columns += ["disp/skip", "deg shards"]
        print(format_table(
            columns,
            rows,
            title=f"session: {len(rows)} batches on resident workers",
        ))
        all_stats = service.batch_stats
        session = aggregate_batch_stats(all_stats)
        if session.n_batches > 1:
            print(
                f"steady-state batch latency: "
                f"{1e3 * session.steady_batch_s:.1f} ms min, "
                f"{1e3 * session.p50_batch_s:.1f} ms p50, "
                f"{1e3 * session.p95_batch_s:.1f} ms p95 "
                f"(vs open cost {service.open_s * 1e3:.1f} ms, amortized "
                f"over {service.n_batches} batches)"
            )
        if all_stats:
            # The live gauge holds the *last* batch's LI exactly as the
            # registry saw it; mean/max come from the session aggregate
            # over the same per-rank query-wall vectors.
            li_gauge = metrics.gauge(
                "fleet.batch_li_wall" if sharded else "service.batch_li_wall"
            )
            print(
                f"load imbalance (Eq. 1): mean "
                f"{100 * session.query_li_mean:.1f}%, max "
                f"{100 * session.query_li_max:.1f}%, live gauge "
                f"{100 * li_gauge.value:.1f}% over {li_gauge.n_updates} "
                f"batches"
            )
        if args.rebalance_li is not None:
            workers_now = (
                service.n_workers_total if sharded else service.n_workers
            )
            print(
                f"rebalancing: {service.rebalance_total} migrations "
                f"(LI trigger {100 * args.rebalance_li:.0f}% over "
                f"{args.rebalance_window}-batch windows), "
                f"{workers_now} resident workers now"
            )
        if sharded and all_stats:
            total = service.shard_dispatch_total + service.shard_skip_total
            print(
                f"routing: {service.shard_dispatch_total}/{total} shard "
                f"dispatches sent, {service.shard_skip_total} skipped by "
                f"precursor-window routing"
            )
        if args.pipeline and session.n_batches:
            print(
                f"pipeline: depth up to {session.pipeline_depth_max}, "
                f"{1e3 * session.overlap_s_total:.1f} ms of master work "
                f"hidden behind worker rounds"
            )
        # Degraded batches black-boxed their last seconds; surface the
        # dump paths so the operator can repro trace analyze them.
        for stats in all_stats:
            if stats.flight_record:
                print(
                    f"flight record (degraded batch {stats.batch_index}): "
                    f"{stats.flight_record}"
                )
    if args.trace is not None:
        print(f"trace: {tracer.n_records} records -> {args.trace}")
    if args.metrics_out is not None:
        args.metrics_out.write_text(
            json.dumps(
                metrics.snapshot(), indent=2, sort_keys=True, default=str
            )
            + "\n",
            encoding="ascii",
        )
        print(f"metrics: registry snapshot -> {args.metrics_out}")
    return 0


def _validated_records(path: Path) -> List[dict]:
    """Load a trace for analysis, failing loud on schema violations."""
    from repro.obs import load_trace, validate_trace_file

    n, errors = validate_trace_file(path)
    if errors:
        for e in errors[:10]:
            print(f"repro trace: {path}: {e}", file=sys.stderr)
        raise ConfigurationError(
            f"{path}: {len(errors)} schema violations in {n} records"
        )
    return load_trace(path)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        if args.trace_command == "analyze":
            analysis = obs.analyze_trace(
                _validated_records(args.file), shard=args.shard
            )
            print(obs.render_analysis(analysis, source=str(args.file)))
        elif args.trace_command == "gantt":
            analysis = obs.analyze_trace(
                _validated_records(args.file), shard=args.shard
            )
            print(obs.render_gantt(
                analysis, batch=args.batch, width=args.width
            ))
        else:  # diff
            a = obs.analyze_trace(
                _validated_records(args.file_a), shard=args.shard
            )
            b = obs.analyze_trace(
                _validated_records(args.file_b), shard=args.shard
            )
            print(obs.render_diff(
                obs.diff_traces(a, b),
                a_name=args.file_a.name,
                b_name=args.file_b.name,
            ))
    except OSError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.experiments import ExperimentConfig, ExperimentSuite
    from repro.bench.reporting import series_table

    suite = ExperimentSuite(
        ExperimentConfig(
            sizes_m=tuple(args.sizes), n_spectra=args.spectra, seed=args.seed
        )
    )
    print(series_table(
        "Fig. 6: load imbalance (16 ranks)",
        ["size_M", "entries", "policy", "LI_%"],
        suite.fig6_rows(), float_fmt=".1f",
    ))
    print(series_table(
        "Fig. 8: query speedup (cyclic)",
        ["size_M", "ranks", "speedup", "ideal"],
        suite.fig8_rows(), float_fmt=".2f",
    ))
    print(series_table(
        "Fig. 11: CPU-time speedup over chunk (16 ranks)",
        ["size_M", "policy", "speedup", "Twst_s"],
        suite.fig11_rows(), float_fmt=".2f",
    ))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "digest": _cmd_digest,
    "group": _cmd_group,
    "search": _cmd_search,
    "index": _cmd_index,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "figures": _cmd_figures,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Worker and service failures, malformed input files, invalid
    parameters and invalid spectra reaching this level are user-facing
    faults, not programming errors: they print a one-line diagnosis
    (for a worker: rank, exit code, retry count) to stderr and exit
    nonzero instead of dumping a traceback, as an interrupt (Ctrl-C,
    or SIGTERM under ``serve``) does with exit code 130.  Everything
    else — actual bugs — still propagates with a full traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WorkerError, ShardError) as exc:
        print(f"repro {args.command}: {exc.brief}", file=sys.stderr)
        return 1
    except (
        ServiceError, FormatError, ConfigurationError, InvalidSpectrumError
    ) as exc:
        summary = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"repro {args.command}: {summary}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
