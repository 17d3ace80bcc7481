"""End-to-end measurement: cold set-up cycles, closed-loop drivers, /proc.

Everything here drives the public session APIs (``SearchService`` /
``ShardedSearchService``) exactly as a caller would, with the shipped
default configuration (no tracer).  The serial engine's answer for each
unique batch is computed *before* the measured window and every
returned batch is compared with it as it arrives, so a wrong result can
never contribute a latency sample unnoticed.
"""

from __future__ import annotations

import gc
import os
import queue
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.metrics import quantile
from repro.parallel.persistent import PersistentPool
from repro.parallel.worker import resident_attach
from repro.search.serial import SerialSearchEngine
from repro.service import (
    SearchService,
    ServiceConfig,
    ShardedSearchService,
    aggregate_batch_stats,
)

from workloads import (
    TOP_K,
    Workload,
    build_database,
    index_settings,
    make_batches,
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- /proc sampling ------------------------------------------------------


def cpu_seconds(pids: Sequence[int]) -> float:
    """Σ (utime + stime) of ``pids`` from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the full line.
            fields = fh.read().rsplit(b")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def memory_mb(pid: int) -> Tuple[float, float]:
    """``(PSS, private)`` megabytes of ``pid`` from ``smaps_rollup``."""
    pss = private = 0
    with open(f"/proc/{pid}/smaps_rollup", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key == "Pss":
                pss = int(rest.split()[0])
            elif key in ("Private_Clean", "Private_Dirty"):
                private += int(rest.split()[0])
    return pss / 1024.0, private / 1024.0


def session_pids(service) -> List[int]:
    """Master pid first, then every live worker of ``service``."""
    return [os.getpid()] + [p for p in service.worker_pids() if p is not None]


# -- sessions ------------------------------------------------------------


def make_service(workload: Workload, database, tracer=None):
    """The session kind the workload names, configured but not opened."""
    config = ServiceConfig(
        n_workers=workload.workers_per_pool,
        policy="cyclic",
        index=index_settings(workload),
        top_k=TOP_K,
    )
    if workload.in_flight > config.max_pending:
        raise ValueError(
            f"{workload.name}: {workload.in_flight} clients exceed "
            f"max_pending={config.max_pending}"
        )
    if tracer is not None:
        config = replace(config, tracer=tracer)
    if workload.n_shards:
        return ShardedSearchService(database, config, n_shards=workload.n_shards)
    return SearchService(database, config)


def warm_interpreter_image() -> None:
    """Spawn and drop one worker so the first timed spawn finds the
    interpreter and its imports in the page cache."""
    with PersistentPool(1) as pool:
        pool.attach(resident_attach, [None])


def cold_setup(workload: Workload):
    """``build()`` start → ``open()`` return on a fresh database object.

    A fresh object means a fresh arena, so the process-wide spill cache
    cannot hit: every cycle pays digest, arena, plan, spill, spawn and
    attach.  Returns ``(database, open service, seconds)``.
    """
    t0 = time.perf_counter()
    database = build_database(workload)
    service = make_service(workload, database)
    service.open()
    return database, service, time.perf_counter() - t0


# -- the oracle ----------------------------------------------------------


def signature(results) -> list:
    """What must match the serial engine, per spectrum, bit for bit."""
    return [
        (
            s.scan_id,
            s.n_candidates,
            [(p.entry_id, p.score, p.shared_peaks) for p in s.psms],
        )
        for s in results.spectra
    ]


def serial_oracle(workload: Workload, database, batches) -> Tuple[list, float]:
    """Reference signature per unique batch, and the serial engine's
    spectra/s over that pass (the single-threaded baseline)."""
    engine = SerialSearchEngine(database, index_settings(workload), top_k=TOP_K)
    engine.index  # build the full index outside the timed pass
    t0 = time.perf_counter()
    references = [signature(engine.run(batch)) for batch in batches]
    wall = time.perf_counter() - t0
    return references, sum(len(b) for b in batches) / wall


# -- closed-loop driver --------------------------------------------------


@dataclass
class Phase:
    """What one driven phase observed.

    ``marks`` are ``(batches done, time, Σ CPU seconds)`` at the start
    and after every whole **pass** over the batch pool.  A pass is the
    same work each time, so the window's figures are reported as the
    median over passes: a burst of interference from outside spoils the
    passes it touches, not the run.
    """

    latencies_s: List[float] = field(default_factory=list)
    stats: List[Any] = field(default_factory=list)
    marks: List[Tuple[int, float, float]] = field(default_factory=list)
    n_batches: int = 0
    n_spectra: int = 0
    failed: int = 0
    wall_s: float = 0.0
    next_op: int = 0

    def passes(self) -> List[Tuple[float, float, List[float]]]:
        """``(wall, CPU seconds, latencies)`` per pass — or the whole
        window as one pass when not even one completed."""
        marks = self.marks
        if len(marks) < 2:
            marks = [marks[0], (self.n_batches, marks[0][1] + self.wall_s, marks[0][2])]
        return [
            (t1 - t0, c1 - c0, self.latencies_s[n0:n1])
            for (n0, t0, c0), (n1, t1, c1) in zip(marks, marks[1:])
        ]

    @property
    def spectra_per_s(self) -> float:
        spectra_per_batch = self.n_spectra / self.n_batches
        return statistics.median(
            len(lat) * spectra_per_batch / wall for wall, _, lat in self.passes()
        )

    @property
    def cpu_ms_per_spectrum(self) -> float:
        spectra_per_batch = self.n_spectra / self.n_batches
        return statistics.median(
            cpu * 1e3 / (len(lat) * spectra_per_batch) for _, cpu, lat in self.passes()
        )

    def p_ms(self, q: float) -> float:
        return statistics.median(quantile(lat, q) for _, _, lat in self.passes()) * 1e3


def _degraded(stats) -> bool:
    return bool(stats.degraded_ranks or getattr(stats, "degraded_shards", ()))


def drive(
    service,
    batches: list,
    references: list,
    *,
    in_flight: int,
    first_op: int,
    seconds: Optional[float] = None,
    n_ops: Optional[int] = None,
) -> Phase:
    """Closed loop of ``in_flight`` clients over the batch pool, in order.

    Each client sends its next batch only when its previous one has
    completed.  Runs until ``seconds`` elapse and/or ``n_ops`` batches
    were sent, then drains; the phase's wall ends at the last
    completion.  Latency is submit call → return (one client) or submit
    call → the future's done-callback (several).
    """
    phase = Phase()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    clock = time.perf_counter
    pids = session_pids(service)

    def send(op: int) -> None:
        unique = op % len(batches)
        t0 = clock()
        if in_flight == 1:
            try:
                outcome = service.submit(batches[unique])
            except ReproError as exc:
                outcome = exc
            done.put((unique, t0, clock(), outcome))
            return
        future = service.submit_async(batches[unique])
        future.add_done_callback(
            lambda f: done.put((unique, t0, clock(), f.exception() or f.result()))
        )

    t_begin = t_last = clock()
    phase.marks.append((0, t_begin, cpu_seconds(pids)))
    deadline = t_begin + seconds if seconds is not None else float("inf")
    sent = 0
    while True:
        while (
            sent - phase.n_batches < in_flight
            and (n_ops is None or sent < n_ops)
            and clock() < deadline
        ):
            send(first_op + sent)
            sent += 1
        if phase.n_batches == sent:
            break
        unique, t0, t_last, outcome = done.get()
        phase.n_batches += 1
        phase.n_spectra += len(batches[unique])
        phase.latencies_s.append(t_last - t0)
        if phase.n_batches % len(batches) == 0:
            phase.marks.append((phase.n_batches, t_last, cpu_seconds(pids)))
        if isinstance(outcome, BaseException):
            phase.failed += 1
            continue
        results, stats = outcome
        phase.stats.append(stats)
        if _degraded(stats) or signature(results) != references[unique]:
            phase.failed += 1
    phase.wall_s = t_last - t_begin
    phase.next_op = first_op + sent
    return phase


# -- the end-to-end run --------------------------------------------------


@dataclass
class EndToEnd:
    """One untraced run's numbers, plus what the traced run reuses."""

    metrics: Dict[str, float]
    phase: Phase
    attempted: int
    setup_cycles_s: List[float]
    serial_spectra_per_s: float
    sizes: Dict[str, int]
    resilience: Dict[str, int]
    batches: list
    references: list


def resilience_counters(service, stats: Sequence[Any]) -> Dict[str, int]:
    """Supervision activity over ``stats``: all zero on a clean run."""
    totals = aggregate_batch_stats(stats)
    return {
        "retries": totals.retries,
        "hedged": totals.hedged,
        "respawns": int(service.respawn_total),
        "degraded_batches": totals.degraded_batches,
    }


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, cycles: int
) -> EndToEnd:
    """Cold set-up ``cycles`` times, then warm up and measure ``seconds``."""
    warm_interpreter_image()
    cycle_s: List[float] = []
    database = service = None
    for _ in range(cycles):
        if service is not None:
            service.close()
            del database, service
            gc.collect()
        database, service, elapsed = cold_setup(workload)
        cycle_s.append(elapsed)
    try:
        batches = make_batches(workload, database, seed)
        references, serial_rate = serial_oracle(workload, database, batches)
        arena = database.arena_for(index_settings(workload).fragmentation)
        sizes = {"n_entries": database.n_entries, "n_ions": arena.n_ions}
        gc.collect()

        warm = drive(
            service, batches, references,
            in_flight=workload.in_flight, first_op=0, n_ops=workload.warmup,
        )
        phase = drive(
            service, batches, references,
            in_flight=workload.in_flight, first_op=warm.next_op,
            seconds=seconds, n_ops=workload.max_ops,
        )
        pss_mb = sum(memory_mb(pid)[0] for pid in session_pids(service))
        phase.failed += warm.failed
        resilience = resilience_counters(service, warm.stats + phase.stats)
    finally:
        service.close()
    metrics = {
        "spectra_per_s": phase.spectra_per_s,
        "batch_p50_ms": phase.p_ms(0.50),
        "batch_p90_ms": phase.p_ms(0.90),
        "cpu_ms_per_spectrum": phase.cpu_ms_per_spectrum,
        "mem_pss_mb": pss_mb,
        "setup_s": statistics.median(cycle_s),
    }
    return EndToEnd(
        metrics=metrics,
        phase=phase,
        attempted=warm.n_batches + phase.n_batches,
        setup_cycles_s=cycle_s,
        serial_spectra_per_s=serial_rate,
        sizes=sizes,
        resilience=resilience,
        batches=batches,
        references=references,
    )
