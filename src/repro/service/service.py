"""The persistent search service: one session, many query batches.

Session lifecycle (the amortization structure)::

    service = SearchService(database, ServiceConfig(n_workers=2))
    service.open()            # spawn pool, spill arena, ATTACH workers
    for batch in stream:
        results, stats = service.submit(batch)   # QUERY round per batch
    service.close()           # SHUTDOWN

``open()`` pays every once-per-session cost — worker spawn +
interpreter import, the arena spill (through the process-wide spill
cache, so sessions over the same database share it, after which the
database keeps the spill's read-only map in place of its heap arena),
and the per-rank partial-index build.  ``submit()`` then costs
only: preprocess the batch straight into flat
:class:`~repro.spectra.packed.PackedSpectra` columns, one
:class:`~repro.parallel.worker.QueryTask` carrying them to every
worker, the workers' query phase, and the master merge — no file or
directory per batch or per session beyond the arena spill.  The
scatter is **one pickle per round, n sends** (``scatter_bytes`` =
``n_workers`` × that pickle; ``peak_bytes`` is the raw peak data in
it).  In-band is deliberate: the communication-lower-bounds paper
(PAPERS.md) counts messages as well as words, and a file carrier adds
eight file creates / reopens / unlinks per rank per batch — at 8–60 KB
a batch, messages, not bytes, were the cost.

The pipelined session
---------------------
Every batch runs the same four master stages, but the session is a
**software pipeline over the batch stream** (HiCOPS overlaps its
serial master phases with parallel compute the same way): a single
master-side pipeline thread drives the stages so that the master works
on neighbouring batches while the workers query the current one::

    batch N   :  prep+pack ──▶ dispatch ═══ workers query ═══▶ collect ──▶ merge
    batch N+1 :              prep+pack ───────────────▲              dispatch ═══ ...
                             (runs while N's round          (N+1 scatters before
                              is on the pipe)                N's merge runs)

* the **prepare stage** (preprocess + pack) of batch N+1 runs
  on the pipeline thread while the workers are busy with batch N's
  round (between :meth:`~repro.parallel.persistent.PersistentPool.dispatch`
  and :meth:`~repro.parallel.persistent.RoundHandle.collect`),
* the **merge** of batch N's payloads runs after batch N+1's round has
  already been dispatched, so the master's merge overlaps the workers'
  next query phase,
* the pool still serializes the pipe protocol: at most **one round is
  on the pipe at a time** (the dispatch lock inside the pool), so the
  crash/respawn/deadline contract is per-round, exactly as before,
* a batch's packed columns live from its prepare until its round is
  collected (a retry or hedge re-sends them) — at most two batches'
  are held at once, the in-flight one's and its prepared successor's.

``submit_async(spectra)`` returns a
:class:`concurrent.futures.Future` resolving to ``(SearchResults,
BatchStats)``; futures complete strictly in submission order, and a
batch that fails (a worker raised or died mid-round) fails **only its
own future** — later queued batches still return correct results on
the respawned workers.  ``submit()`` is a thin blocking wrapper;
``stream(batches)`` drives an iterable through the pipeline with at
most ``max_pending`` batches in flight, yielding results in order.
Results are bit-identical to the sequential path and the serial
engine: the pipeline reorders *when* stages run, never *what* they
compute.

Admission is bounded: at most ``max_pending`` batches may be admitted
(queued or in flight) at once; the next ``submit_async()`` is rejected
with :class:`~repro.errors.ServiceError` instead of growing an
unbounded queue.

Failure semantics (inherited from
:class:`~repro.parallel.persistent.PersistentPool` and test-enforced
by the chaos suite).  The matrix, with R = ``max_retries``:

=======================  ================================================
fault × stage            observed behavior
=======================  ================================================
crash before attach      ``open()`` heals for R >= 1 (the respawned
                         worker's replayed attach is the retry), else
                         raises :class:`~repro.errors.WorkerError`.
crash / raise / hang     the batch's future succeeds **bit-identically**
mid-query (any batch)    to the fault-free run for R >= 1 (only the
                         failing rank's payload is re-dispatched, with
                         exponential backoff); for R = 0 it fails with
                         :class:`WorkerError` while the session
                         survives — the next batch runs on respawned,
                         re-attached workers.  A hang is bounded by the
                         per-rank round deadline (never hangs).
crash before reply       identical to crash mid-query: computed but
                         unreported work is re-run.
slow straggler           with ``hedge_after`` set, a speculative
                         duplicate of every still-outstanding rank's
                         task races the original on a fresh attached
                         worker; first answer wins per (batch, rank),
                         the loser is terminated (a late duplicate can
                         never double-merge).
retries exhausted        default: the batch's future fails loud.  With
                         ``degraded_ok=True`` it resolves to partial
                         results whose ``degraded_ranks`` mask (on
                         :class:`SearchResults` *and* :class:`BatchStats`)
                         names the uncovered partitions explicitly.
pipeline-thread bug      every admitted future fails with
                         :class:`~repro.errors.PipelineError`; the
                         session must be closed.
rebalance migration      applied only **between rounds** (after the
(live re-plan /          in-flight round is collected, before the next
pool resize)             dispatch), so no batch ever straddles two
                         plans: every batch merges against the plan
                         stamped on it at dispatch time, and futures
                         keep resolving strictly in order.  Results
                         stay bit-identical across the migration — the
                         plan moves *which rank scores what*, never
                         what is scored.
crash during a          the pool heals it with the standard
rebalance re-attach      respawn/backoff budget; once retries exhaust
                         the rank is left dead with the **new**
                         manifest remembered, so the next round's
                         respawn completes the migration — the session
                         adopts the new plan either way and never
                         mixes manifests from two plans in one merge.
=======================  ================================================

Elastic rebalancing (the heterogeneity story)
---------------------------------------------
With ``rebalance_li`` set, the session watches its own Eq.-1 LI gauge
and per-rank wall/CPU vectors over a sliding window of batches
(:class:`~repro.service.rebalance.RebalancePolicy`).  Sustained
imbalance — or a chronically slow rank — recomputes the LBE plan with
per-rank **speed weights** inferred from the observed walls (weighted
LPT, paper §VIII), migrates between rounds by re-attaching only the
ranks whose manifests changed
(:meth:`~repro.parallel.persistent.PersistentPool.reconfigure`;
``FragmentArena.take`` makes a re-attach one sub-arena gather), and
can grow the worker pool within ``min_workers``/``max_workers``.
:meth:`SearchService.rebalance` requests the same migration
explicitly (e.g. an operator shrinking an idle session).  Every
migration emits ``rebalance.trigger`` / ``rebalance.migrate`` (and
``pool.resize``) trace events.

``close()`` drains: every already-admitted batch completes (each stage
bounded by the pool deadline) before the workers shut down, so
in-flight futures resolve deterministically — never hang, never leak.
``open()`` also sweeps stale spill stores left behind by earlier
crashed sessions (see
:func:`~repro.parallel.shared_arena.sweep_stale_stores`).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.planner import (
    LBEPlan,
    SearchParams,
    changed_ranks,
    make_lbe_plan,
    structural_weights,
)
from repro.errors import (
    ConfigurationError,
    PipelineError,
    ServiceError,
    ShardError,
    WorkerError,
)
from repro.obs.metrics import MetricsRegistry, global_registry, quantile
from repro.obs.ring import RingTracer, flight_dump
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.faults import FaultPlan
from repro.parallel.persistent import (
    PersistentPool,
    PoolBatchResult,
    check_pool_settings,
)
from repro.parallel.shared_arena import (
    SharedSpill,
    shared_spill_for,
    sweep_stale_stores,
)
from repro.parallel.worker import (
    AttachTask,
    QueryTask,
    service_attach_worker,
    service_query_worker,
)
from repro.search.database import IndexedDatabase
from repro.search.metrics import load_imbalance
from repro.search.psm import SearchResults
from repro.search.rank import (
    merge_rank_payloads,
    rank_stats_from_report,
    worker_spans_from_report,
)
from repro.service.rebalance import (
    RebalanceConfig,
    RebalanceDecision,
    RebalancePolicy,
)
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra
from repro.spectra.preprocess import preprocess_packed
from repro.util.heap import release_heap

__all__ = [
    "ServiceConfig",
    "BatchStats",
    "SessionStats",
    "SearchService",
    "aggregate_batch_stats",
]

#: Most recent batches whose :class:`BatchStats` a session retains —
#: enough for steady-state monitoring, O(1) for unbounded streams
#: (:attr:`SessionCore.n_batches` keeps the lifetime count).
_STATS_RETENTION = 1024

#: Minimum predicted makespan gain (fractional) an automatic
#: speed-only re-plan must promise before the session migrates —
#: the churn gate that keeps noisy speed estimates from re-attaching
#: workers every window for nothing.
_MIN_MIGRATE_GAIN = 0.05

#: Idle poll period of the pipeline thread: how often it re-checks,
#: while *waiting for work*, that its service is still alive (the
#: thread holds only a weak reference, so a session dropped without
#: ``close()`` can still be garbage-collected).
_IDLE_POLL_S = 0.5


@dataclass(frozen=True, slots=True)
class ServiceConfig(SearchParams):
    """Persistent-service configuration: the shared
    :class:`~repro.core.planner.SearchParams` plus the session's own
    knobs.  The resident partial indexes are built against ``index``
    at attach time; ``preprocess`` applies per submitted batch.

    Attributes
    ----------
    n_workers:
        Resident OS worker processes (the rank count).
    start_method:
        ``multiprocessing`` start method for the resident workers.
    timeout:
        Real-seconds deadline per pool round (attach or batch).
    max_pending:
        Bound on concurrently admitted batches (queued + in flight
        through the pipeline); further ``submit_async()`` callers are
        rejected with :class:`~repro.errors.ServiceError`.
    max_retries:
        Per-rank re-dispatch budget per batch (see the failure matrix
        above).  0 (default) keeps the historical fail-fast contract.
    retry_backoff_s:
        Base of the exponential retry backoff.
    hedge_after:
        Soft straggler deadline in seconds (``None`` disables
        hedging — the default, zero idle-path overhead).
    degraded_ok:
        Opt into partial results after retries exhaust (default:
        fail loud).
    fault_plan:
        Chaos-testing fault schedule for the workers (tests only;
        production sessions leave it ``None`` and may use the
        ``REPRO_FAULT_PLAN`` env var instead).
    transport:
        Worker bootstrap mechanism for the resident pool — a
        :mod:`repro.parallel.transport` registry name (default
        ``"pipe"``: local spawn workers on OS pipes).
    tracer:
        Observability sink (:mod:`repro.obs`): pipeline-stage spans,
        per-rank worker spans, the per-batch summary event, and every
        supervision transition flow through it.  The default
        :data:`~repro.obs.trace.NULL_TRACER` is a no-op and every
        emit site is ``tracer.enabled``-guarded, so a session without
        ``--trace`` pays one branch per site.
    metrics:
        Live :class:`~repro.obs.metrics.MetricsRegistry` fed once per
        batch (latency histograms, supervision counters, and the
        per-batch load-imbalance gauges ``service.batch_li_wall`` /
        ``service.batch_li_cpu``).  Defaults to the process-wide
        registry; tests inject a fresh one for isolation.
    flight_recorder:
        Always-on black box (default on): when no file tracer is
        configured, the service installs a
        :class:`~repro.obs.ring.RingTracer` holding the last
        ~:data:`~repro.obs.ring.DEFAULT_CAPACITY` trace records in
        memory and dumps them to a schema-valid JSONL file whenever a
        :class:`~repro.errors.WorkerError` surfaces or a batch
        degrades — the dump's path rides on ``exc.flight_record`` /
        ``BatchStats.flight_record``.  Ignored (no ring) when
        ``tracer`` is enabled: the file trace already has everything.
    flight_dir:
        Directory the black boxes are dumped into (default: the
        system temp dir).  Created on first dump.
    rebalance_li:
        Eq.-1 LI level that arms elastic rebalancing (``None``, the
        default, disables it): when a sliding window of batches
        sustains this LI (or contains a chronically slow rank), the
        session re-plans with observed speed weights and migrates
        between rounds.  See the module docstring's elastic section.
    rebalance_window:
        Batches per rebalance decision window (the trigger judges
        window means, never single batches).
    rebalance_cooldown:
        Decision windows to sit out after a migration before judging
        the new plan.
    min_workers / max_workers:
        Elastic pool-size bounds: automatic escalation grows at most
        to ``max_workers``; explicit :meth:`SearchService.rebalance`
        resizes are clamped to both.  ``None`` bounds pin the size at
        ``n_workers`` for automatic decisions.
    """

    n_workers: int = 2
    start_method: str = "spawn"
    timeout: float = 600.0
    max_pending: int = 4
    max_retries: int = 0
    retry_backoff_s: float = 0.05
    hedge_after: Optional[float] = None
    degraded_ok: bool = False
    fault_plan: Optional[FaultPlan] = None
    transport: str = "pipe"
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=global_registry)
    flight_recorder: bool = True
    flight_dir: Optional[Path] = None
    rebalance_li: Optional[float] = None
    rebalance_window: int = 4
    rebalance_cooldown: int = 1
    min_workers: Optional[int] = None
    max_workers: Optional[int] = None

    def rebalance_config(self) -> Optional[RebalanceConfig]:
        """The elastic-rebalancing knobs, or ``None`` when disabled."""
        if self.rebalance_li is None:
            return None
        return RebalanceConfig(
            li_threshold=self.rebalance_li,
            window=self.rebalance_window,
            cooldown=self.rebalance_cooldown,
            min_workers=self.min_workers,
            max_workers=self.max_workers,
        )

    def worker_bounds(self) -> RebalanceConfig:
        """The pool-size bounds alone.  They clamp explicit
        :meth:`SearchService.rebalance` resizes whether or not the
        automatic policy is armed."""
        return RebalanceConfig(
            min_workers=self.min_workers, max_workers=self.max_workers
        )

    def __post_init__(self) -> None:
        SearchParams.__post_init__(self)
        check_pool_settings(
            self.n_workers,
            start_method=self.start_method,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff_s=self.retry_backoff_s,
            hedge_after=self.hedge_after,
            transport=self.transport,
        )
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        # Validate the pool bounds and the rebalance knobs eagerly
        # (constructing a RebalanceConfig runs its own __post_init__).
        self.worker_bounds()
        self.rebalance_config()


@dataclass(slots=True)
class BatchStats:
    """Real phase seconds and scatter accounting for one batch.

    Attributes
    ----------
    batch_index:
        0-based position of this batch within the session.
    n_spectra:
        Query spectra in the batch.
    preprocess_s / parallel_s / merge_s / total_s:
        Master-observed wall seconds per phase (``preprocess_s``
        includes packing; ``parallel_s`` spans
        dispatch → collect return; ``total_s`` spans prepare start →
        merge end, including any time the master overlapped other
        batches' stages with this batch's round).
    query_wall_s / query_cpu_s:
        The **full per-rank vectors** of query wall / process-CPU
        seconds, in rank order — what the paper's load-imbalance
        metric (Eq. 1) needs; the old scalar maxima survive as the
        derived properties :attr:`query_wall_max_s` /
        :attr:`query_cpu_max_s`, and :attr:`query_li` /
        :attr:`query_li_cpu` compute LI live.  A degraded rank
        contributes 0.0 at its slot (its coverage is already masked
        by ``degraded_ranks``).
    scatter_bytes:
        Actual command bytes written to the worker pipes for this
        batch — the shared :class:`~repro.parallel.worker.QueryTask`
        is pickled once and its buffer sent to every worker, so this
        is ``n_workers ×`` one pickle (plus any retry / hedge re-sends).
    peak_bytes:
        ``n_workers ×`` the preprocessed batch's raw peak bytes —
        ``scatter_bytes`` less per-spectrum columns and framing.
    respawned:
        Workers respawned (and re-attached) to serve this batch.
    wait_s:
        Seconds this batch waited in the admission queue before its
        prepare stage started (0 when the pipeline was idle).
    pipeline_depth:
        Batches admitted (queued + in flight, including this one) at
        the moment this batch was accepted — 1 for a sequential
        ``submit()`` caller, up to ``max_pending`` under streaming.
    collect_wait_s:
        Seconds the master spent blocked in ``collect()`` waiting for
        the workers *after* finishing its overlapped work — the
        residual master-idle gap the pipeline could not fill.
    overlap_s:
        Master-side seconds of this batch's stages that ran while a
        worker round was on the pipe (its prepare under the previous
        batch's round + its merge under the next batch's round) — the
        wall time the pipeline hid behind worker compute.
    retries:
        Per-rank re-dispatches the supervision layer performed to
        finish this batch (0 in steady state).
    hedged:
        Speculative straggler duplicates launched for this batch (0
        without ``hedge_after`` or when no rank straggled).
    degraded_ranks:
        Ranks whose partition is missing from this batch's results —
        non-empty only in ``degraded_ok`` mode after retries exhaust.
    flight_record:
        Path of the flight-recorder black box dumped because this
        batch degraded, or ``None`` (healthy batch, or no recorder
        installed).
    """

    batch_index: int
    n_spectra: int
    preprocess_s: float
    parallel_s: float
    merge_s: float
    total_s: float
    query_wall_s: Tuple[float, ...]
    query_cpu_s: Tuple[float, ...]
    scatter_bytes: int
    peak_bytes: int
    respawned: int
    wait_s: float = 0.0
    pipeline_depth: int = 1
    collect_wait_s: float = 0.0
    overlap_s: float = 0.0
    retries: int = 0
    hedged: int = 0
    degraded_ranks: Tuple[int, ...] = ()
    flight_record: Optional[str] = None
    #: Master-observed per-rank wall / process-CPU seconds of the whole
    #: query round on the pipe (unpack + query body + any straggler
    #: or injected delay) — a superset of ``query_wall_s`` that sees
    #: *everything* that makes a rank slow, which is why the elastic
    #: rebalance policy watches these vectors rather than the workers'
    #: self-reported query times.
    round_wall_s: Tuple[float, ...] = ()
    round_cpu_s: Tuple[float, ...] = ()

    @property
    def query_wall_max_s(self) -> float:
        """Slowest worker's query wall seconds (the latency floor)."""
        return max(self.query_wall_s, default=0.0)

    @property
    def query_cpu_max_s(self) -> float:
        """Slowest worker's query process-CPU seconds."""
        return max(self.query_cpu_s, default=0.0)

    @property
    def query_li(self) -> float:
        """Per-batch load imbalance (Eq. 1) over the query wall vector.

        Exactly :func:`repro.search.metrics.load_imbalance` over
        :attr:`query_wall_s`, so the live gauge and offline
        recomputations agree bit-for-bit; 0.0 when the vector is
        empty or all-zero.
        """
        if not self.query_wall_s:
            return 0.0
        return load_imbalance(self.query_wall_s)

    @property
    def query_li_cpu(self) -> float:
        """Per-batch load imbalance over the query CPU vector."""
        if not self.query_cpu_s:
            return 0.0
        return load_imbalance(self.query_cpu_s)


@dataclass(frozen=True, slots=True)
class SessionStats:
    """Session-level aggregate over a sequence of :class:`BatchStats`.

    One canonical summation (see :func:`aggregate_batch_stats`) shared
    by the CLI serve table and the throughput benchmarks, instead of
    each re-deriving steady-state figures ad hoc.

    Attributes
    ----------
    n_batches:
        Batches aggregated.
    first_batch_s / steady_batch_s / mean_batch_s:
        First batch's wall seconds, the steady-state per-batch floor
        (min over batches after the first — the first batch pays
        cold-cache costs), and the plain mean.
    p50_batch_s / p95_batch_s:
        Steady-state latency percentiles over the same population as
        ``steady_batch_s`` (batches after the first), computed with
        the metrics layer's quantile
        (:func:`repro.obs.metrics.quantile`) — the distributional
        view the min/mean pair cannot give.
    query_li_mean / query_li_max:
        Per-batch load imbalance (Eq. 1 over the per-rank query wall
        vector, :attr:`BatchStats.query_li`) averaged / worst-cased
        over the aggregated batches.
    retries / hedged / respawned:
        Supervision-layer totals over the aggregated batches (all 0 in
        a fault-free session).
    overlap_s_total:
        Master-side seconds hidden behind worker rounds by the
        pipelined session, summed over batches.
    collect_wait_s_total:
        Residual master-idle seconds in ``collect()``, summed.
    pipeline_depth_max:
        Deepest concurrent admission observed.
    scatter_bytes_max:
        Largest per-batch pickled scatter volume.
    degraded_batches:
        Batches that resolved with a non-empty degraded mask
        (``degraded_ranks`` — or ``degraded_shards`` on the sharded
        tier's stats).
    """

    n_batches: int
    first_batch_s: float
    steady_batch_s: float
    mean_batch_s: float
    p50_batch_s: float
    p95_batch_s: float
    query_li_mean: float
    query_li_max: float
    retries: int
    hedged: int
    respawned: int
    overlap_s_total: float
    collect_wait_s_total: float
    pipeline_depth_max: int
    scatter_bytes_max: int
    degraded_batches: int


def aggregate_batch_stats(stats: Sequence[BatchStats]) -> SessionStats:
    """Fold per-batch :class:`BatchStats` into one :class:`SessionStats`.

    Accepts any stats the service kinds produce (plain or sharded);
    an empty sequence aggregates to all zeros.
    """
    stats = list(stats)
    if not stats:
        return SessionStats(
            n_batches=0, first_batch_s=0.0, steady_batch_s=0.0,
            mean_batch_s=0.0, p50_batch_s=0.0, p95_batch_s=0.0,
            query_li_mean=0.0, query_li_max=0.0,
            retries=0, hedged=0, respawned=0,
            overlap_s_total=0.0, collect_wait_s_total=0.0,
            pipeline_depth_max=0, scatter_bytes_max=0, degraded_batches=0,
        )
    totals = [s.total_s for s in stats]
    # Steady-state population: batches after the first (which pays
    # cold-cache costs); a one-batch session falls back to that batch.
    steady_pop = totals[1:] if len(totals) > 1 else totals
    lis = [s.query_li for s in stats]
    degraded = sum(
        1
        for s in stats
        if s.degraded_ranks or getattr(s, "degraded_shards", ())
    )
    return SessionStats(
        n_batches=len(stats),
        first_batch_s=totals[0],
        steady_batch_s=min(steady_pop),
        mean_batch_s=sum(totals) / len(totals),
        p50_batch_s=quantile(steady_pop, 0.50),
        p95_batch_s=quantile(steady_pop, 0.95),
        query_li_mean=sum(lis) / len(lis),
        query_li_max=max(lis),
        retries=sum(s.retries for s in stats),
        hedged=sum(s.hedged for s in stats),
        respawned=sum(s.respawned for s in stats),
        overlap_s_total=sum(s.overlap_s for s in stats),
        collect_wait_s_total=sum(s.collect_wait_s for s in stats),
        pipeline_depth_max=max(s.pipeline_depth for s in stats),
        scatter_bytes_max=max(s.scatter_bytes for s in stats),
        degraded_batches=degraded,
    )


def _settle(future: Future, outcome: Any) -> None:
    """Resolve ``future`` with ``outcome`` — an exception fails it,
    anything else is its result — unless it is already done (cancelled
    while queued, or settled first by a racing path)."""
    try:
        if future.done():
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
    except InvalidStateError:  # pragma: no cover - cancel()/settle race
        pass


class SessionCore:
    """The session contract both service tiers implement.

    A session is opened once, admits query batches through
    :meth:`submit_async` (a :class:`concurrent.futures.Future` per
    batch, resolving to ``(SearchResults, BatchStats)`` strictly in
    submission order), and drains on :meth:`close`.  This base holds
    what the tiers share: the flight-recorder rule, the context
    manager, :meth:`submit` and :meth:`stream`, admission (at most
    ``max_pending`` batches admitted at once, the next one rejected
    with :class:`~repro.errors.ServiceError`), and bounded stats
    retention.  A tier supplies ``open`` (returning the session),
    ``close``, ``is_open``, and ``_admit``, which queues one admitted
    batch and returns its future; a tier that refuses the batch there
    gives its admission slot back.  Each tier resolves its futures in
    order by its own mechanism and settles them through
    :func:`_settle`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._tracer = config.tracer
        # Flight recorder: with no file tracer configured, record into
        # a bounded in-memory ring instead, dumped on failure paths.
        # An enabled config tracer wins — its file already has it all.
        self._ring: Optional[RingTracer] = None
        if config.flight_recorder and not config.tracer.enabled:
            self._ring = RingTracer()
            self._tracer = self._ring
        self._closed = False
        self._n_submitted = 0
        self._n_pending = 0
        self._n_batches = 0
        self._open_s = 0.0
        # Bounded retention: a session serves an unbounded stream, so
        # per-batch stats must not grow master memory linearly with it.
        self._stats: deque[BatchStats] = deque(maxlen=_STATS_RETENTION)
        self._admission = threading.Semaphore(config.max_pending)

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self, spectra: Sequence[Spectrum]
    ) -> Tuple[SearchResults, BatchStats]:
        """Search one query batch and block until it resolves.

        A thin wrapper over :meth:`submit_async`: the batch rides the
        same path, and the call returns the merged
        :class:`SearchResults` — bit-identical to the serial engine over
        the same batch — plus this batch's :class:`BatchStats`, or
        raises the batch's own error (the session itself survives).
        """
        return self.submit_async(spectra).result()

    def submit_async(
        self, spectra: Sequence[Spectrum]
    ) -> "Future[Tuple[SearchResults, BatchStats]]":
        """Admit one query batch; return its future.

        The future resolves to ``(SearchResults, BatchStats)`` —
        futures of one session resolve strictly in submission order,
        and a failing batch fails only its own future.  Raises
        :class:`~repro.errors.ServiceError` synchronously when the
        session is not open or ``max_pending`` batches are already
        admitted.
        """
        if not self.is_open:
            raise ServiceError(
                "submit() on a service that is not open "
                "(call open() first; closed sessions are not reusable)"
            )
        spectra = list(spectra)
        if not spectra:
            raise ConfigurationError("cannot submit an empty spectra batch")
        if not self._admission.acquire(blocking=False):
            raise ServiceError(
                f"admission queue full ({self.config.max_pending} batches "
                "already pending); retry after a pending batch completes"
            )
        return self._admit(spectra)

    def stream(
        self, batches: Iterable[Sequence[Spectrum]]
    ) -> Iterator[Tuple[SearchResults, BatchStats]]:
        """Drive an iterable of batches through the session, in order.

        Keeps up to ``max_pending`` batches admitted at once (the
        overlap window) and yields each batch's ``(results, stats)``
        in submission order — the streaming loop for sustained
        workloads.  A failing batch raises its error from the yield
        that would have produced it; later batches are unaffected.
        """
        pending: deque[Future] = deque()
        limit = self.config.max_pending
        for spectra in batches:
            while len(pending) >= limit:
                yield pending.popleft().result()
            pending.append(self.submit_async(spectra))
        while pending:
            yield pending.popleft().result()

    def _record(self, stats: BatchStats) -> None:
        """Count one merged batch and retain its stats."""
        self._n_batches += 1
        self._stats.append(stats)

    def _publish(self, prefix: str, stats: BatchStats, **extras: Any) -> None:
        """Publish one merged batch, the same way on both tiers.

        Feeds the per-batch instruments named ``{prefix}.*`` (``service``
        or ``fleet``) — unconditionally, so the live LI gauge and the
        latency histograms stay current without a tracer — then emits
        the ``batch`` event: the eight shared keys, then the tier's
        ``extras``.  A degraded batch is a survived fault: it is
        black-boxed after the event, so the dump carries the event.
        """
        m = self.config.metrics
        m.counter(f"{prefix}.batches").inc()
        m.histogram(f"{prefix}.batch_total_s").observe(stats.total_s)
        m.histogram(f"{prefix}.batch_query_wall_s").observe(
            stats.query_wall_max_s
        )
        m.gauge(f"{prefix}.batch_li_wall").set(stats.query_li)
        m.gauge(f"{prefix}.batch_li_cpu").set(stats.query_li_cpu)
        m.counter(f"{prefix}.retries").inc(stats.retries)
        m.counter(f"{prefix}.hedged").inc(stats.hedged)
        m.counter(f"{prefix}.respawned").inc(stats.respawned)
        m.counter(f"{prefix}.degraded_batches").inc(
            1 if stats.degraded_ranks else 0
        )
        if self._tracer.enabled:
            self._tracer.event(
                "batch",
                {
                    "batch": stats.batch_index,
                    "n_spectra": stats.n_spectra,
                    "total_s": round(stats.total_s, 9),
                    "li_wall": round(stats.query_li, 9),
                    "li_cpu": round(stats.query_li_cpu, 9),
                    "retries": stats.retries,
                    "hedged": stats.hedged,
                    "respawned": stats.respawned,
                    **extras,
                },
            )
        if stats.degraded_ranks:
            stats.flight_record = flight_dump(
                self._ring,
                self.config.flight_dir,
                "degraded-batch",
                batch=stats.batch_index,
            )

    @property
    def n_batches(self) -> int:
        """Batches merged over the session's lifetime."""
        return self._n_batches

    @property
    def batch_stats(self) -> List[BatchStats]:
        """Stats of the most recent batches (bounded retention), in
        order; ``batch_index`` ties each entry to its lifetime position."""
        return list(self._stats)

    @property
    def open_s(self) -> float:
        """Wall seconds ``open()`` took (the amortized session cost)."""
        return self._open_s

    @property
    def flight_recorder(self) -> Optional[RingTracer]:
        """The installed in-memory flight recorder, or ``None`` when a
        file tracer is active or ``flight_recorder=False``."""
        return self._ring


class _PendingBatch:
    """One admitted batch's mutable trip through the pipeline stages."""

    __slots__ = (
        "spectra", "future", "batch_index", "enqueued_at", "depth",
        "packed", "handle",
        "dispatched_at", "round", "error", "t_start", "wait_s",
        "prep_s", "collect_wait_s", "parallel_s",
        "prepared_overlapped", "released", "plan",
    )

    def __init__(
        self, spectra: List[Spectrum], future: Future, batch_index: int,
        enqueued_at: float, depth: int,
    ) -> None:
        self.spectra = spectra
        self.future = future
        self.batch_index = batch_index
        self.enqueued_at = enqueued_at
        self.depth = depth
        self.packed: Optional[PackedSpectra] = None
        self.handle = None
        self.dispatched_at = 0.0
        self.round: Optional[PoolBatchResult] = None
        self.error: Optional[BaseException] = None
        self.t_start = 0.0
        self.wait_s = 0.0
        self.prep_s = 0.0
        self.collect_wait_s = 0.0
        self.parallel_s = 0.0
        self.prepared_overlapped = False
        self.released = False
        # A rebalance migration may swap the session's plan between
        # this batch's dispatch and its merge — the plan is stamped at
        # dispatch time so the merge always uses the manifests its
        # round actually ran against.
        self.plan: Optional[LBEPlan] = None


class _PipelineState:
    """The pipeline thread's shared mailbox (owned by the service).

    Kept on a separate object so the thread's target needs no strong
    reference to the service while it waits for work.
    """

    __slots__ = ("cond", "items", "stopping", "broken")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.items: deque[_PendingBatch] = deque()
        self.stopping = False
        self.broken = False

    def dequeue(self, *, block: bool):
        """Next admitted batch, or ``None`` (empty, non-blocking),
        ``_STOP`` (drained and stopping), or ``_TICK`` (idle poll)."""
        with self.cond:
            while True:
                if self.items:
                    return self.items.popleft()
                if self.stopping:
                    return _STOP
                if not block:
                    return None
                if not self.cond.wait(_IDLE_POLL_S):
                    return _TICK


_STOP = object()
_TICK = object()


def _pipeline_main(state: _PipelineState, service_ref) -> None:
    """Pipeline thread body: one cycle per batch, one overlap window.

    Holds the service only through ``service_ref`` while idle, so a
    session dropped without ``close()`` stays collectable; its
    finalizers then reap the workers and the arena spill.
    """
    inflight: Optional[_PendingBatch] = None
    while True:
        item = state.dequeue(block=inflight is None)
        if item is _TICK:
            service = service_ref()
            if service is None:
                return  # orphaned session: nothing left to serve
            try:
                # An idle session has no round on the pipe, so a
                # pending rebalance (an explicit resize, say) can be
                # applied right now instead of waiting for traffic.
                service._stage_rebalance()
            finally:
                del service
            continue
        service = service_ref()
        if service is None:
            # Orphaned with work in hand: nothing can be merged any
            # more (the pool is gone with the service), but every
            # admitted future must still resolve — the dequeued batch,
            # the dispatched in-flight one, and the whole queue.  The
            # service's own finalizers reap the workers and spill dirs.
            orphans = [
                b
                for b in (inflight, item if isinstance(item, _PendingBatch) else None)
                if b is not None
            ]
            with state.cond:
                state.broken = True
                orphans += list(state.items)
                state.items.clear()
            exc = ServiceError("service was garbage-collected mid-stream")
            for batch in orphans:
                _settle(batch.future, exc)
            return
        nxt = item if isinstance(item, _PendingBatch) else None
        try:
            # Stage 1 — prepare N+1 (preprocess + pack) while N's
            # round, if any, is still on the pipe.
            if nxt is not None and not service._stage_prepare(
                nxt, overlapped=inflight is not None
            ):
                nxt = None
            # Stage 2 — gather N's worker payloads.
            if inflight is not None:
                service._stage_collect(inflight)
            # Rebalance point — the only moment in the cycle when no
            # round is on the pipe (N collected, N+1 not dispatched):
            # apply a pending migration here so no batch ever straddles
            # two plans.  Batch N merges below against the plan stamped
            # on it at dispatch time.
            service._stage_rebalance()
            # Stage 3 — scatter N+1 before merging N, so the merge
            # overlaps the workers' next query phase.
            if nxt is not None and not service._stage_dispatch(nxt):
                nxt = None
            # Stage 4 — merge N and resolve its future.
            if inflight is not None:
                service._stage_finalize(inflight, merged_overlapped=nxt is not None)
            inflight = nxt
            if item is _STOP and inflight is None:
                return
        except BaseException as exc:  # noqa: BLE001 - must never die silently
            # A stage bug must not strand futures: fail everything this
            # cycle touched (the collected batch AND the just-dispatched
            # successor) plus the whole queue, and mark the pipeline
            # broken.  _fail_batch tolerates already-settled batches.
            with state.cond:
                state.broken = True
                leftovers = list(state.items)
                state.items.clear()
            victims = [b for b in (inflight, nxt) if b is not None]
            for batch in dict.fromkeys(victims + leftovers):
                service._fail_batch(batch, PipelineError(
                    f"service pipeline thread crashed: {exc!r}"
                ))
            raise
        finally:
            del service  # drop the strong reference between cycles


class SearchService(SessionCore):
    """A long-lived search session over a resident worker pool.

    Parameters
    ----------
    database:
        The indexed database (the master's copy; resident workers see
        only the memmap-shared arena plus their manifests).
    config:
        Service configuration.

    Usable as a context manager (``with SearchService(db) as svc:``);
    ``open()`` is idempotent, ``close()`` is idempotent, and
    ``submit()`` after ``close()`` raises
    :class:`~repro.errors.ServiceError`.
    """

    def __init__(
        self, database: IndexedDatabase, config: ServiceConfig = ServiceConfig()
    ) -> None:
        super().__init__(config)
        self.database = database
        self._plan: LBEPlan | None = None
        self._spill: SharedSpill | None = None
        self._pool: PersistentPool | None = None
        self._attach_s = 0.0
        self._dispatch_lock = threading.Lock()
        self._state: _PipelineState | None = None
        self._thread: threading.Thread | None = None
        # Elastic rebalancing: the decision policy (None when
        # rebalance_li is unset), the decision waiting to be applied
        # at the next between-rounds point as (decision, future-or-None)
        # — explicit rebalance() callers block on the future, automatic
        # triggers carry None — and the lifetime migration count.
        self._rebalance_policy: Optional[RebalancePolicy] = None
        self._pending_decision: Optional[
            Tuple[RebalanceDecision, Optional[Future]]
        ] = None
        self._rebalance_total = 0
        self._work_weights: Optional[np.ndarray] = None

    # -- planning --------------------------------------------------------

    @property
    def plan(self) -> LBEPlan:
        """The LBE distribution plan (computed lazily, cached)."""
        if self._plan is None:
            cfg = self.config
            self._plan = make_lbe_plan(
                self.database,
                n_ranks=cfg.n_workers,
                policy=cfg.policy,
                policy_seed=cfg.policy_seed,
                grouping=cfg.grouping,
            )
        return self._plan

    # -- lifecycle -------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """True between a successful :meth:`open` and :meth:`close`."""
        return self._pool is not None and not self._closed

    def open(self) -> "SearchService":
        """Spawn the pool, spill the arena, attach every worker.

        Everything here is the once-per-session cost (a one-shot
        engine run pays it per batch); :attr:`open_s` records it.  Idempotent —
        reopening an open session is a no-op; reopening a closed one
        raises.  Serialized on the dispatch lock so concurrent
        ``open()`` calls cannot double-spawn pools.
        """
        with self._dispatch_lock:
            return self._open_locked()

    def _open_locked(self) -> "SearchService":
        if self._closed:
            raise ServiceError("service is closed; sessions are not reusable")
        if self._pool is not None:
            return self
        cfg = self.config
        t_open = time.perf_counter()
        # Reap spill stores orphaned by earlier crashed sessions
        # before creating our own (best-effort: the sweep swallows
        # its own errors, so it never blocks a session from opening).
        sweep_stale_stores()
        # Spawn → plan → arena → spill → attach.  Workers spawn with
        # no payload, so they boot (interpreter + imports, the bulk of
        # a cold attach round) while the master plans, builds the
        # arena and spills it, instead of after.  Attach is the first
        # step that needs the spill, so it stays last.  Any failure
        # closes the pool and drops this session's spill reference.
        pool = PersistentPool(
            cfg.n_workers,
            start_method=cfg.start_method,
            timeout=cfg.timeout,
            max_retries=cfg.max_retries,
            backoff_s=cfg.retry_backoff_s,
            hedge_after=cfg.hedge_after,
            degraded_ok=cfg.degraded_ok,
            fault_plan=cfg.fault_plan,
            transport=cfg.transport,
            tracer=self._tracer,
        )
        try:
            plan = self.plan
            arena = self.database.arena_for(cfg.index.fragmentation)
            self._spill = shared_spill_for(arena, cfg.index.resolution)
            # The master keeps the spill's map, not the heap arena: one
            # physical copy machine-wide.  Nothing here reads the map.
            del arena
            if self.database.swap_arena(cfg.index.fragmentation, self._spill.arena):
                release_heap()
            t0 = time.perf_counter()
            reports = self._install(pool, plan).results
            self._attach_s = time.perf_counter() - t0
        except BaseException as exc:
            pool.close()
            self._spill = None
            if isinstance(exc, WorkerError) and exc.flight_record is None:
                exc.flight_record = flight_dump(
                    self._ring, cfg.flight_dir, "attach-failure"
                )
            raise
        # The mailbox exists before the pool is published: a session
        # with a pool is open, and submits go straight to the mailbox.
        self._state = _PipelineState()
        self._pool = pool
        self._thread = threading.Thread(
            target=_pipeline_main,
            args=(self._state, weakref.ref(self)),
            name="repro-service-pipeline",
            daemon=True,
        )
        self._thread.start()
        self._open_s = time.perf_counter() - t_open
        # Registered now so a session that never migrates reports 0.
        cfg.metrics.counter("service.rebalances")
        rb = cfg.rebalance_config()
        if rb is not None:
            self._rebalance_policy = RebalancePolicy(
                rb, cfg.n_workers, plan.rank_loads(self._structural_weights())
            )
        if self._tracer.enabled:
            self._tracer.event(
                "session.open",
                {
                    "n_workers": cfg.n_workers,
                    "open_s": round(self._open_s, 6),
                    "attach_s": round(self._attach_s, 6),
                    # Each rank's store open and index build, in rank order.
                    "rank_open_s": [round(r["open_s"], 6) for r in reports],
                    "rank_build_s": [round(r["build_s"], 6) for r in reports],
                },
            )
        return self

    def close(self) -> None:
        """Drain the pipeline, then shut the resident workers down.

        Idempotent.  New submits are rejected immediately; every
        already-admitted batch **completes** (its future resolves with
        a result or the batch's own error) before the pool shuts down
        — each stage is bounded by the pool deadline, so draining
        terminates deterministically and never hangs.
        """
        if self._closed:
            return
        self._closed = True  # reject new submits before draining
        was_open = self._pool is not None
        state, thread = self._state, self._thread
        if state is not None:
            with state.cond:
                state.stopping = True
                state.cond.notify_all()
        if thread is not None and thread is not threading.current_thread():
            thread.join()
        with self._dispatch_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._spill = None
        if was_open and self._tracer.enabled:
            self._tracer.event("session.close", {"n_batches": self._n_batches})

    # -- submission ------------------------------------------------------

    def _admit(self, spectra: List[Spectrum]) -> Future:
        """Queue one admitted batch for the pipeline thread."""
        future: Future = Future()
        state = self._state
        with state.cond:
            if self._closed or state.stopping or state.broken:
                self._admission.release()
                raise ServiceError(
                    "service pipeline has crashed; close() and open a new session"
                    if state.broken
                    else "service was closed while this submit was being admitted"
                )
            self._n_pending += 1
            batch = _PendingBatch(
                spectra=spectra,
                future=future,
                batch_index=self._n_submitted,
                enqueued_at=time.perf_counter(),
                depth=self._n_pending,
            )
            self._n_submitted += 1
            state.items.append(batch)
            state.cond.notify_all()
        return future

    # -- pipeline stages (run on the pipeline thread) --------------------

    def _stage_prepare(self, batch: _PendingBatch, *, overlapped: bool) -> bool:
        """Preprocess + pack one batch; False (and a failed future) on error."""
        if not batch.future.set_running_or_notify_cancel():
            # The caller cancelled the future while the batch was still
            # queued: honour it, skip every stage, free the slot.  Once
            # a batch is running, cancel() returns False to the caller
            # and the future always resolves — set_result/set_exception
            # can never hit a CANCELLED future.
            self._release(batch)
            return False
        wall = time.perf_counter
        batch.t_start = wall()
        batch.wait_s = batch.t_start - batch.enqueued_at
        batch.prepared_overlapped = overlapped
        try:
            # The kernel validates every value on the packed columns
            # before it preprocesses them — the only value check a batch
            # gets, and it runs before any dispatch.
            batch.packed = preprocess_packed(batch.spectra, self.config.preprocess)
            batch.prep_s = wall() - batch.t_start
            if self._tracer.enabled:
                self._tracer.span(
                    "prepare",
                    batch.t_start,
                    batch.prep_s,
                    {"batch": batch.batch_index, "n_spectra": len(batch.spectra)},
                )
            return True
        except BaseException as exc:  # noqa: BLE001 - routed to the future
            self._fail_batch(batch, exc)
            return False

    def _stage_dispatch(self, batch: _PendingBatch) -> bool:
        """Scatter one batch's round; False (and a failed future) on error."""
        cfg = self.config
        task = QueryTask(
            spectra=batch.packed,
            top_k=cfg.top_k,
            batch_index=batch.batch_index,
        )
        # The same task object for every rank: the pool pickles it once
        # and reuses the buffer (measured in the round's scatter_bytes).
        try:
            # Stamp the plan this round runs against: a rebalance
            # migration between this dispatch and the merge must not
            # change how the round's payloads are interpreted.
            batch.plan = self.plan
            batch.dispatched_at = time.perf_counter()
            batch.handle = self._pool.dispatch(
                service_query_worker, [task] * self._pool.n_workers
            )
            if self._tracer.enabled:
                self._tracer.span(
                    "dispatch",
                    batch.dispatched_at,
                    time.perf_counter() - batch.dispatched_at,
                    {"batch": batch.batch_index},
                )
            return True
        except BaseException as exc:  # noqa: BLE001 - routed to the future
            self._fail_batch(batch, exc)
            return False

    def _stage_collect(self, batch: _PendingBatch) -> None:
        """Gather one round's replies; errors are parked on the batch."""
        t0 = time.perf_counter()
        try:
            batch.round = batch.handle.collect()
        except BaseException as exc:  # noqa: BLE001 - surfaced in finalize
            batch.error = exc
        finally:
            now = time.perf_counter()
            batch.collect_wait_s = now - t0
            batch.parallel_s = now - batch.dispatched_at
            if self._tracer.enabled:
                self._tracer.span(
                    "collect",
                    t0,
                    batch.collect_wait_s,
                    {"batch": batch.batch_index},
                )

    def _stage_finalize(
        self, batch: _PendingBatch, *, merged_overlapped: bool
    ) -> None:
        """Merge one collected batch and resolve its future."""
        if batch.error is not None:
            self._fail_batch(batch, batch.error)
            return
        try:
            results, stats = self._merge_batch(batch, merged_overlapped)
        except BaseException as exc:  # noqa: BLE001 - routed to the future
            self._fail_batch(batch, exc)
            return
        self._record(stats)
        self._release(batch)
        _settle(batch.future, (results, stats))

    def _merge_batch(
        self, batch: _PendingBatch, merged_overlapped: bool
    ) -> Tuple[SearchResults, BatchStats]:
        cfg = self.config
        wall = time.perf_counter
        pool_round = batch.round
        # A degraded round (degraded_ok after retries exhausted) has
        # None at the failed ranks' slots; everything below skips them
        # and the coverage mask travels on the results and the stats.
        degraded = pool_round.failed_ranks
        for report in pool_round.results:
            if report is None:
                continue
            if report.get("batch_index", -1) != batch.batch_index:
                raise PipelineError(
                    f"collected a worker report for batch "
                    f"{report.get('batch_index')} while merging batch "
                    f"{batch.batch_index}; the round protocol is desynced"
                )
        t0 = wall()
        gathered = [
            (report["counts"], report["local_psms"])
            if report is not None
            else None
            for report in pool_round.results
        ]
        # Merge against the plan stamped at dispatch time — a
        # migration may already have swapped self.plan for the *next*
        # round, but this round's payloads are laid out by its own.
        plan = batch.plan
        merged, _n_psms = merge_rank_payloads(
            gathered, batch.spectra, plan.mapping, cfg.top_k
        )
        merge_s = wall() - t0

        # Every reply carries its rank's index size and resident build
        # seconds; a degraded rank has no reply and zeroed stats.
        all_stats = [
            rank_stats_from_report(r, report if report is not None else {})
            for r, report in enumerate(pool_round.results)
        ]

        total_s = wall() - batch.t_start
        worker_span = max(s.comm_time + s.query_time for s in all_stats)
        phase_times = {
            "serial_prep": batch.prep_s,
            "build": 0.0,  # paid once at open(), not per batch
            "query": max(s.query_time for s in all_stats),
            "query_cpu": max(s.query_cpu_time for s in all_stats),
            "gather": 0.0,
            "merge": merge_s,
            "parallel_wall": batch.parallel_s,
            "parallel_overhead": max(0.0, batch.parallel_s - worker_span),
            "total": total_s,
        }
        results = SearchResults(
            spectra=merged,
            rank_stats=all_stats,
            phase_times=phase_times,
            policy_name=cfg.policy,
            n_ranks=plan.n_ranks,
            degraded_ranks=degraded,
        )
        overlap_s = merge_s if merged_overlapped else 0.0
        if batch.prepared_overlapped:
            overlap_s += batch.prep_s
        stats = BatchStats(
            batch_index=batch.batch_index,
            n_spectra=len(batch.spectra),
            preprocess_s=batch.prep_s,
            parallel_s=batch.parallel_s,
            merge_s=merge_s,
            total_s=total_s,
            query_wall_s=tuple(s.query_time for s in all_stats),
            query_cpu_s=tuple(s.query_cpu_time for s in all_stats),
            scatter_bytes=pool_round.scatter_bytes,
            peak_bytes=plan.n_ranks
            * (batch.packed.mzs.nbytes + batch.packed.intensities.nbytes),
            respawned=pool_round.respawned,
            wait_s=batch.wait_s,
            pipeline_depth=batch.depth,
            collect_wait_s=batch.collect_wait_s,
            overlap_s=overlap_s,
            retries=pool_round.retries,
            hedged=pool_round.hedged,
            degraded_ranks=degraded,
            round_wall_s=tuple(pool_round.wall_times),
            round_cpu_s=tuple(pool_round.cpu_times),
        )
        if self._tracer.enabled:
            self._trace_round(batch, t0, merge_s)
        self._publish("service", stats, degraded_ranks=list(degraded))
        # After publishing: a trigger reads the LI gauge's watermarks,
        # which must include this batch.
        self._feed_rebalance(stats)
        return results, stats

    def _trace_round(
        self, batch: _PendingBatch, merge_start: float, merge_s: float
    ) -> None:
        """Emit the batch's merge span and its ranks' worker spans
        (call only when tracing)."""
        tracer, bi, pool_round = self._tracer, batch.batch_index, batch.round
        tracer.span("merge", merge_start, merge_s, {"batch": bi})
        # Worker spans rode back in the reply payloads as offsets from
        # the moment the answering command went out: the dispatch, or
        # later after a retry, a respawn's replay or a winning hedge.
        for rank, report in enumerate(pool_round.results):
            if report is None:
                continue
            for name, start, dur in worker_spans_from_report(
                report, batch.dispatched_at + pool_round.sent_s[rank]
            ):
                attrs = {"batch": bi, "rank": rank}
                if name == "worker.query":
                    attrs["cpu_s"] = round(
                        float(report.get("query_cpu_s", 0.0)), 9
                    )
                tracer.span(name, start, dur, attrs)

    def _fail_batch(self, batch: _PendingBatch, exc: BaseException) -> None:
        # Black-box the failure: the ring holds the fault's whole
        # supervision timeline (retries, backoffs, respawns) — cut the
        # dump before the future resolves so the path rides the error.
        if (
            isinstance(exc, (WorkerError, ShardError))
            and exc.flight_record is None
        ):
            exc.flight_record = flight_dump(
                self._ring,
                self.config.flight_dir,
                "batch-error",
                batch=batch.batch_index,
            )
        self._release(batch)
        _settle(batch.future, exc)

    def _release(self, batch: _PendingBatch) -> None:
        """Give the batch's admission slot back (exactly once per batch —
        the crash handler may reach a batch a stage already settled)."""
        if batch.released:
            return
        batch.released = True
        state = self._state
        if state is not None:
            with state.cond:
                self._n_pending -= 1
        self._admission.release()

    # -- elastic rebalancing ---------------------------------------------

    def _structural_weights(self) -> np.ndarray:
        """Per-base predicted work (cached): the speed-inference and
        re-planning weight vector, shared by every migration."""
        if self._work_weights is None:
            self._work_weights = structural_weights(self.database)
        return self._work_weights

    def _feed_rebalance(self, stats: BatchStats) -> None:
        """Feed one batch's per-rank vectors to the rebalance policy
        (runs on the pipeline thread, from ``_merge_batch``)."""
        policy = self._rebalance_policy
        if (
            policy is None
            or self._pending_decision is not None
            or stats.degraded_ranks  # zero slots would read as "slow"
        ):
            return
        # The round-level vectors (pipe-observed) see every source of
        # rank slowness — body, unpack, injected or real host skew
        # — so they, not the workers' self-reported query times, drive
        # the decision.
        decision = policy.observe(stats.round_wall_s, stats.round_cpu_s)
        if decision is None:
            return
        with self._state.cond:
            if self._pending_decision is not None:
                return  # an explicit rebalance() took the slot meanwhile
            self._pending_decision = (decision, None)
        if self._tracer.enabled:
            # Satellite: the LI gauge's windowed watermarks ride on the
            # trigger event — the peak imbalance the window actually saw,
            # not just its mean.  read-and-reset scopes them per trigger.
            li_window = self.config.metrics.gauge(
                "service.batch_li_wall"
            ).read_watermarks(reset=True)
            self._tracer.event(
                "rebalance.trigger",
                {
                    "batch": stats.batch_index,
                    "reason": decision.reason,
                    "window_li": round(decision.window_li, 9),
                    "li_window_max": round(li_window["max"], 9),
                    "n_workers": decision.n_workers,
                    "speeds": [round(s, 6) for s in decision.speeds],
                    "cpu_wall_ratio": [
                        round(r, 6) for r in decision.cpu_wall_ratio
                    ],
                },
            )

    def _stage_rebalance(self) -> None:
        """Apply a pending migration (runs on the pipeline thread, only
        at points where no round is on the pipe).  Never raises: an
        automatic migration that fails mid-re-attach has already been
        healed or deferred by the pool (see ``_migrate``); an explicit
        one routes its error to the caller's future.
        """
        state = self._state
        with state.cond:
            pending = self._pending_decision
            if pending is None or self._pool is None:
                return
            self._pending_decision = None
            state.cond.notify_all()  # an explicit rebalance() may await the slot
        decision, future = pending
        if future is not None and not future.set_running_or_notify_cancel():
            return  # explicit caller cancelled while queued
        try:
            outcome = self._migrate(decision)
        except BaseException as exc:  # noqa: BLE001 - routed, never fatal
            # Automatic trigger: the plan swap already happened (or
            # nothing changed); dead ranks heal on the next round's
            # respawn path.  The session itself stays serviceable.
            outcome = exc
        if future is not None:
            _settle(future, outcome)

    def _install(
        self,
        pool: PersistentPool,
        plan: LBEPlan,
        changed: Optional[Sequence[int]] = None,
    ) -> PoolBatchResult:
        """Attach ``plan``'s rank manifests on ``pool`` and adopt ``plan``.

        ``open()`` installs the first plan on every rank and each
        migration a later one on its ``changed`` ranks, through one
        :meth:`~repro.parallel.persistent.PersistentPool.reconfigure`
        round.  The plan is adopted **even when the round raises**:
        ``reconfigure`` guarantees every changed rank is either
        attached to its new manifest or dead with the new attach
        payload remembered, so the new plan is the only consistent
        choice on every path.
        """
        tasks = [
            AttachTask(
                store_dir=str(self._spill.store.directory),
                entry_ids=np.asarray(plan.rank_global_ids(r), dtype=np.int64),
                settings=self.config.index,
            )
            for r in range(plan.n_ranks)
        ]
        try:
            return pool.reconfigure(service_attach_worker, tasks, changed)
        finally:
            self._plan = plan

    def _migrate(self, decision: RebalanceDecision) -> dict:
        """Re-plan with the decision's speeds and migrate the session.

        Returns a summary dict (the explicit :meth:`rebalance` result).
        The plan swap is committed **even when the pool raises**
        mid-re-attach (see :meth:`_install`).
        """
        cfg = self.config
        old_plan = self.plan
        old_n = self._pool.n_workers
        new_n = decision.n_workers
        # Extend/truncate the observed speeds to the target width —
        # a grown rank has no history, so it starts at the mean (1.0).
        speeds = np.ones(new_n, dtype=np.float64)
        take = min(len(decision.speeds), new_n)
        speeds[:take] = decision.speeds[:take]
        new_plan = make_lbe_plan(
            self.database,
            n_ranks=new_n,
            policy="lpt",
            policy_seed=cfg.policy_seed,
            grouping=cfg.grouping,
            rank_speeds=speeds,
        )
        changed = changed_ranks(old_plan, new_plan)
        if new_n == old_n and changed and decision.reason in ("li", "slow_rank"):
            # Churn gate for automatic speed-only migrations: noisy
            # speed estimates re-plan to a *slightly* different layout
            # every window; re-attaching for a negligible predicted
            # gain costs more than it saves.  Predicted makespan =
            # max(load / speed) under the inferred speeds.
            weights = self._structural_weights()
            old_ms = float(np.max(old_plan.rank_loads(weights) / speeds))
            new_ms = float(np.max(new_plan.rank_loads(weights) / speeds))
            if new_ms >= (1.0 - _MIN_MIGRATE_GAIN) * old_ms:
                changed = []
        if not changed and new_n == old_n:
            # The observed speeds round to the same plan: nothing to
            # migrate.  Tell the policy anyway so its cooldown arms —
            # otherwise the same window re-triggers forever.
            if self._rebalance_policy is not None:
                self._rebalance_policy.rebalanced(
                    new_n, new_plan.rank_loads(self._structural_weights())
                )
            return {
                "migrated": False,
                "n_workers": new_n,
                "changed_ranks": [],
                "reason": decision.reason,
            }
        t0 = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            self._install(self._pool, new_plan, changed)
        except WorkerError as exc:
            error = exc
        migrate_s = time.perf_counter() - t0
        if self._rebalance_policy is not None:
            self._rebalance_policy.rebalanced(
                new_n, new_plan.rank_loads(self._structural_weights())
            )
        self._rebalance_total += 1
        cfg.metrics.counter("service.rebalances").inc()
        if self._tracer.enabled:
            self._tracer.event(
                "rebalance.migrate",
                {
                    "reason": decision.reason,
                    "n_from": old_n,
                    "n_to": new_n,
                    "changed_ranks": list(changed),
                    "migrate_s": round(migrate_s, 6),
                    "healed": error is None,
                },
            )
        if error is not None:
            raise error
        return {
            "migrated": True,
            "n_workers": new_n,
            "changed_ranks": list(changed),
            "reason": decision.reason,
            "migrate_s": migrate_s,
        }

    def rebalance(
        self,
        *,
        n_workers: Optional[int] = None,
        speeds: Optional[Sequence[float]] = None,
        reason: str = "manual",
        timeout: Optional[float] = None,
    ) -> dict:
        """Request a live re-plan / pool resize and wait for it.

        The migration itself runs on the pipeline thread at the next
        between-rounds point (at most one idle-poll period away on a
        quiet session), exactly like an automatic trigger — this call
        only *requests* it and blocks on the outcome.  ``speeds``
        defaults to equal speeds over the target width (a plain
        weighted-LPT re-plan); ``n_workers`` defaults to the current
        pool size and is clamped to ``min_workers``/``max_workers``
        when bounds are configured.  If another decision is already
        queued (typically the automatic policy's own, waiting for the
        same between-rounds point) the call waits for it to apply
        first; ``timeout`` (default ``config.timeout``) bounds the
        whole call.  Returns the migration summary
        dict; raises :class:`~repro.errors.WorkerError` when a changed
        rank's re-attach exhausted its retries (the session still
        adopts the new plan — the dead rank heals on its next respawn).
        """
        if self._closed or self._pool is None or self._state is None:
            raise ServiceError("rebalance() on a service that is not open")
        target = self._pool.n_workers if n_workers is None else int(n_workers)
        if target < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {target}"
            )
        target = self.config.worker_bounds().clamp(target)
        if speeds is None:
            speed_vec = tuple(1.0 for _ in range(target))
        else:
            speed_vec = tuple(float(s) for s in speeds)
            if len(speed_vec) != target or any(s <= 0 for s in speed_vec):
                raise ConfigurationError(
                    f"speeds must be {target} positive values, got {speeds!r}"
                )
        decision = RebalanceDecision(
            speeds=speed_vec,
            n_workers=target,
            window_li=0.0,
            reason=reason,
        )
        future: Future = Future()
        state = self._state
        wait_s = timeout if timeout is not None else self.config.timeout
        deadline = time.monotonic() + wait_s
        with state.cond:
            # The slot may hold the automatic policy's own decision,
            # queued until the next between-rounds point: wait for the
            # pipeline thread to apply it rather than failing the call.
            if not state.cond.wait_for(
                lambda: self._pending_decision is None or state.stopping,
                timeout=wait_s,
            ):
                raise ServiceError(
                    f"a rebalance was still pending after {wait_s:g} s"
                )
            if state.stopping:
                raise ServiceError("rebalance() on a service that is closing")
            self._pending_decision = (decision, future)
            state.cond.notify_all()
        return future.result(max(0.0, deadline - time.monotonic()))

    # -- introspection ---------------------------------------------------

    @property
    def attach_s(self) -> float:
        """Wall seconds of the ATTACH round inside :meth:`open`."""
        return self._attach_s

    @property
    def n_workers(self) -> int:
        """The **live** worker count — ``config.n_workers`` until a
        rebalance resizes the pool, the pool's current size after."""
        return (
            self._pool.n_workers
            if self._pool is not None
            else self.config.n_workers
        )

    @property
    def rebalance_total(self) -> int:
        """Migrations (plan swaps / resizes) applied this session."""
        return self._rebalance_total

    @property
    def respawn_total(self) -> int:
        """Workers respawned over the session's lifetime."""
        return self._pool.respawn_total if self._pool is not None else 0

    def worker_pids(self) -> List[int | None]:
        """Current resident worker PIDs (for residency assertions)."""
        if self._pool is None:
            return []
        return self._pool.worker_pids()
