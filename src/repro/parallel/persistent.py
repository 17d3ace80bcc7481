"""Long-lived spawn workers looping on a command pipe.

:class:`PersistentPool` is the one real-process pool: every search
that runs on OS workers — a resident session, a sharded fleet, and
the one-shot engine (a session for one batch) — runs through it.  It
keeps the workers *resident*: each worker is spawned once with only
``(rank, n_workers, fault_plan)`` as arguments, receives one
``ATTACH`` command that builds its long-lived state (for the search
service: open the memmap-shared arena store and build the rank's
partial index), then answers any number of ``QUERY`` commands against
that state until ``SHUTDOWN``.  Every payload travels over the
deadline-supervised command pipe, never in the spawn arguments, so
even a worker that dies during bootstrap cannot block the master.
HiCOPS keeps its parallel machinery resident across query batches for
exactly this amortization.

Failure semantics
-----------------
The contract is "never hangs, heals fast": no failure mode may block
forever, and with ``max_retries > 0`` a round *survives* its workers —
the failing rank's payload is replayed on a respawned worker and the
round completes bit-identically to the fault-free run.  The matrix
(fault × stage → observed behavior, with R = ``max_retries``):

=====================  ==================================================
fault at stage         observed behavior
=====================  ==================================================
crash before attach    ATTACH round fails for the rank; supervision
(spawn / attach)       respawns it, the replayed attach IS the retry —
                       heals for R >= 1, else :class:`WorkerError` with
                       the exit code.
raise during attach    error reply, worker stays resident; retry
                       re-sends the attach payload — heals for R >= 1.
crash mid-query        death detected via the process sentinel; retry
                       respawns + re-attaches the rank and re-dispatches
                       **only its payload** with exponential backoff —
                       heals for R >= 1, else fails the batch (session
                       survives either way, next round respawns).
crash before reply     same as crash mid-query (work computed but never
                       reported is indistinguishable from never run).
raise mid-query        error reply carrying the remote traceback; the
                       worker keeps looping (pipe stays synchronized);
                       retry re-sends the payload to the same worker.
hang                   the per-rank round deadline expires, the stuck
                       worker is terminated (it cannot be
                       resynchronized) and the rank retried as a death.
slow (straggler)       not a failure: with ``hedge_after`` set, the
                       soft deadline launches a speculative duplicate
                       of each still-outstanding rank's task on a
                       fresh attached worker; first answer wins, keyed
                       per (round, rank), the loser is terminated so a
                       late duplicate can never double-merge.
retries exhausted      default: the round raises the lowest failing
                       rank's :class:`WorkerError` (structured with
                       ``rank`` / ``exit_code`` / ``retries``).  With
                       ``degraded_ok=True`` a QUERY round instead
                       returns a partial :class:`PoolBatchResult` whose
                       ``failed_ranks`` mask names the missing ranks
                       (their ``results`` entries are ``None``).
crash during a live    the re-attach retries like any rank failure:
re-attach              respawn + replay with exponential backoff —
(:meth:`reconfigure`)  heals for R >= 1 even when the death happens
                       *during the replayed attach itself* (the
                       retry-of-retry path: each replay consumes one
                       more attempt from the same per-rank budget).
crash in a worker      surviving ranks are untouched; the dead new
added by a resize      slot retries exactly like a re-attach above.
                       A resize never destabilizes ranks it did not
                       touch.
=====================  ==================================================

Live reconfiguration (the rebalance actuator)
---------------------------------------------
:meth:`PersistentPool.reconfigure` is the elastic-rebalancing
primitive: **between rounds** (it refuses while a round is on the
pipe) it atomically replaces the remembered ATTACH payloads, re-sends
the ATTACH command to exactly the ranks whose payload changed (a live
worker accepts a new ATTACH — its old state is simply dropped), and
grows or shrinks the worker count: surplus ranks are shut down,
fresh ranks are spawned and attached.  Respawn replay always uses the
*new* payloads, so a worker that dies mid-reconfigure (or any time
after) heals into the new plan, never the old one.  Untouched ranks
keep their resident state — the whole point: migrating a plan that
moved 10 % of the entries re-attaches only the ranks holding that
10 %.  Note that surviving workers keep the ``size`` their entry loop
was spawned with; command callables must not depend on it (the
service's do not).

Fault injection for the chaos suite lives in
:mod:`repro.parallel.faults`; the plan reaches every worker (and every
hedge) as a spawn argument, or via the ``REPRO_FAULT_PLAN`` env var.

Transports and the sharded fleet
--------------------------------
Worker bootstrap goes through the pluggable
:class:`~repro.parallel.transport.Transport` registry: the pool asks
its transport for one :class:`~repro.parallel.transport.WorkerChannel`
per rank (and per hedge) and speaks only the channel API — in-process
``multiprocessing`` pipes today (``transport="pipe"``), a socket
transport tomorrow, with the supervision loop unchanged.  The sharded
serving tier (:mod:`repro.service.sharding`) composes one pool per
database shard; the failure matrix above stays strictly per-pool — a
whole shard lost after retries degrades fleet *coverage* at the
sharded layer (``degraded_shards``), never this pool's contract.

Split rounds (the pipelining substrate)
---------------------------------------
:meth:`PersistentPool.run_batch` is the blocking convenience; the
primitive underneath is the **non-blocking half-pair**
:meth:`PersistentPool.dispatch` → :class:`RoundHandle` →
:meth:`RoundHandle.collect`.  ``dispatch`` scatters the command (the
workers start computing immediately) and returns; the master is free
to do other work — preprocess the next batch, merge the previous one —
until ``collect`` gathers the replies.  At most **one round may be on
the pipe at a time** (a second ``dispatch`` before ``collect`` raises
:class:`~repro.errors.PipelineError`): the pipe protocol is strict
request/response per worker, and a single in-flight round is exactly
what keeps the crash/respawn/deadline contract per round unchanged.
The round's deadline starts at ``dispatch`` time; a retry resets the
retried rank's deadline only.

The scatter pickles each **distinct payload object once** — when every
rank receives the same task object (the service's per-batch command),
one pickle serves all workers, and the actual bytes written to the
pipes are reported on the result (``scatter_bytes``).

Command callables must be module-level (picklable by reference).  The
attach callable runs ``fn(rank, size, payload) -> (state, report)``;
the worker keeps ``state`` and returns ``report``.  Batch callables
run ``fn(rank, size, state, payload) -> result``.
"""

from __future__ import annotations

import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, PipelineError, ServiceError, WorkerError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.faults import FaultPlan, maybe_inject
from repro.parallel.transport import Transport, WorkerChannel, make_transport

__all__ = ["PersistentPool", "PoolBatchResult", "RoundHandle"]

_ATTACH = "attach"
_QUERY = "query"
_SHUTDOWN = "shutdown"


@dataclass(frozen=True, slots=True)
class PoolBatchResult:
    """Outcome of one resident-pool command round.

    Attributes
    ----------
    results:
        Per-rank return values of the command callable (``None`` at
        the positions named by ``failed_ranks`` in a degraded round).
    wall_times / cpu_times:
        Per-rank real elapsed / process-CPU seconds inside the
        callable (excludes pipe transfer).
    respawned:
        Workers that had to be respawned (and re-attached) for this
        round — before it (death between rounds) or during it (retry
        after a mid-round death).  0 in steady state.
    scatter_bytes:
        Actual command bytes written to the worker pipes for this
        round (each distinct payload object pickled once, its buffer
        reused for every rank that receives it).
    retries:
        Per-rank re-dispatches the supervision layer performed to
        finish this round (0 in steady state).
    hedged:
        Speculative straggler duplicates launched by the soft
        ``hedge_after`` deadline (0 in steady state).
    failed_ranks:
        Ranks with no result after retries exhausted — non-empty only
        in ``degraded_ok`` mode, where it is the per-rank coverage
        mask's complement.
    """

    results: List[Any]
    wall_times: List[float]
    cpu_times: List[float]
    respawned: int = 0
    scatter_bytes: int = 0
    retries: int = 0
    hedged: int = 0
    failed_ranks: Tuple[int, ...] = ()

    @property
    def n_workers(self) -> int:
        """Number of worker slots in the round (including failed ones)."""
        return len(self.results)

    @property
    def makespan(self) -> float:
        """The slowest worker's elapsed seconds."""
        return max(self.wall_times) if self.wall_times else 0.0


class RoundHandle:
    """One dispatched command round awaiting :meth:`collect`.

    Returned by :meth:`PersistentPool.dispatch` after the command was
    scattered — the workers are already computing.  ``collect`` blocks
    until every worker replied (or retries/hedges resolved it, or the
    per-rank deadlines expired) and returns the same
    :class:`PoolBatchResult` the blocking :meth:`~PersistentPool.run_batch`
    would have.  A handle is single-use: collecting twice, collecting
    a stale handle, or dispatching again while this round is still on
    the pipe raises :class:`~repro.errors.PipelineError`.

    Attributes
    ----------
    command:
        The pipe command that was scattered (attach or query).
    deadline:
        ``time.monotonic()`` instant the round (initially) must finish
        by; a retried rank gets a fresh deadline of its own.
    respawned:
        Workers respawned (and re-attached) to scatter this round.
    scatter_bytes:
        Actual pickled command bytes written to the pipes.
    """

    __slots__ = ("_pool", "command", "deadline", "respawned", "scatter_bytes",
                 "fn", "payloads", "dispatched_at", "_collected", "_aborted")

    def __init__(
        self,
        pool: "PersistentPool",
        command: str,
        deadline: float,
        respawned: int,
        scatter_bytes: int,
        fn: Callable,
        payloads: List[Any],
        dispatched_at: float,
    ) -> None:
        self._pool = pool
        self.command = command
        self.deadline = deadline
        self.respawned = respawned
        self.scatter_bytes = scatter_bytes
        self.fn = fn
        self.payloads = payloads
        self.dispatched_at = dispatched_at
        self._collected = False
        self._aborted = False

    @property
    def pending(self) -> bool:
        """True while the round is on the pipe (dispatched, not collected)."""
        return not self._collected and not self._aborted

    def collect(self) -> PoolBatchResult:
        """Await every worker's reply; see :class:`RoundHandle`."""
        return self._pool._collect(self)


def _persistent_worker_entry(
    conn, rank: int, size: int, fault_plan: Optional[FaultPlan] = None
) -> None:
    """Worker-side command loop: ATTACH once, QUERY forever, SHUTDOWN.

    ``fault_plan`` is the chaos harness's injection schedule (see
    :mod:`repro.parallel.faults`); ``None`` — the production case — is
    a single no-op check per command.
    """
    maybe_inject(fault_plan, rank, "spawn")
    state: Any = None
    query_ordinal = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # master is gone; daemon exit
        command = message[0]
        if command == _SHUTDOWN:
            try:
                conn.send(("ok", None, 0.0, 0.0))
            except (BrokenPipeError, OSError):
                pass
            break
        fn, payload = message[1], message[2]
        if command == _ATTACH:
            stage, batch = "attach", None
        else:
            # Batch coordinate for fault scheduling: the payload's own
            # batch_index when it carries one (the service's QueryTask
            # echoes it), else this worker's query ordinal.
            stage = "query"
            batch = getattr(payload, "batch_index", None)
            if not isinstance(batch, int) or batch < 0:
                batch = query_ordinal
            query_ordinal += 1
        try:
            maybe_inject(fault_plan, rank, stage, batch)
            t0 = time.perf_counter()
            c0 = time.process_time()
            if command == _ATTACH:
                state, result = fn(rank, size, payload)
            else:
                result = fn(rank, size, state, payload)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            # The reply stage knows the body's wall time — scale-bearing
            # slow faults stretch it multiplicatively (a chronically
            # slow host runs *everything* slower, not a fixed sleep).
            # Re-measure afterwards so the *reported* wall includes the
            # injected slowdown: the LI gauge is computed from reported
            # walls, and a skew the gauge cannot see cannot be healed.
            maybe_inject(fault_plan, rank, "reply", batch, work_s=wall)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        except BaseException as exc:  # noqa: BLE001 - reported to the master
            try:
                conn.send(
                    ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
            except BaseException:  # noqa: BLE001 - pipe itself is broken
                break
            continue  # a failing batch must not kill the session
        try:
            conn.send(("ok", result, wall, cpu))
        except BaseException as exc:  # noqa: BLE001 - e.g. unpicklable result
            try:
                conn.send(
                    (
                        "error",
                        f"{type(exc).__name__}: {exc} (while sending the result)",
                        traceback.format_exc(),
                    )
                )
            except BaseException:  # noqa: BLE001
                break
    conn.close()


def _payload_batch(payload) -> Optional[int]:
    """Batch coordinate of a round payload for trace events, if any.

    The service's :class:`~repro.parallel.worker.QueryTask` echoes its
    ``batch_index``; diagnostic payloads carry none and events simply
    omit the ``batch`` attribute.
    """
    batch = getattr(payload, "batch_index", None)
    return batch if isinstance(batch, int) and batch >= 0 else None


class _Hedge:
    """One speculative straggler duplicate: a fresh attached worker
    racing the original rank, first answer wins."""

    __slots__ = ("channel", "attach_done", "deadline", "query_anchor")

    def __init__(self, channel: WorkerChannel, deadline: float) -> None:
        self.channel = channel
        self.attach_done = False
        self.deadline = deadline
        # Master clock at the hedge's attach reply — the moment its
        # query actually starts.  Reply spans are offsets from that
        # moment, not from the round's dispatch; promote_hedge uses
        # this to re-base them into the round's timeline.
        self.query_anchor: Optional[float] = None


class PersistentPool:
    """``n_workers`` resident OS processes answering command rounds.

    Parameters
    ----------
    n_workers:
        Worker count (the rank space is ``0 .. n_workers - 1``).
    start_method:
        ``multiprocessing`` start method; ``spawn`` (default) for a
        fresh interpreter per worker on every platform.
    timeout:
        Real-seconds deadline per command round (attach or batch);
        per-rank, reset by a retry.
    max_retries:
        Per-rank re-dispatch budget per round.  0 (default) keeps the
        historical fail-fast contract; >= 1 makes a round survive
        crashes, raises, and deadline kills of its workers.
    backoff_s:
        Base of the exponential retry backoff: attempt *k* sleeps
        ``backoff_s * 2**(k-1)`` before re-dispatching.
    hedge_after:
        Soft per-round deadline in seconds; when a QUERY round is
        still incomplete this long after dispatch, every outstanding
        rank's task is speculatively duplicated on a fresh attached
        worker (at most one hedge per rank per round; first answer
        wins).  ``None`` (default) disables hedging — the idle path
        then adds no syscalls beyond the plain deadline wait.
    degraded_ok:
        When True, a QUERY round whose retries are exhausted returns a
        partial :class:`PoolBatchResult` (``failed_ranks`` mask,
        ``None`` results) instead of raising.  Attach rounds always
        fail loud.
    fault_plan:
        Chaos-testing injection schedule handed to every spawned
        worker; defaults to :meth:`FaultPlan.from_env` so a plan in
        ``REPRO_FAULT_PLAN`` reaches a whole CLI session.
    transport:
        Worker bootstrap mechanism: a registry name (``"pipe"`` —
        local spawn workers on OS pipes — is the default and currently
        the only built-in) or a ready
        :class:`~repro.parallel.transport.Transport` instance.  The
        pool only ever speaks the
        :class:`~repro.parallel.transport.WorkerChannel` API, so a
        socket transport drops in without touching supervision.
    tracer:
        Observability sink (:mod:`repro.obs`): every supervision
        transition — retry, backoff, respawn, hedge launch/win/loss,
        degraded rank — emits a structured event.  The default
        :data:`~repro.obs.trace.NULL_TRACER` is a no-op; every emit
        site is guarded by ``tracer.enabled`` so the disabled path
        costs one branch.

    Use as a context manager, or call :meth:`close` explicitly; a
    dropped pool terminates its workers through a finalizer.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        start_method: str = "spawn",
        timeout: float = 600.0,
        max_retries: int = 0,
        backoff_s: float = 0.05,
        hedge_after: Optional[float] = None,
        degraded_ok: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        transport: "str | Transport" = "pipe",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        # Resolves the registry name and validates start_method.
        transport_obj = make_transport(transport, start_method=start_method)
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {backoff_s}")
        if hedge_after is not None and hedge_after <= 0:
            raise ConfigurationError(
                f"hedge_after must be > 0 or None, got {hedge_after}"
            )
        self.n_workers = n_workers
        self.start_method = start_method
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.hedge_after = hedge_after
        self.degraded_ok = degraded_ok
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._transport = transport_obj
        self._tracer = tracer
        self._channels: List[Optional[WorkerChannel]] = [None] * n_workers
        self._attach: Optional[Tuple[Callable, List[Any]]] = None
        self._closed = False
        self._respawn_total = 0
        self._inflight: Optional[RoundHandle] = None
        # Serializes the scatter and gather halves of a round against
        # each other and against close(): a close() racing a collect()
        # waits for it (bounded by the round deadline) instead of
        # tearing its pipes away.  The lock is *not* held between
        # dispatch and collect — that window is what the pipelined
        # service overlaps with master-side work.
        self._round_lock = threading.Lock()
        for rank in range(n_workers):
            self._spawn(rank)
        # Safety net: a pool dropped without close() must not leave
        # orphan processes.  The finalizer captures the channel list,
        # not self, so it cannot keep the pool alive (the list is
        # mutated in place so the finalizer always sees live slots).
        self._reaper = weakref.finalize(self, _reap_pool, self._channels)

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down; idempotent (double-close is a no-op).

        New rounds are rejected immediately.  A round whose
        :meth:`RoundHandle.collect` is executing is waited for (it ends
        by its own deadline at the latest) so its caller sees a clean
        result or :class:`WorkerError`, never torn pipes.  A round that
        was dispatched but whose collect has not started is **aborted**:
        its workers are terminated (their replies can never be drained
        once the pipes close) and a later ``collect`` raises
        :class:`~repro.errors.PipelineError` instead of hanging.
        """
        if self._closed:
            return
        self._closed = True  # reject new rounds before taking the lock
        with self._round_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._inflight is not None and self._inflight.pending:
            # Dispatched but nobody is collecting: kill the workers so
            # teardown cannot block on their unread replies.
            for channel in self._channels:
                if channel is not None:
                    channel.terminate_quietly()
            self._inflight._aborted = True
            self._inflight = None
        deadline = time.monotonic() + min(self.timeout, 10.0)
        for rank in range(self.n_workers):
            channel = self._channels[rank]
            if channel is None or not channel.alive:
                continue
            try:
                channel.send((_SHUTDOWN,))
            except (BrokenPipeError, OSError):
                continue
        for rank in range(self.n_workers):
            channel = self._channels[rank]
            if channel is None:
                continue
            channel.join(timeout=max(0.0, deadline - time.monotonic()))
            channel.terminate_quietly()
        for rank in range(self.n_workers):
            channel = self._channels[rank]
            if channel is not None:
                channel.close()
            self._channels[rank] = None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def respawn_total(self) -> int:
        """Workers respawned over the pool's lifetime."""
        return self._respawn_total

    def worker_pids(self) -> List[Optional[int]]:
        """Current per-rank worker PIDs (None for a dead slot)."""
        return [
            channel.pid if channel is not None else None
            for channel in self._channels
        ]

    # -- spawning --------------------------------------------------------

    def _spawn(self, rank: int) -> None:
        self._channels[rank] = self._transport.spawn(
            _persistent_worker_entry,
            (rank, self.n_workers, self._fault_plan),
            name=f"repro-resident-{rank}",
        )

    def _respawn(self, rank: int, deadline: float) -> Optional[Tuple[Any, float, float]]:
        """Replace a dead worker and replay its ATTACH.

        Returns the replayed attach's ``(report, wall, cpu)`` — an
        ATTACH-round retry uses it directly as the rank's result — or
        ``None`` when no attach has been recorded yet.
        """
        channel = self._channels[rank]
        if channel is not None:
            channel.stop()
        self._spawn(rank)
        self._respawn_total += 1
        if self._tracer.enabled:
            self._tracer.event("respawn", {"rank": rank})
        if self._attach is not None:
            fn, payloads = self._attach
            self._channels[rank].send((_ATTACH, fn, payloads[rank]))
            return self._receive(rank, deadline)
        return None

    def _ensure_alive(self, deadline: float) -> int:
        """Respawn (and re-attach) any rank that died between rounds."""
        respawned = 0
        for rank in range(self.n_workers):
            channel = self._channels[rank]
            if channel is None or not channel.alive:
                self._respawn(rank, deadline)
                respawned += 1
        return respawned

    # -- command rounds --------------------------------------------------

    def attach(
        self, fn: Callable[[int, int, Any], Any], payloads: Sequence[Any]
    ) -> PoolBatchResult:
        """Build per-worker resident state: ``fn(rank, size, payload)``.

        ``fn`` must return ``(state, report)``; the worker keeps
        ``state`` for subsequent :meth:`run_batch` calls and this
        method gathers the reports.  The attach round is remembered
        and **replayed automatically** whenever a dead worker is
        respawned.
        """
        self._check_open()
        if len(payloads) != self.n_workers:
            raise ConfigurationError(
                f"{len(payloads)} payloads for {self.n_workers} workers"
            )
        self._attach = (fn, list(payloads))
        return self._dispatch(_ATTACH, fn, self._attach[1]).collect()

    def reconfigure(
        self,
        fn: Callable[[int, int, Any], Any],
        payloads: Sequence[Any],
        changed: Optional[Sequence[int]] = None,
    ) -> dict:
        """Swap the pool's attach payloads (and size) between rounds.

        ``len(payloads)`` becomes the new worker count: surplus ranks
        are shut down, fresh ranks are spawned.  ``changed`` names the
        surviving ranks whose payload differs and must be re-attached
        (``None`` re-attaches every surviving rank); ranks added by
        growth always attach.  Ranks in neither set keep their
        resident state untouched.  The remembered attach is replaced
        *first*, so any respawn — including one healing a death during
        this very reconfigure — replays the new payloads.

        Refuses (:class:`~repro.errors.PipelineError`) while a round
        is on the pipe: the caller drains the in-flight round first —
        that is the pipeline-safe migration barrier.

        Returns ``{rank: (report, wall_s, cpu_s)}`` for every rank
        that was (re-)attached.  Failures retry with the pool's
        standard respawn/backoff budget; a rank that exhausts it is
        **terminated** (so its next respawn replays the new payloads)
        and the remaining ranks still re-attach — only then does the
        first failure raise as :class:`~repro.errors.WorkerError`.
        The invariant on every exit path, raising or not: each changed
        rank either holds its new resident state or is dead pending a
        respawn into it — no rank is ever left alive with the old
        state, so the caller can (must) adopt the new configuration
        even on failure.
        """
        self._check_open()
        payloads = list(payloads)
        new_n = len(payloads)
        if new_n < 1:
            raise ConfigurationError(
                f"reconfigure needs >= 1 payloads, got {new_n}"
            )
        with self._round_lock:
            self._check_open()
            if self._inflight is not None and self._inflight.pending:
                raise PipelineError(
                    "cannot reconfigure while a round is on the pipe; "
                    "collect() the pending handle first"
                )
            old_n = self.n_workers
            if changed is None:
                ranks = set(range(min(old_n, new_n)))
            else:
                ranks = {int(r) for r in changed}
                bad = sorted(r for r in ranks if not 0 <= r < new_n)
                if bad:
                    raise ConfigurationError(
                        f"changed ranks {bad} outside the new rank "
                        f"space [0, {new_n})"
                    )
            # Shrink: retire surplus ranks (graceful SHUTDOWN, then the
            # hammer) and drop their slots.  The channel list is mutated
            # in place — the leak finalizer holds the list object.
            shutdown_deadline = time.monotonic() + min(self.timeout, 5.0)
            for rank in range(new_n, old_n):
                channel = self._channels[rank]
                if channel is None:
                    continue
                if channel.alive:
                    try:
                        channel.send((_SHUTDOWN,))
                    except (BrokenPipeError, OSError):
                        pass
            for rank in range(new_n, old_n):
                channel = self._channels[rank]
                if channel is None:
                    continue
                channel.join(
                    timeout=max(0.0, shutdown_deadline - time.monotonic())
                )
                channel.terminate_quietly()
                channel.close()
            del self._channels[new_n:]
            # Grow: open empty slots; _reattach_rank spawns into them.
            self._channels.extend(None for _ in range(old_n, new_n))
            self.n_workers = new_n
            self._attach = (fn, payloads)
            if new_n != old_n and self._tracer.enabled:
                self._tracer.event(
                    "pool.resize", {"n_from": old_n, "n_to": new_n}
                )
            ranks |= set(range(old_n, new_n))
            reports: dict = {}
            failures: dict = {}
            for rank in sorted(ranks):
                try:
                    reports[rank] = self._reattach_rank(rank)
                except WorkerError as exc:
                    # _reattach_rank already terminated the rank, so it
                    # is dead pending a respawn into the NEW payloads —
                    # keep going: the other changed ranks must not be
                    # stranded on their old state.
                    failures[rank] = exc
            if failures:
                raise failures[min(failures)]
            return reports

    def _reattach_rank(self, rank: int) -> Tuple[Any, float, float]:
        """Send the remembered ATTACH to one rank (spawning it first
        when the slot is empty), with the standard retry budget."""
        attempts = 0
        while True:
            deadline = time.monotonic() + self.timeout
            try:
                channel = self._channels[rank]
                if channel is not None and not channel.alive:
                    # Dead slot: _respawn replays the (new) attach itself.
                    report = self._respawn(rank, deadline)
                    if report is None:  # unreachable: _attach is set
                        raise WorkerError(
                            f"no attach recorded for rank {rank}", rank=rank
                        )
                    return report
                if channel is None:
                    # Fresh slot from pool growth: plain spawn, no
                    # respawn accounting — nothing died here.
                    self._spawn(rank)
                fn, payloads = self._attach
                self._channels[rank].send((_ATTACH, fn, payloads[rank]))
                return self._receive(rank, deadline)
            except WorkerError as exc:
                failure = exc
            except (BrokenPipeError, OSError) as exc:
                failure = WorkerError(
                    f"worker {rank} died during re-attach: {exc}", rank=rank
                )
            attempts += 1
            if attempts > self.max_retries:
                failure.rank = rank
                failure.retries = attempts - 1
                # A failed attach may leave the worker alive but
                # holding its OLD resident state; kill it so the next
                # respawn replays the new payload instead.
                channel = self._channels[rank]
                if channel is not None:
                    channel.terminate_quietly()
                raise failure
            delay = self.backoff_s * (2 ** (attempts - 1))
            if self._tracer.enabled:
                self._tracer.event(
                    "retry",
                    {
                        "rank": rank,
                        "attempt": attempts,
                        "command": _ATTACH,
                        "dead": True,
                    },
                )
                self._tracer.event("backoff", {"rank": rank, "delay_s": delay})
            if delay > 0:
                time.sleep(delay)
            # The failed worker cannot be resynchronized: kill it so the
            # next attempt takes the respawn path.
            channel = self._channels[rank]
            if channel is not None:
                channel.terminate_quietly()

    def run_batch(
        self, fn: Callable[[int, int, Any, Any], Any], payloads: Sequence[Any]
    ) -> PoolBatchResult:
        """One blocking batch round: ``fn(rank, size, state, payload)``
        per rank — :meth:`dispatch` and :meth:`RoundHandle.collect`
        back to back."""
        return self.dispatch(fn, payloads).collect()

    def dispatch(
        self, fn: Callable[[int, int, Any, Any], Any], payloads: Sequence[Any]
    ) -> RoundHandle:
        """Scatter one batch command and return without waiting.

        The workers start computing as soon as their pipe delivers the
        command; the caller overlaps master-side work with the round
        and gathers the replies with :meth:`RoundHandle.collect`.  At
        most one round may be on the pipe — dispatching while a
        previous handle is still pending raises
        :class:`~repro.errors.PipelineError`.
        """
        return self._dispatch(_QUERY, fn, list(payloads))

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("pool is closed; no further commands accepted")

    def _dispatch(
        self, command: str, fn: Callable, payloads: Sequence[Any]
    ) -> RoundHandle:
        self._check_open()
        if len(payloads) != self.n_workers:
            raise ConfigurationError(
                f"{len(payloads)} payloads for {self.n_workers} workers"
            )
        payloads = list(payloads)
        with self._round_lock:
            return self._dispatch_locked(command, fn, payloads)

    def _dispatch_locked(
        self, command: str, fn: Callable, payloads: List[Any]
    ) -> RoundHandle:
        # Re-check under the lock: a concurrent close() that won the
        # lock first has already torn the pipes down.
        self._check_open()
        if self._inflight is not None and self._inflight.pending:
            raise PipelineError(
                "a round is already on the pipe; collect() its handle "
                "before dispatching the next one"
            )
        dispatched_at = time.monotonic()
        deadline = dispatched_at + self.timeout
        respawned = self._ensure_alive(deadline)
        dispatched: List[int] = []
        # Each distinct payload object is pickled once and its buffer
        # reused for every rank that receives it — for the service's
        # shared per-batch command that is one pickle for the whole
        # scatter, and the measured bytes are the actual pipe traffic.
        buffers: dict[int, bytes] = {}
        scatter_bytes = 0
        for rank in range(self.n_workers):
            try:
                payload = payloads[rank]
                buf = buffers.get(id(payload))
                if buf is None:
                    buf = bytes(ForkingPickler.dumps((command, fn, payload)))
                    buffers[id(payload)] = buf
                self._channels[rank].send_bytes(buf)
                scatter_bytes += len(buf)
            except (BrokenPipeError, OSError):
                # Died between the liveness check and the send: one
                # respawn attempt, then give up on the round.
                try:
                    self._respawn(rank, deadline)
                    respawned += 1
                    self._channels[rank].send_bytes(buf)
                    scatter_bytes += len(buf)
                except (WorkerError, BrokenPipeError, OSError) as exc:
                    # Aborting mid-scatter would leave the ranks already
                    # dispatched with undrained replies — stale messages
                    # that a later round would misread as its own
                    # results.  Kill them instead; the next round
                    # respawns everything with clean pipes.
                    self._abort_dispatched(dispatched)
                    raise WorkerError(
                        f"worker {rank} died immediately after respawn: {exc}",
                        rank=rank,
                    ) from None
                except BaseException:
                    self._abort_dispatched(dispatched)
                    raise
            except BaseException:
                # Any other scatter failure (e.g. an unpicklable payload
                # raising TypeError in ForkingPickler.dumps) aborts the
                # scatter the same way — dispatched ranks must never be
                # left with undrained replies.
                self._abort_dispatched(dispatched)
                raise
            dispatched.append(rank)
        handle = RoundHandle(
            self, command, deadline, respawned, scatter_bytes,
            fn, payloads, dispatched_at,
        )
        self._inflight = handle
        return handle

    def _collect(self, handle: RoundHandle) -> PoolBatchResult:
        with self._round_lock:
            if handle._collected:
                raise PipelineError("this round was already collected")
            if handle._aborted:
                raise PipelineError(
                    "the pool was closed while this round was on the pipe; "
                    "its workers were terminated and the replies are gone"
                )
            if self._inflight is not handle:
                raise PipelineError(
                    "stale round handle: a newer round has been dispatched"
                )
            try:
                return self._collect_locked(handle)
            finally:
                # Success or WorkerError, the round is off the pipe:
                # healthy workers were drained, dead ones respawn on
                # the next dispatch.
                handle._collected = True
                self._inflight = None

    def _collect_locked(self, handle: RoundHandle) -> PoolBatchResult:
        """Supervised gather: drain replies, retry failed ranks, hedge
        stragglers, and finish the round one way — full result, partial
        (degraded) result, or the lowest failing rank's error."""
        results: List[Any] = [None] * self.n_workers
        walls = [0.0] * self.n_workers
        cpus = [0.0] * self.n_workers
        pending = set(range(self.n_workers))
        deadlines = {rank: handle.deadline for rank in pending}
        attempts = {rank: 0 for rank in pending}
        failures: dict[int, WorkerError] = {}
        provisional: dict[int, WorkerError] = {}  # awaiting an outstanding hedge
        resolved: set[int] = set()
        hedges: dict[int, _Hedge] = {}
        counters = {"retries": 0, "respawns": 0, "hedged": 0}
        tracer = self._tracer

        def trace_event(kind: str, rank: int, **attrs) -> None:
            """Emit one supervision event (call only when tracer.enabled)."""
            batch = _payload_batch(handle.payloads[rank])
            if batch is not None:
                attrs["batch"] = batch
            attrs["rank"] = rank
            tracer.event(kind, attrs)
        # The soft straggler deadline arms once per round, QUERY only,
        # and needs attach state to clone (a hedge must re-attach).
        hedge_at: Optional[float] = None
        if (
            self.hedge_after is not None
            and handle.command == _QUERY
            and self._attach is not None
        ):
            hedge_at = handle.dispatched_at + self.hedge_after

        def rank_resolved(rank: int) -> None:
            """The original worker answered: first answer wins — a
            still-racing hedge is terminated so its late duplicate can
            never merge."""
            resolved.add(rank)
            hedge = hedges.pop(rank, None)
            if hedge is not None:
                hedge.channel.stop()
                if tracer.enabled:
                    trace_event("hedge.loss", rank, winner="original")

        def promote_hedge(rank: int, hedge: _Hedge, message) -> None:
            """The hedge answered first: take its result and install it
            as the rank's resident worker (it holds full attach state);
            the superseded original is terminated."""
            _, result, wall, cpu = message
            # The winner's reply spans are offsets from *its* query
            # start (after its own attach), not from the round's
            # dispatch — shift them so merge-time re-anchoring (which
            # adds the round's dispatch time) lands them where the
            # hedge really ran.  Without this, a hedged rank's
            # worker.query span would overlap the straggler's stall.
            if hedge.query_anchor is not None and isinstance(result, dict):
                spans = result.get("spans")
                if spans:
                    shift = hedge.query_anchor - handle.dispatched_at
                    result["spans"] = tuple(
                        (name, rel + shift, dur) for name, rel, dur in spans
                    )
            original = self._channels[rank]
            if original is not None:
                original.stop()
            self._channels[rank] = hedge.channel
            self._respawn_total += 1
            counters["respawns"] += 1
            results[rank], walls[rank], cpus[rank] = result, wall, cpu
            resolved.add(rank)
            pending.discard(rank)
            provisional.pop(rank, None)
            failures.pop(rank, None)
            del hedges[rank]
            if tracer.enabled:
                trace_event("hedge.win", rank)

        def launch_hedge(rank: int) -> None:
            fn_attach, attach_payloads = self._attach
            channel = self._transport.spawn(
                _persistent_worker_entry,
                (rank, self.n_workers, self._fault_plan),
                name=f"repro-hedge-{rank}",
            )
            try:
                # Attach and query back-to-back; the worker answers the
                # attach report first, then the query result.
                channel.send((_ATTACH, fn_attach, attach_payloads[rank]))
                channel.send_bytes(
                    bytes(
                        ForkingPickler.dumps(
                            (handle.command, handle.fn, handle.payloads[rank])
                        )
                    )
                )
            except (BrokenPipeError, OSError):
                channel.stop()
                return
            hedges[rank] = _Hedge(channel, time.monotonic() + self.timeout)
            counters["hedged"] += 1
            if tracer.enabled:
                trace_event("hedge.launch", rank)

        def hedge_failed(rank: int) -> None:
            """A hedge crashed, raised, or timed out: discard it; the
            rank keeps riding its original worker unless that already
            failed permanently, in which case the failure lands now."""
            hedge = hedges.pop(rank)
            hedge.channel.stop()
            if tracer.enabled:
                trace_event("hedge.loss", rank, winner="none")
            if rank in provisional:
                failures[rank] = provisional.pop(rank)

        def fail_rank(rank: int, exc: WorkerError, dead: bool) -> None:
            """Retry the rank with exponential backoff, or record its
            permanent failure (deferred while a hedge still races)."""
            while True:
                # Trust liveness over the caller's flag: a dead worker's
                # pipe polls readable (EOF), so its failure arrives via
                # _consume like a raise — re-sending to it would burn a
                # retry on a broken pipe.
                channel = self._channels[rank]
                if channel is None or not channel.alive:
                    dead = True
                attempts[rank] += 1
                if attempts[rank] > self.max_retries:
                    exc.rank = rank
                    exc.retries = attempts[rank] - 1
                    if rank in hedges:
                        provisional[rank] = exc
                    else:
                        failures[rank] = exc
                    return
                counters["retries"] += 1
                delay = self.backoff_s * (2 ** (attempts[rank] - 1))
                if tracer.enabled:
                    trace_event(
                        "retry",
                        rank,
                        attempt=attempts[rank],
                        command=handle.command,
                        dead=dead,
                    )
                    trace_event("backoff", rank, delay_s=delay)
                if delay > 0:
                    time.sleep(delay)
                try:
                    if dead:
                        report = self._respawn(
                            rank, time.monotonic() + self.timeout
                        )
                        counters["respawns"] += 1
                        if handle.command == _ATTACH and report is not None:
                            # The replayed attach IS the retried work.
                            results[rank], walls[rank], cpus[rank] = report
                            rank_resolved(rank)
                            return
                    self._channels[rank].send_bytes(
                        bytes(
                            ForkingPickler.dumps(
                                (handle.command, handle.fn, handle.payloads[rank])
                            )
                        )
                    )
                    deadlines[rank] = time.monotonic() + self.timeout
                    pending.add(rank)
                    return
                except WorkerError as retry_exc:
                    exc, dead = retry_exc, True
                except (BrokenPipeError, OSError) as pipe_exc:
                    exc = WorkerError(
                        f"worker {rank} died during retry re-dispatch: "
                        f"{pipe_exc}",
                        rank=rank,
                    )
                    dead = True

        try:
            while pending or hedges:
                now = time.monotonic()
                # Hard per-rank deadlines: a stuck worker cannot be
                # resynchronized — kill it, then retry as a death.
                for rank in sorted(pending):
                    if now >= deadlines[rank]:
                        self._channels[rank].terminate_quietly()
                        pending.discard(rank)
                        fail_rank(
                            rank,
                            WorkerError(
                                f"worker {rank} exceeded the resident round "
                                f"deadline ({self.timeout:.0f}s) and was "
                                f"terminated",
                                rank=rank,
                            ),
                            dead=True,
                        )
                for rank in sorted(hedges):
                    if now >= hedges[rank].deadline:
                        hedge_failed(rank)
                # Soft straggler deadline: one speculative duplicate
                # per still-outstanding rank, once per round.
                if hedge_at is not None and now >= hedge_at:
                    for rank in sorted(pending - set(hedges)):
                        launch_hedge(rank)
                    hedge_at = None
                if not pending and not hedges:
                    break
                wakeups = [deadlines[rank] for rank in pending]
                wakeups.extend(hedge.deadline for hedge in hedges.values())
                if hedge_at is not None:
                    wakeups.append(hedge_at)
                waitees: List[Any] = []
                for rank in pending:
                    waitees.extend(self._channels[rank].wait_objects())
                for hedge in hedges.values():
                    waitees.extend(hedge.channel.wait_objects())
                connection.wait(
                    waitees, timeout=max(0.0, min(wakeups) - time.monotonic())
                )
                for rank in sorted(pending):
                    channel = self._channels[rank]
                    if channel.poll():
                        failure = self._consume(rank, results, walls, cpus)
                        pending.discard(rank)
                        if failure is None:
                            rank_resolved(rank)
                        else:
                            fail_rank(rank, failure, dead=False)
                    elif not channel.alive:
                        channel.join()
                        if channel.poll():
                            failure = self._consume(rank, results, walls, cpus)
                            pending.discard(rank)
                            if failure is None:
                                rank_resolved(rank)
                            else:
                                fail_rank(rank, failure, dead=False)
                        else:
                            pending.discard(rank)
                            fail_rank(
                                rank,
                                WorkerError(
                                    f"worker {rank} died mid-batch without "
                                    f"reporting (exit code "
                                    f"{channel.exitcode})",
                                    rank=rank,
                                    exit_code=channel.exitcode,
                                ),
                                dead=True,
                            )
                for rank in sorted(hedges):
                    hedge = hedges.get(rank)
                    while hedge is not None and rank in hedges:
                        if hedge.channel.poll():
                            try:
                                message = hedge.channel.recv()
                            except (EOFError, OSError):
                                hedge_failed(rank)
                                break
                            if message[0] == "error":
                                hedge_failed(rank)
                                break
                            if not hedge.attach_done:
                                hedge.attach_done = True
                                hedge.query_anchor = time.monotonic()
                                continue  # the query reply may follow
                            if rank in resolved:
                                # First answer already won; the hedge's
                                # late duplicate must never merge.
                                hedge_failed(rank)
                                break
                            promote_hedge(rank, hedge, message)
                            break
                        if not hedge.channel.alive:
                            hedge.channel.join()
                            if hedge.channel.poll():
                                continue
                            hedge_failed(rank)
                            break
                        break
        finally:
            # No hedge may outlive its round, whatever path exits it.
            for rank in list(hedges):
                hedges.pop(rank).channel.stop()
        failures.update(provisional)
        respawned = handle.respawned + counters["respawns"]
        if failures:
            if self.degraded_ok and handle.command == _QUERY:
                if tracer.enabled:
                    for rank in sorted(failures):
                        trace_event(
                            "degraded.rank",
                            rank,
                            retries=failures[rank].retries,
                        )
                return PoolBatchResult(
                    results=results,
                    wall_times=walls,
                    cpu_times=cpus,
                    respawned=respawned,
                    scatter_bytes=handle.scatter_bytes,
                    retries=counters["retries"],
                    hedged=counters["hedged"],
                    failed_ranks=tuple(sorted(failures)),
                )
            # Healthy workers have been drained, so the pipes stay in
            # request/response sync; dead ones respawn next round.  The
            # lowest failing rank is surfaced deterministically, not
            # whichever reply happened to arrive first.
            raise failures[min(failures)]
        return PoolBatchResult(
            results=results,
            wall_times=walls,
            cpu_times=cpus,
            respawned=respawned,
            scatter_bytes=handle.scatter_bytes,
            retries=counters["retries"],
            hedged=counters["hedged"],
        )

    def _abort_dispatched(self, dispatched: List[int]) -> None:
        """Kill ranks whose command was already sent in an aborted
        scatter — their replies would desync the next round."""
        for rank in dispatched:
            self._channels[rank].terminate_quietly()

    def _consume(
        self, rank: int, results, walls, cpus
    ) -> Optional[WorkerError]:
        """Read one reply; return (not raise) a failure so the round
        can keep draining the other workers before surfacing it."""
        channel = self._channels[rank]
        try:
            message = channel.recv()
        except (EOFError, OSError):
            channel.join()
            return WorkerError(
                f"worker {rank} died mid-batch without reporting "
                f"(exit code {channel.exitcode})",
                rank=rank,
                exit_code=channel.exitcode,
            )
        if message[0] == "error":
            _, summary, remote_tb = message
            return WorkerError(
                f"worker {rank} raised {summary}\n"
                f"--- remote traceback ---\n{remote_tb}",
                rank=rank,
            )
        _, result, wall, cpu = message
        results[rank] = result
        walls[rank] = wall
        cpus[rank] = cpu
        return None

    def _receive(self, rank: int, deadline: float) -> Tuple[Any, float, float]:
        """Await one rank's reply (used for replayed ATTACH rounds);
        returns ``(result, wall, cpu)``."""
        channel = self._channels[rank]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                channel.terminate_quietly()
                raise WorkerError(
                    f"worker {rank} exceeded the deadline while re-attaching",
                    rank=rank,
                )
            connection.wait(channel.wait_objects(), timeout=remaining)
            if channel.poll():
                results = [None] * self.n_workers
                walls = [0.0] * self.n_workers
                cpus = [0.0] * self.n_workers
                failure = self._consume(rank, results, walls, cpus)
                if failure is not None:
                    raise failure
                return results[rank], walls[rank], cpus[rank]
            if not channel.alive:
                channel.join()
                if channel.poll():
                    continue
                raise WorkerError(
                    f"worker {rank} died while re-attaching "
                    f"(exit code {channel.exitcode})",
                    rank=rank,
                    exit_code=channel.exitcode,
                )


def _reap_pool(channels) -> None:
    """Finalizer body: terminate whatever is still running."""
    for channel in channels:
        if channel is not None:
            channel.stop()
