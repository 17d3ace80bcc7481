"""Long-lived spawn workers looping on a command pipe.

:class:`PersistentPool` is the one real-process pool: every search
that runs on OS workers — a session, whether it serves a stream or
one batch, and each shard of a sharded fleet — runs through it.  It
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
                       the exit code.  A session spawns its pool before
                       it plans and spills, so a boot crash may land
                       while the master is still spilling; nothing
                       watches the pipe then, and the death surfaces in
                       the ATTACH round and heals the same way.
raise during attach    error reply, worker stays resident; retry
                       re-sends the attach payload — heals for R >= 1.
death between rounds   the next dispatch respawns the rank without
                       blocking: its attempt expects the replayed ATTACH,
                       then the command.  A death in that replay retries
                       within the same budget — heals for R >= 1, else
                       :class:`WorkerError` naming the re-attach.
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
hang                   the rank's deadline expires, the stuck worker is
                       terminated (it cannot be resynchronized) and the
                       rank retried as a death.
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
crash during a live    :meth:`reconfigure` re-attaches every changed and
re-attach              grown rank concurrently as one ATTACH round; each
(:meth:`reconfigure`)  retries like any rank failure, even when the death
                       happens *during the replayed attach itself* (each
                       replay consumes one more attempt from the same
                       per-rank budget).
crash in a worker      surviving ranks are untouched; the dead new
added by a resize      slot retries exactly like a re-attach above.
                       A resize never destabilizes ranks it did not
                       touch.
=====================  ==================================================

There is **one deadline rule**: an attempt's deadline restarts at each
reply it waits for — when its command is sent, and again when a
replayed ATTACH answered and the command follows.  Retries, respawn
replays and hedges all obey it, and one rank's replay never moves
another rank's deadline.

Attach and live reconfiguration (the rebalance actuator)
--------------------------------------------------------
:meth:`PersistentPool.reconfigure` is the one way resident state is
installed, and :meth:`PersistentPool.attach` is its first use: a
payload count check, then a reconfigure of every rank.  **Between
rounds** (it refuses while a round is on the pipe) reconfigure
atomically replaces the remembered ATTACH payloads, re-sends the
ATTACH command to exactly the ranks whose payload changed (a live
worker accepts a new ATTACH — its old state is simply dropped), and
grows or shrinks the worker count: surplus ranks are shut down,
fresh ranks are spawned and attached.  Either way the result is one
supervised ATTACH round's :class:`PoolBatchResult`.  Respawn replay
always uses the *new* payloads, so a worker that dies mid-reconfigure
(or any time after) heals into the new plan, never the old one.
Untouched ranks keep their resident state — the whole point:
migrating a plan that moved 10 % of the entries re-attaches only the
ranks holding that 10 %.  Note that surviving workers keep the
``size`` their entry loop was spawned with; command callables must
not depend on it (the service's do not).

Fault injection for the chaos suite lives in
:mod:`repro.parallel.faults`; the plan reaches every worker (and every
hedge) as a spawn argument, or via the ``REPRO_FAULT_PLAN`` env var.

Worker channels and the sharded fleet
-------------------------------------
Every worker (resident rank or hedge) starts through
:func:`~repro.parallel.transport.spawn_worker`, and the pool speaks to
it only through the :class:`~repro.parallel.transport.WorkerChannel`
API.  Local spawn workers on OS pipes are the one implementation; the
channel is the seam a second transport would implement, with the
supervision loop unchanged.  The sharded serving tier
(:mod:`repro.service.sharding`) composes one pool per database shard;
the failure matrix above stays strictly per-pool — a whole shard lost
after retries degrades fleet *coverage* at the sharded layer
(``degraded_shards``), never this pool's contract.

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

``collect`` runs :meth:`PersistentPool._supervise`, the one wait loop:
attach rounds, re-attach, respawn replays, retries and hedges are all
``_Attempt`` records it waits on together, each reply is read by one
reader, and every failure goes through one retry rule (:func:`_decide`).

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
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, PipelineError, ServiceError, WorkerError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.faults import FaultPlan, maybe_inject
from repro.parallel.transport import WorkerChannel, spawn_worker

__all__ = [
    "PersistentPool",
    "PoolBatchResult",
    "RoundHandle",
    "check_pool_settings",
]

_ATTACH = "attach"
_QUERY = "query"
_SHUTDOWN = "shutdown"

# Per-rank attempt states: pending -> answered | failed -> retrying |
# hedged -> promoted | degraded.
_PENDING, _ANSWERED, _FAILED, _RETRYING = "pending", "answered", "failed", "retrying"
_HEDGED, _PROMOTED, _DEGRADED = "hedged", "promoted", "degraded"

# What the one retry rule (_decide) makes of a failure.
_RETRY, _DEFER, _DEGRADE, _FAIL = "retry", "defer", "degrade", "fail"


def _decide(
    attempt: int,
    max_retries: int,
    hedge_racing: bool,
    command: str,
    degraded_ok: bool,
) -> str:
    """The one retry rule: the fate of a rank's ``attempt``-th failure
    in one round (pure — no clock, no process).

    Retry while the per-rank budget lasts; past it, defer while a hedge
    still races for the rank (decided again once the hedge cannot
    answer); then mask the rank in a ``degraded_ok`` QUERY round, else
    fail — attach rounds never degrade.
    """
    if attempt <= max_retries:
        return _RETRY
    if hedge_racing:
        return _DEFER
    if degraded_ok and command == _QUERY:
        return _DEGRADE
    return _FAIL


def check_pool_settings(
    n_workers: int,
    *,
    timeout: float,
    max_retries: int,
    backoff_s: float,
    hedge_after: Optional[float],
) -> None:
    """Validate a pool's settings.

    The one check behind :class:`PersistentPool` and
    :class:`~repro.service.service.ServiceConfig`, so a bad setting
    fails when the configuration is built, not when a session opens.
    Raises :class:`~repro.errors.ConfigurationError`.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
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


def _pickled(command: str, fn: Callable, payload: Any) -> bytes:
    return bytes(ForkingPickler.dumps((command, fn, payload)))


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
    sent_s:
        Per rank, seconds after the round's dispatch at which the
        command that answered went out: 0.0, or later when a retry,
        a respawn's replayed ATTACH or a winning hedge sent it again.
        A caller that times work inside the callable relative to its
        start anchors it at dispatch + ``sent_s``.
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
    sent_s: List[float]
    respawned: int = 0
    scatter_bytes: int = 0
    retries: int = 0
    hedged: int = 0
    failed_ranks: Tuple[int, ...] = ()

    @property
    def n_workers(self) -> int:
        """Number of worker slots in the round (including failed ones)."""
        return len(self.results)


@dataclass(slots=True, eq=False)
class _Attempt:
    """One reply-bearing piece of work on one channel.

    ``expect`` lists the replies still owed, each with the pickled
    command that asks for it: ``[command]``, ``[ATTACH, command]`` for
    a respawned or hedge worker (the command is sent once the replayed
    ATTACH answered), or ``[ATTACH]`` for an attach or re-attach.  The
    head is the one on the pipe.  ``state`` is the rank's place in the
    supervision machine; ``anchor`` is the master clock at which a
    command sent after dispatch went out (the round reports it as the
    rank's ``sent_s``).
    """

    rank: int
    channel: WorkerChannel
    expect: List[Tuple[str, bytes]]
    state: str
    deadline: float = 0.0
    anchor: Optional[float] = None
    error: Optional[WorkerError] = None


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

    The handle is also the round's supervision record: its attempts,
    per-rank tries, results and failures.

    Attributes
    ----------
    command:
        The pipe command that was scattered (attach or query).
    deadline:
        ``time.monotonic()`` instant the round (initially) must finish
        by; a retried rank gets a fresh deadline of its own.
    respawned:
        Workers respawned (and re-attached) for this round so far.
    scatter_bytes:
        Actual pickled command bytes written to the pipes.
    """

    __slots__ = (
        "_pool", "command", "fn", "payloads", "dispatched_at", "deadline",
        "respawned", "scatter_bytes", "retries", "hedged", "results",
        "walls", "cpus", "sent", "tries", "failed", "degraded", "primary",
        "hedges", "live", "_buffers", "_collected", "_aborted",
    )

    def __init__(
        self,
        pool: Optional["PersistentPool"],
        command: str,
        fn: Callable,
        payloads: List[Any],
        timeout: float,
    ) -> None:
        n = len(payloads)
        self._pool = pool
        self.command = command
        self.fn = fn
        self.payloads = payloads
        self.dispatched_at = time.monotonic()
        self.deadline = self.dispatched_at + timeout
        self.respawned = self.scatter_bytes = self.retries = self.hedged = 0
        self.results: List[Any] = [None] * n
        self.walls = [0.0] * n
        self.cpus = [0.0] * n
        self.sent = [0.0] * n
        self.tries = [0] * n  # failures per rank so far
        self.failed: dict[int, WorkerError] = {}
        self.degraded: dict[int, WorkerError] = {}
        self.primary: dict[int, _Attempt] = {}  # each rank's current attempt
        self.hedges: dict[int, _Attempt] = {}  # racing duplicates
        self.live: List[_Attempt] = []  # attempts still owed a reply
        self._buffers: dict[int, bytes] = {}
        self._collected = False
        self._aborted = False

    @property
    def pending(self) -> bool:
        """True while the round is on the pipe (dispatched, not collected)."""
        return not self._collected and not self._aborted

    def collect(self) -> PoolBatchResult:
        """Await every worker's reply; see :class:`RoundHandle`."""
        return self._pool._collect(self)

    def _buffer(self, rank: int) -> bytes:
        """The pickled command for ``rank``: each distinct payload
        object is pickled once and its buffer reused for every rank
        that receives it."""
        payload = self.payloads[rank]
        buf = self._buffers.get(id(payload))
        if buf is None:
            buf = self._buffers[id(payload)] = _pickled(self.command, self.fn, payload)
        return buf

    def _result(self) -> PoolBatchResult:
        """How the round ends once nothing is live: the lowest failing
        rank's error — deterministically, not whichever failure came
        first — or the result, masked by any degraded ranks."""
        if self.failed:
            raise self.failed[min(self.failed)]
        return PoolBatchResult(
            results=self.results,
            wall_times=self.walls,
            cpu_times=self.cpus,
            sent_s=self.sent,
            respawned=self.respawned,
            scatter_bytes=self.scatter_bytes,
            retries=self.retries,
            hedged=self.hedged,
            failed_ranks=tuple(sorted(self.degraded)),
        )


def _payload_batch(payload) -> Optional[int]:
    """Batch coordinate of a round payload, if it carries one.

    The service's :class:`~repro.parallel.worker.QueryTask` echoes its
    ``batch_index``; diagnostic payloads carry none (trace events then
    omit the ``batch`` attribute).
    """
    batch = getattr(payload, "batch_index", None)
    return batch if isinstance(batch, int) and batch >= 0 else None


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
            # Fault-scheduling coordinate: the payload's own batch
            # index when it carries one, else this worker's ordinal.
            stage = "query"
            batch = _payload_batch(payload)
            if batch is None:
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


def _retire(channels: Iterable[Optional[WorkerChannel]], grace: float) -> None:
    """Shut workers down: SHUTDOWN, a join bounded by ``grace`` seconds
    overall, then terminate and close whatever is left."""
    channels = [channel for channel in channels if channel is not None]
    deadline = time.monotonic() + grace
    for channel in channels:
        if channel.alive:
            try:
                channel.send((_SHUTDOWN,))
            except (BrokenPipeError, OSError):
                pass
    for channel in channels:
        channel.join(timeout=max(0.0, deadline - time.monotonic()))
        channel.stop()


class PersistentPool:
    """``n_workers`` resident OS processes answering command rounds.

    Parameters
    ----------
    n_workers:
        Worker count (the rank space is ``0 .. n_workers - 1``).
    timeout:
        Real-seconds deadline per awaited reply (attach or batch);
        per-rank, restarted by a retry or a replayed attach.
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
        timeout: float = 600.0,
        max_retries: int = 0,
        backoff_s: float = 0.05,
        hedge_after: Optional[float] = None,
        degraded_ok: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        check_pool_settings(
            n_workers,
            timeout=timeout,
            max_retries=max_retries,
            backoff_s=backoff_s,
            hedge_after=hedge_after,
        )
        self.n_workers = n_workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.hedge_after = hedge_after
        self.degraded_ok = degraded_ok
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._tracer = tracer
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
        self._channels: List[Optional[WorkerChannel]] = [
            self._spawn(rank) for rank in range(n_workers)
        ]
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
            if self._inflight is not None and self._inflight.pending:
                # Dispatched but nobody is collecting: kill the workers
                # so teardown cannot block on their unread replies.
                for channel in self._channels:
                    if channel is not None:
                        channel.terminate_quietly()
                self._inflight._aborted = True
                self._inflight = None
            _retire(self._channels, min(self.timeout, 10.0))
            self._channels[:] = [None] * len(self._channels)

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

    def _spawn(self, rank: int, role: str = "resident") -> WorkerChannel:
        return spawn_worker(
            _persistent_worker_entry,
            (rank, self.n_workers, self._fault_plan),
            name=f"repro-{role}-{rank}",
        )

    # -- command rounds --------------------------------------------------

    def attach(
        self, fn: Callable[[int, int, Any], Any], payloads: Sequence[Any]
    ) -> PoolBatchResult:
        """Build per-worker resident state: ``fn(rank, size, payload)``.

        ``fn`` must return ``(state, report)``; the worker keeps
        ``state`` for subsequent :meth:`run_batch` calls and the
        round's ``results`` are the reports.  One payload per worker;
        otherwise exactly :meth:`reconfigure` of every rank, so the
        attach is remembered and **replayed automatically** whenever a
        dead worker is respawned.
        """
        self._check_width(payloads)
        return self.reconfigure(fn, payloads)

    def reconfigure(
        self,
        fn: Callable[[int, int, Any], Any],
        payloads: Sequence[Any],
        changed: Optional[Sequence[int]] = None,
    ) -> PoolBatchResult:
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

        Returns the round's :class:`PoolBatchResult`: the reports of
        the (re-)attached ranks, ``None`` (and 0.0 seconds) for the
        untouched ones.  The ranks re-attach concurrently, as
        one supervised ATTACH round with the pool's standard
        respawn/backoff budget; a rank that exhausts it is
        **terminated** (so its next respawn replays the new payloads)
        and the remaining ranks still re-attach — only then does the
        lowest failing rank raise as :class:`~repro.errors.WorkerError`.
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
            # Shrink: retire surplus ranks and drop their slots; grow:
            # open empty slots for _launch to spawn into.  The channel
            # list is mutated in place — the leak finalizer holds it.
            _retire(self._channels[new_n:], min(self.timeout, 5.0))
            del self._channels[new_n:]
            self._channels.extend(None for _ in range(old_n, new_n))
            self.n_workers = new_n
            self._attach = (fn, payloads)
            if new_n != old_n and self._tracer.enabled:
                self._tracer.event(
                    "pool.resize", {"n_from": old_n, "n_to": new_n}
                )
            ranks = sorted(ranks | set(range(old_n, new_n)))
            job = RoundHandle(self, _ATTACH, fn, payloads, self.timeout)
            return self._supervise(self._scatter(job, ranks))

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
        self._check_open()
        self._check_width(payloads)
        with self._round_lock:
            # Re-check under the lock: a concurrent close() that won
            # the lock first has already torn the pipes down.
            self._check_open()
            if self._inflight is not None and self._inflight.pending:
                raise PipelineError(
                    "a round is already on the pipe; collect() its handle "
                    "before dispatching the next one"
                )
            job = RoundHandle(self, _QUERY, fn, list(payloads), self.timeout)
            self._inflight = self._scatter(job, range(self.n_workers))
            return job

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("pool is closed; no further commands accepted")

    def _check_width(self, payloads: Sequence[Any]) -> None:
        if len(payloads) != self.n_workers:
            raise ConfigurationError(
                f"{len(payloads)} payloads for {self.n_workers} workers"
            )

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
                return self._supervise(handle)
            finally:
                # Success or WorkerError, the round is off the pipe:
                # healthy workers were drained, dead ones respawn on
                # the next dispatch.
                handle._collected = True
                self._inflight = None

    # -- supervision -----------------------------------------------------

    def _scatter(self, job: RoundHandle, ranks: Iterable[int]) -> RoundHandle:
        """Start one attempt per rank.  A scatter that cannot finish
        (e.g. an unpicklable payload) kills the ranks it already
        reached — their replies would desync the next round, which
        respawns them with clean pipes."""
        try:
            for rank in ranks:
                job.scatter_bytes += len(self._launch(job, rank).expect[-1][1])
        except BaseException:
            for attempt in job.live:
                attempt.channel.terminate_quietly()
            raise
        return job

    def _launch(self, job: RoundHandle, rank: int) -> _Attempt:
        """Start ``rank``'s attempt at ``job``'s command on its worker.

        A dead worker is respawned first (an empty slot left by growth
        is simply spawned).  A fresh worker owes the remembered ATTACH
        before any other command, so its attempt expects
        ``[ATTACH, command]`` — in an attach round the replay *is* the
        command.
        """
        expect = [(job.command, job._buffer(rank))]
        channel = self._channels[rank]
        if channel is None or not channel.alive:
            if channel is not None:
                channel.stop()
                self._respawn_total += 1
                job.respawned += 1
                if self._tracer.enabled:
                    self._tracer.event("respawn", {"rank": rank})
            channel = self._channels[rank] = self._spawn(rank)
            if job.command != _ATTACH and self._attach is not None:
                expect.insert(0, self._replay(rank))
        attempt = _Attempt(rank, channel, expect, _PENDING)
        self._send(attempt)
        job.primary[rank] = attempt
        job.live.append(attempt)
        return attempt

    def _hedge(self, job: RoundHandle, rank: int) -> None:
        """Race a duplicate of ``rank``'s command on a fresh worker
        that replays the remembered ATTACH first."""
        hedge = _Attempt(
            rank,
            self._spawn(rank, "hedge"),
            [self._replay(rank), (job.command, job._buffer(rank))],
            _HEDGED,
        )
        self._send(hedge)
        job.hedges[rank] = hedge
        job.live.append(hedge)
        job.hedged += 1
        if self._tracer.enabled:
            self._trace(job, "hedge.launch", rank)

    def _replay(self, rank: int) -> Tuple[str, bytes]:
        """The remembered ATTACH for ``rank``, as an expected reply."""
        fn, payloads = self._attach
        return _ATTACH, _pickled(_ATTACH, fn, payloads[rank])

    def _send(self, attempt: _Attempt) -> None:
        """Write the command at the head of ``attempt.expect``; the
        attempt's deadline restarts now (the one deadline rule)."""
        try:
            attempt.channel.send_bytes(attempt.expect[0][1])
        except (BrokenPipeError, OSError):
            pass  # a dead worker surfaces through the reader
        attempt.deadline = time.monotonic() + self.timeout

    def _supervise(self, job: RoundHandle) -> PoolBatchResult:
        """The one wait loop: every reply the pool waits for.

        Waits on every live attempt of ``job`` at once — primaries,
        their retries and respawn replays, and hedges — reads each
        through :meth:`_read` and moves its rank on through
        :meth:`_settle`.  The soft ``hedge_after`` deadline arms once
        per QUERY round.  Returns :meth:`RoundHandle._result` once
        nothing is live.
        """
        hedge_at = None
        if (
            self.hedge_after is not None
            and job.command == _QUERY
            and self._attach is not None
        ):
            hedge_at = job.dispatched_at + self.hedge_after
        try:
            while job.live:
                if hedge_at is not None and time.monotonic() >= hedge_at:
                    hedge_at = None  # one hedge per outstanding rank
                    for attempt in sorted(job.live, key=_by_rank):
                        if attempt.state == _PENDING:
                            self._hedge(job, attempt.rank)
                wakeup = min(attempt.deadline for attempt in job.live)
                if hedge_at is not None:
                    wakeup = min(wakeup, hedge_at)
                connection.wait(
                    [obj for a in job.live for obj in a.channel.wait_objects()],
                    timeout=max(0.0, wakeup - time.monotonic()),
                )
                for attempt in sorted(job.live, key=_by_rank):
                    if attempt in job.live:
                        outcome = self._read(job, attempt)
                        if outcome is not None:
                            self._settle(job, attempt, outcome)
        finally:
            # No hedge may outlive its round, whatever path exits it.
            for hedge in job.hedges.values():
                hedge.channel.stop()
        return job._result()

    def _read(self, job: RoundHandle, attempt: _Attempt):
        """The one reader: take at most one reply off ``attempt``.

        Returns ``None`` while the attempt still waits (a replayed
        ATTACH that answered sends its command and keeps waiting), the
        command's ``(result, wall, cpu)``, or the :class:`WorkerError`
        of a raise, a death, or an expired deadline.
        """
        channel, rank = attempt.channel, attempt.rank
        if not channel.poll():
            if channel.alive:
                if time.monotonic() < attempt.deadline:
                    return None
                # A stuck worker cannot be resynchronized: kill it and
                # let the failure retry as a death.
                channel.terminate_quietly()
                return WorkerError(
                    f"worker {rank} exceeded the resident round deadline "
                    f"({self.timeout:.0f}s) and was terminated",
                    rank=rank,
                )
            channel.join()  # dead: a final reply may still be buffered
        try:
            message = channel.recv()
        except (EOFError, OSError):
            channel.join()
            if attempt.expect[0][0] == _QUERY:
                where = "mid-batch"
            else:
                where = "during re-attach" if job.command == _QUERY else "during attach"
            return WorkerError(
                f"worker {rank} died {where} without reporting "
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
        attempt.expect.pop(0)
        if attempt.expect:
            # The replayed ATTACH answered: the command goes out now.
            attempt.anchor = time.monotonic()
            self._send(attempt)
            return None
        return message[1:]

    def _settle(self, job: RoundHandle, attempt: _Attempt, outcome) -> None:
        """Move ``attempt``'s rank on by one outcome: an answer, a hedge
        won or lost, or a failure for the retry rule."""
        rank = attempt.rank
        job.live.remove(attempt)
        failed = isinstance(outcome, WorkerError)
        if attempt.state == _HEDGED:
            del job.hedges[rank]
            primary = job.primary[rank]
            if failed:
                attempt.channel.stop()
                if self._tracer.enabled:
                    self._trace(job, "hedge.loss", rank, winner="none")
                if primary.state == _FAILED:  # deferred behind this hedge
                    self._apply_rule(job, primary)
                return
            # First answer wins: the hedge holds full attach state, so
            # it becomes the rank's resident worker; the straggler (or
            # its pending retry) is terminated.
            if primary in job.live:
                job.live.remove(primary)
            self._channels[rank].stop()
            self._channels[rank] = attempt.channel
            self._respawn_total += 1
            job.respawned += 1
            attempt.state = _PROMOTED
            job.primary[rank] = attempt
            if self._tracer.enabled:
                self._trace(job, "hedge.win", rank)
        elif failed:
            attempt.state, attempt.error = _FAILED, outcome
            job.tries[rank] += 1
            if len(attempt.expect) > 1:
                # Its replayed ATTACH failed: the worker holds no state
                # to run the command on.
                attempt.channel.terminate_quietly()
            self._apply_rule(job, attempt)
            return
        else:
            attempt.state = _ANSWERED
            hedge = job.hedges.pop(rank, None)
            if hedge is not None:
                job.live.remove(hedge)
                hedge.channel.stop()  # its late duplicate must never merge
                if self._tracer.enabled:
                    self._trace(job, "hedge.loss", rank, winner="original")
        job.results[rank], job.walls[rank], job.cpus[rank] = outcome
        if attempt.anchor is not None:
            job.sent[rank] = attempt.anchor - job.dispatched_at

    def _apply_rule(self, job: RoundHandle, attempt: _Attempt) -> None:
        """Carry out :func:`_decide` for a failed attempt."""
        rank, exc = attempt.rank, attempt.error
        tries = job.tries[rank]
        decision = _decide(
            tries, self.max_retries, rank in job.hedges, job.command,
            self.degraded_ok,
        )
        if decision == _DEFER:
            return  # decided again once the hedge cannot answer
        if decision == _RETRY:
            attempt.state = _RETRYING
            job.retries += 1
            delay = self.backoff_s * (2 ** (tries - 1))
            if self._tracer.enabled:
                self._trace(
                    job, "retry", rank, attempt=tries, command=job.command,
                    dead=not attempt.channel.alive,
                )
                self._trace(job, "backoff", rank, delay_s=delay)
            if delay > 0:
                time.sleep(delay)
            self._launch(job, rank).anchor = time.monotonic()
            return
        exc.rank, exc.retries = rank, tries - 1
        if decision == _DEGRADE:
            attempt.state = _DEGRADED
            job.degraded[rank] = exc
            if self._tracer.enabled:
                self._trace(job, "degraded.rank", rank, retries=exc.retries)
            return
        job.failed[rank] = exc
        if job.command == _ATTACH:
            # A failed attach may leave the worker alive on its OLD
            # state; kill it so its respawn replays the new payload.
            attempt.channel.terminate_quietly()

    def _trace(self, job: RoundHandle, kind: str, rank: int, **attrs) -> None:
        """Emit one supervision event (call only when tracing)."""
        batch = _payload_batch(job.payloads[rank])
        if batch is not None:
            attrs["batch"] = batch
        attrs["rank"] = rank
        self._tracer.event(kind, attrs)


def _by_rank(attempt: _Attempt) -> Tuple[int, bool]:
    """Supervision order: by rank, a rank's primary before its hedge."""
    return attempt.rank, attempt.state == _HEDGED


def _reap_pool(channels) -> None:
    """Finalizer body: terminate whatever is still running."""
    for channel in channels:
        if channel is not None:
            channel.stop()
