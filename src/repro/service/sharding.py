"""Sharded multi-pool serving tier: mass-range shards + a shard router.

One :class:`~repro.service.service.SearchService` is bounded by a
single resident pool's memory and cores; the paper's LBE plan balances
*within* that pool.  This module adds the HiCOPS-style step above it:
partition the **database itself** into contiguous precursor-mass
ranges (:class:`ShardPlan`), give every shard its own resident pool +
arena spill (an inner ``SearchService``), and route each batch's
spectra only to the shards whose mass range can intersect their
precursor windows (:class:`ShardedSearchService`) — the
communication-aware fan-out of the distributed-memory MS lower-bounds
line of work, composed from the PR 4–6 session contract.

Routing model (agrees exactly with flat filtration)
---------------------------------------------------
Shard boundaries live in the same numeric universe as the index:
per-shard mass extrema are float32-rounded entry masses widened to
float64 (exactly the :class:`~repro.index.arena.FragmentArena`
storage), and the shard predicate is the
:meth:`~repro.index.chunks.ChunkedIndex.chunks_for` difference form::

    shard s may hold candidates for nm ± tol
        iff  s.mass_max - nm >= -tol  and  s.mass_min - nm <= tol

Both comparisons run in float64 over float32-rounded endpoints — the
flat filter's own predicate (``|mass64 - nm| > tol``) applied to the
extrema — so a skipped shard provably contains **no** entry the flat
filter would keep, even exactly at window edges.  Open search (no
precursor tolerance) routes every spectrum to every shard.  Routing
therefore changes *where* filtration work happens, never *what* it
computes: merged results are bit-identical to the unsharded engine.

Bit-identity of the merge
-------------------------
Within each shard, member bases keep their **ascending global base-id
order**, so shard-local entry ids map to global entry ids through a
strictly increasing table (``DatabaseShard.entry_ids``).  The inner
engines' per-rank and per-shard top-K tie-breaks (score desc, entry id
asc) are then order-isomorphic to the global id space, and the fleet
merge — translate each shard's PSMs to global ids and batch rows, then
run the one product top-k merge
(:func:`~repro.search.rank.merge_top_k`) over the union — reproduces
the serial engine's selection exactly (global entry ids are disjoint
across shards, and the score arithmetic is untouched).  Demux checks
that each shard answered exactly the scan ids routed to it, in routed
order, before trusting batch positions.

Failure semantics (shard × fault → behavior)
--------------------------------------------
Per-shard supervision is the resident pool's matrix
(:mod:`repro.parallel.persistent`), applied inside each shard's pool;
this layer adds shard-level isolation on top.  With R =
``max_retries``:

=========================  =============================================
fault at shard level       observed behavior
=========================  =============================================
one rank of one shard      invisible for R >= 1 (the shard's pool
crashes / raises / hangs   retries only that rank's payload; batch
mid-batch                  bit-identical); for R = 0 without
                           ``degraded_ok`` the batch's future fails
                           with :class:`~repro.errors.ShardError`
                           naming the shard (chained to the pool's
                           :class:`~repro.errors.WorkerError`) — the
                           *session* survives, later batches heal on
                           respawned workers.
some ranks of a shard      partial shard coverage: the fleet mask
exhaust retries            ``degraded_ranks`` names them in the fleet
(``degraded_ok=True``)     rank space, where a shard's ranks come after
                           every live rank of the shards before it;
                           the shard still contributes its surviving
                           ranks' partitions.
every rank of a shard      the whole shard's mass range is lost:
exhausts retries, or its   ``degraded_shards`` names it (its ranks all
session breaks             appear in ``degraded_ranks``), results
(``degraded_ok=True``)     cover the remaining shards, and the TSV
                           report carries ``# degraded_shards:``.
shard not routed           not a fault: a batch whose windows cannot
                           reach a shard never dispatches to it
                           (counted in ``shards_skipped``), and a
                           spectrum reaching no shard reports zero
                           candidates — exactly the flat filter's
                           verdict.
sharded-session close      drains every inner session: all admitted
                           futures resolve deterministically.
=========================  =============================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServiceError, ShardError
from repro.index.arena import concat_ranges
from repro.index.slm import SLMIndexSettings
from repro.obs.ring import flight_dump
from repro.parallel.faults import FaultPlan
from repro.search.database import IndexedDatabase
from repro.search.psm import RankStats, SearchResults
from repro.search.rank import merge_top_k
from repro.service.service import (
    BatchStats,
    SearchService,
    ServiceConfig,
    SessionCore,
    _settle,
)
from repro.spectra.model import Spectrum

__all__ = [
    "DatabaseShard",
    "ShardPlan",
    "ShardedBatchStats",
    "ShardedSearchService",
]


@dataclass(slots=True)
class DatabaseShard:
    """One contiguous precursor-mass slice of an indexed database.

    Attributes
    ----------
    shard_id:
        Position in the plan (ascending mass ranges).
    database:
        A self-contained :class:`~repro.search.database.IndexedDatabase`
        over the shard's bases + entries — what the shard's inner
        service attaches, spills, and queries.
    base_ids / entry_ids:
        Global base / entry ids of the shard's members, **ascending** —
        ``entry_ids[local]`` is the strictly increasing local → global
        translation the fleet merge relies on for tie-break fidelity.
    mass_min / mass_max:
        Float32-rounded entry-mass extrema widened to float64 (the
        arena's numeric universe) — the routing predicate's endpoints.
        Ranges of neighbouring shards may overlap by up to one float32
        rounding step; that only costs routing selectivity, never
        correctness.
    """

    shard_id: int
    database: IndexedDatabase
    base_ids: np.ndarray
    entry_ids: np.ndarray
    mass_min: float
    mass_max: float

    @property
    def n_bases(self) -> int:
        """Base peptides in the shard."""
        return int(self.base_ids.size)

    @property
    def n_entries(self) -> int:
        """Index entries in the shard."""
        return int(self.entry_ids.size)


class ShardPlan:
    """Split an :class:`~repro.search.database.IndexedDatabase` into
    contiguous precursor-mass shards, and route spectra to them.

    Build with :meth:`from_database`; the plan validates that the
    shards are a disjoint cover of the entry space.  Shards split at
    **base-peptide** granularity (a base and all its modified variants
    stay together) so each shard is itself a well-formed database.
    """

    def __init__(self, database: IndexedDatabase, shards: List[DatabaseShard]) -> None:
        self.database = database
        self.shards = shards
        covered = np.sort(np.concatenate([s.entry_ids for s in shards]))
        if covered.size != database.n_entries or not np.array_equal(
            covered, np.arange(database.n_entries, dtype=np.int64)
        ):
            raise ConfigurationError(
                "shards are not a disjoint cover of the entry space"
            )

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @classmethod
    def from_database(
        cls,
        database: IndexedDatabase,
        n_shards: int,
        boundaries: Optional[Sequence[float]] = None,
    ) -> "ShardPlan":
        """Partition ``database`` into ``n_shards`` mass-range shards.

        Without ``boundaries``, bases are sorted by mass and the
        sorted sequence is cut into contiguous runs balanced by entry
        count (each cut adjusted so no shard is empty).  With
        ``boundaries`` — ``n_shards - 1`` ascending masses in Da — a
        base with mass ``>= boundaries[k]`` lands in shard ``k + 1``
        or later; every resulting shard must be non-empty.
        """
        n_bases = len(database.base_peptides)
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if n_shards > n_bases:
            raise ConfigurationError(
                f"cannot cut {n_bases} base peptides into {n_shards} "
                f"non-empty shards"
            )
        base_masses = np.array(
            [p.mass for p in database.base_peptides], dtype=np.float64
        )
        order = np.argsort(base_masses, kind="stable")
        offsets = np.asarray(database.entry_offsets, dtype=np.int64)
        counts = np.diff(offsets)
        if boundaries is not None:
            cuts_list = [float(b) for b in boundaries]
            if len(cuts_list) != n_shards - 1:
                raise ConfigurationError(
                    f"{n_shards} shards need {n_shards - 1} boundaries, "
                    f"got {len(cuts_list)}"
                )
            if any(b <= a for a, b in zip(cuts_list, cuts_list[1:])):
                raise ConfigurationError(
                    "shard boundaries must be strictly ascending"
                )
            # Mass-sorted bases cut at the boundary masses: the k-th
            # cut is the first sorted position whose base mass reaches
            # boundaries[k].
            sorted_masses = base_masses[order]
            cut_positions = [
                int(np.searchsorted(sorted_masses, b, side="left"))
                for b in cuts_list
            ]
        else:
            # Balance by entry count over the mass-sorted base runs.
            sorted_counts = counts[order]
            cum = np.cumsum(sorted_counts)
            total = int(cum[-1])
            targets = [
                total * (k + 1) / n_shards for k in range(n_shards - 1)
            ]
            cut_positions = [
                int(np.searchsorted(cum, t, side="left")) + 1 for t in targets
            ]
            # Keep every shard non-empty: cuts strictly increasing and
            # leaving room for the remaining shards.
            prev = 0
            for k in range(len(cut_positions)):
                c = max(cut_positions[k], prev + 1)
                c = min(c, n_bases - (n_shards - 1 - k))
                cut_positions[k] = c
                prev = c
        edges = [0, *cut_positions, n_bases]
        shards: List[DatabaseShard] = []
        for sid in range(n_shards):
            start, stop = edges[sid], edges[sid + 1]
            if stop <= start:
                raise ConfigurationError(
                    f"shard {sid} is empty (boundary masses leave it no "
                    f"base peptides)"
                )
            # Ascending global base-id order *within* the shard keeps
            # the local -> global entry-id map strictly increasing
            # (membership is still a contiguous run of the mass-sorted
            # base sequence) — the property the merge's tie-break
            # fidelity rests on.
            base_ids = np.sort(order[start:stop])
            entry_ids = concat_ranges(offsets[base_ids], offsets[base_ids + 1])
            entries = database.entries_at(entry_ids)
            shard_offsets = np.concatenate(
                ([0], np.cumsum(counts[base_ids]))
            ).astype(np.int64)
            shard_db = IndexedDatabase(
                [database.base_peptides[b] for b in base_ids],
                entries,
                shard_offsets,
            )
            # Extrema over the entries' float32-rounded masses, widened
            # back to float64: the exact values the shard's arena (and
            # the flat filter) will compare against.
            masses32 = np.array([p.mass for p in entries], dtype=np.float32)
            shards.append(
                DatabaseShard(
                    shard_id=sid,
                    database=shard_db,
                    base_ids=base_ids,
                    entry_ids=entry_ids,
                    mass_min=float(masses32.min()),
                    mass_max=float(masses32.max()),
                )
            )
        return cls(database, shards)

    def shards_for(self, neutral_mass: float, tolerance: Optional[float]) -> List[int]:
        """Shard ids that may hold candidates for ``neutral_mass ± tol``.

        ``None`` / infinite tolerance = open search = every shard.
        The windowed predicate is the chunked index's difference form
        (see the module docstring) — it can never skip a shard holding
        an entry the flat filter would keep.  A non-finite mass (only
        reachable by mutating a validated spectrum) can be proven
        outside no shard, so it too goes to every shard — whose master
        re-validates and refuses it — rather than silently to none.
        """
        if tolerance is None or np.isinf(tolerance) or not np.isfinite(neutral_mass):
            return [s.shard_id for s in self.shards]
        tol = float(tolerance)
        nm = neutral_mass
        return [
            s.shard_id
            for s in self.shards
            if s.mass_max - nm >= -tol and s.mass_min - nm <= tol
        ]

    def route(
        self, spectra: Sequence[Spectrum], settings: SLMIndexSettings
    ) -> List[List[int]]:
        """Per-shard lists of batch positions to dispatch.

        ``route(batch, settings)[s]`` are the indices into ``spectra``
        whose precursor windows intersect shard ``s``'s mass range —
        the shard's sub-batch, in original batch order.  Open search
        broadcasts every position to every shard.
        """
        routed: List[List[int]] = [[] for _ in self.shards]
        if settings.is_open_search:
            everyone = list(range(len(spectra)))
            return [list(everyone) for _ in self.shards]
        tol = float(settings.precursor_tolerance)  # type: ignore[arg-type]
        for i, spectrum in enumerate(spectra):
            for sid in self.shards_for(spectrum.neutral_mass, tol):
                routed[sid].append(i)
        return routed


@dataclass(slots=True)
class ShardedBatchStats(BatchStats):
    """Fleet-level :class:`BatchStats` plus per-shard breakdown.

    The inherited fields aggregate over the dispatched shards: wall
    phases (``preprocess_s`` / ``parallel_s``) take the
    **max** (the shards run concurrently), counters (``merge_s`` /
    ``scatter_bytes`` / ``peak_bytes`` / ``respawned`` / ``retries`` /
    ``hedged``) take the **sum**, and ``degraded_ranks`` is the
    flattened fleet mask: shard ``s``'s ranks come after every live
    rank of the shards before it.  ``total_s`` spans submit → merged
    at the sharded layer.  The inherited ``query_wall_s`` /
    ``query_cpu_s`` vectors cover the **full fleet rank space** in that
    same order, with 0.0 at the slots of skipped or wholly-failed
    shards (as many as the shard's live workers) — so the
    fleet-level LI properties read routing selectivity as imbalance
    by design (an undispatched shard *is* idle capacity).

    Attributes
    ----------
    shards_dispatched / shards_skipped:
        Shards this batch was sent to vs shards routing proved
        unreachable (dispatched + skipped = plan shards).
    degraded_shards:
        Shards whose entire mass range is missing from the batch's
        results.
    shard_stats:
        Per-shard inner :class:`BatchStats` (``None`` for skipped or
        wholly-failed shards), index = shard id.
    """

    shards_dispatched: int = 0
    shards_skipped: int = 0
    degraded_shards: Tuple[int, ...] = ()
    shard_stats: List[Optional[BatchStats]] = field(default_factory=list)


class _ShardedBatch:
    """One admitted batch's trip through the shard fan-out."""

    __slots__ = (
        "spectra", "routed", "future", "futures", "errors", "batch_index",
        "remaining", "ready", "depth", "t_submit",
    )

    def __init__(self, spectra: List[Spectrum], routed: List[List[int]]) -> None:
        self.spectra = spectra
        self.routed = routed
        self.future: Future = Future()
        self.futures: Dict[int, Future] = {}
        self.errors: Dict[int, BaseException] = {}
        self.batch_index = -1
        self.remaining = 0
        self.ready = False
        self.depth = 1
        self.t_submit = 0.0


class ShardedSearchService(SessionCore):
    """A routed fleet of per-shard resident sessions, one session API.

    Implements the :class:`~repro.service.service.SessionCore` contract
    that :class:`~repro.service.service.SearchService` implements:
    futures resolve strictly in submission order to ``(SearchResults,
    ShardedBatchStats)``, results are bit-identical to the unsharded
    engine, a failing batch fails only its own future, and ``close()``
    drains.  See the module docstring for the routing model and the
    shard-level failure matrix.

    Parameters
    ----------
    database:
        The full indexed database (sharded internally).
    config:
        Per-shard service configuration: each shard runs its own inner
        :class:`~repro.service.service.SearchService` with this config
        (``n_workers`` resident workers *per shard*,
        ``max_pending`` also bounds the sharded session's admission).
        A ``rebalance_li`` setting arms elastic rebalancing **per
        shard**: each inner session watches its own LI window and
        migrates / resizes its own pool independently
        (:attr:`rebalance_total` aggregates the fleet's migrations).
    n_shards:
        Mass-range shards to cut (1 is legal — a routed singleton).
    boundaries:
        Optional explicit shard boundary masses (Da), ascending,
        ``n_shards - 1`` of them; default balances entry counts.
    shard_fault_plans:
        Chaos-testing seam: one optional
        :class:`~repro.parallel.faults.FaultPlan` per shard,
        overriding ``config.fault_plan`` shard-by-shard (a single
        shared once-ledger plan would fire in whichever shard's worker
        claims it first — per-shard plans make chaos deterministic).
    """

    def __init__(
        self,
        database: IndexedDatabase,
        config: ServiceConfig = ServiceConfig(),
        *,
        n_shards: int = 2,
        boundaries: Optional[Sequence[float]] = None,
        shard_fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
    ) -> None:
        if shard_fault_plans is not None and len(shard_fault_plans) != n_shards:
            raise ConfigurationError(
                f"{len(shard_fault_plans)} shard fault plans for "
                f"{n_shards} shards"
            )
        # Fleet flight recorder: one shared ring for the whole fleet —
        # each inner service records through a shard-bound view, so a
        # black box interleaves every shard's timeline in arrival order.
        super().__init__(config)
        self.database = database
        self.plan = ShardPlan.from_database(database, n_shards, boundaries)
        self._shard_fault_plans = (
            list(shard_fault_plans) if shard_fault_plans is not None else None
        )
        self._services: List[SearchService] = []
        self._opened = False
        # Reentrant: inner futures' done-callbacks (inner pipeline
        # threads) and submit_async (caller thread) both take it, and
        # an inner future that is already done invokes its callback
        # synchronously inside submit_async.
        self._lock = threading.RLock()
        self._pending: deque[_ShardedBatch] = deque()
        self._dispatch_total = 0
        self._skip_total = 0

    @property
    def n_shards(self) -> int:
        """Shards in the fleet."""
        return self.plan.n_shards

    # -- lifecycle -------------------------------------------------------

    def open(self) -> "ShardedSearchService":
        """Open every shard's inner session (spawn + spill + attach).

        Returns the session.  Idempotent.  A shard that fails to open raises
        :class:`~repro.errors.ShardError` (chained to the underlying
        cause) after the already-opened shards are closed again.
        """
        if self._opened:
            return self
        if self._closed:
            raise ServiceError("sharded service is closed; cannot reopen")
        t0 = time.perf_counter()
        for shard in self.plan.shards:
            cfg = self.config
            if self._shard_fault_plans is not None:
                cfg = replace(cfg, fault_plan=self._shard_fault_plans[shard.shard_id])
            if self._tracer.enabled:
                # Every inner-service record carries its shard id (the
                # fleet ring counts as a tracer here, so inner
                # services share it instead of installing their own
                # rings); the no-op tracer binds to itself, so this
                # replace is skipped entirely when tracing is off.
                cfg = replace(
                    cfg, tracer=self._tracer.bind(shard=shard.shard_id)
                )
            service = SearchService(shard.database, cfg)
            try:
                service.open()
            except BaseException as exc:
                service.close()
                for opened in self._services:
                    opened.close()
                self._services = []
                self._closed = True
                failure = ShardError(
                    f"shard {shard.shard_id} failed to open: {exc}",
                    shard=shard.shard_id,
                    rank=getattr(exc, "rank", None),
                    retries=getattr(exc, "retries", 0),
                )
                failure.flight_record = flight_dump(
                    self._ring, self.config.flight_dir, "shard-open-failure"
                )
                raise failure from exc
            self._services.append(service)
        self._open_s = time.perf_counter() - t0
        self._opened = True
        if self._tracer.enabled:
            self._tracer.event(
                "session.open",
                {
                    "n_workers": self.n_shards * self.config.n_workers,
                    "n_shards": self.n_shards,
                    "open_s": round(self._open_s, 6),
                    "fleet": True,
                },
            )
        return self

    def close(self) -> None:
        """Drain and shut every shard's session down; idempotent.

        Inner sessions drain their admitted batches, which completes
        every outstanding sharded future (via the done-callbacks)
        before the workers shut down.
        """
        if self._closed:
            return
        self._closed = True  # reject new submits before draining
        # No outer lock here: draining an inner session runs its
        # pipeline thread to completion, and that thread takes the
        # outer lock inside our done-callbacks.
        for service in self._services:
            service.close()
        # Defensive: a batch that somehow never resolved (all its
        # shards were skipped but close raced the drain) fails loud
        # rather than hanging its caller.
        with self._lock:
            self._drain_ready_locked()
            leftovers = list(self._pending)
            self._pending.clear()
        for batch in leftovers:
            _settle(batch.future, ServiceError("sharded service closed mid-batch"))
        if self._opened and self._tracer.enabled:
            self._tracer.event(
                "session.close",
                {"n_batches": self._n_batches, "fleet": True},
            )

    # -- submission ------------------------------------------------------

    def _admit(self, spectra: List[Spectrum]) -> Future:
        """Route one admitted batch to the shards it reaches; fan out."""
        t_route = time.perf_counter()
        routed = self.plan.route(spectra, self.config.index)
        batch = _ShardedBatch(spectra, routed)
        batch.t_submit = time.perf_counter()
        with self._lock:
            if self._closed:
                self._admission.release()
                raise ServiceError(
                    "sharded service was closed while this submit was "
                    "being admitted"
                )
            batch.batch_index = self._n_submitted
            self._n_submitted += 1
            self._n_pending += 1
            batch.depth = self._n_pending
            self._pending.append(batch)
            dispatched = 0
            for sid, positions in enumerate(routed):
                if not positions:
                    continue
                dispatched += 1
                sub_batch = [spectra[i] for i in positions]
                try:
                    inner = self._services[sid].submit_async(sub_batch)
                except BaseException as exc:  # noqa: BLE001 - isolated per shard
                    batch.errors[sid] = exc
                    continue
                batch.futures[sid] = inner
            self._dispatch_total += dispatched
            self._skip_total += self.n_shards - dispatched
            batch.remaining = len(batch.futures)
            if batch.remaining == 0:
                batch.ready = True
            # Register after the bookkeeping: an already-done inner
            # future fires its callback synchronously on this thread —
            # the RLock makes that safe.
            for sid, inner in batch.futures.items():
                inner.add_done_callback(
                    lambda fut, b=batch: self._shard_done(b)
                )
            self._drain_ready_locked()
        if self._tracer.enabled:
            self._tracer.span(
                "route",
                t_route,
                time.perf_counter() - t_route,
                {
                    "batch": batch.batch_index,
                    "dispatched": dispatched,
                    "skipped": self.n_shards - dispatched,
                },
            )
        return batch.future

    # -- resolution (runs on inner pipeline threads) ---------------------

    def _shard_done(self, batch: _ShardedBatch) -> None:
        with self._lock:
            batch.remaining -= 1
            if batch.remaining == 0:
                batch.ready = True
            self._drain_ready_locked()

    def _drain_ready_locked(self) -> None:
        """Resolve ready batches from the head — submission order."""
        while self._pending and self._pending[0].ready:
            batch = self._pending.popleft()
            self._n_pending -= 1
            self._admission.release()
            self._finalize(batch)

    def _finalize(self, batch: _ShardedBatch) -> None:
        shard_results: List[Optional[SearchResults]] = [None] * self.n_shards
        shard_stats: List[Optional[BatchStats]] = [None] * self.n_shards
        errors: Dict[int, BaseException] = dict(batch.errors)
        for sid, inner in batch.futures.items():
            exc = inner.exception()
            if exc is not None:
                errors[sid] = exc
            else:
                shard_results[sid], shard_stats[sid] = inner.result()
        if errors and not self.config.degraded_ok:
            sid = min(errors)
            cause = errors[sid]
            summary = str(cause).splitlines()[0] if str(cause) else repr(cause)
            failure = ShardError(
                f"shard {sid} failed batch {batch.batch_index}: {summary}",
                shard=sid,
                rank=getattr(cause, "rank", None),
                retries=getattr(cause, "retries", 0),
            )
            failure.__cause__ = cause
            # Black-box the fleet's last seconds: the shared ring holds
            # every shard's supervision timeline around the fault.
            failure.flight_record = flight_dump(
                self._ring,
                self.config.flight_dir,
                "shard-batch-error",
                batch=batch.batch_index,
            )
            _settle(batch.future, failure)
            return
        try:
            results, stats = self._merge(batch, shard_results, shard_stats, errors)
        except BaseException as exc:  # noqa: BLE001 - routed to the future
            _settle(batch.future, exc)
            return
        self._record(stats)
        _settle(batch.future, (results, stats))

    # -- the fleet merge -------------------------------------------------

    def _merge(
        self,
        batch: _ShardedBatch,
        shard_results: List[Optional[SearchResults]],
        shard_stats: List[Optional[BatchStats]],
        errors: Dict[int, BaseException],
    ) -> Tuple[SearchResults, ShardedBatchStats]:
        cfg = self.config
        spectra = batch.spectra
        wall = time.perf_counter
        t_merge = wall()
        n_spectra = len(spectra)
        # Each shard's PSMs become one columnar block in global ids and
        # batch rows, demuxed by position after checking that the
        # shard answered exactly its routed scans, in routed order.
        n_candidates = np.zeros(n_spectra, np.int64)
        parts = []
        for sid, res in enumerate(shard_results):
            if res is None:
                continue
            positions = batch.routed[sid]
            routed_scans = [spectra[i].scan_id for i in positions]
            if [sr.scan_id for sr in res.spectra] != routed_scans:
                raise ShardError(
                    f"shard {sid} returned results for scans that do not "
                    f"match its {len(positions)} routed spectra",
                    shard=sid,
                )
            rows = np.asarray(positions, np.int64)
            n_candidates[rows] += [sr.n_candidates for sr in res.spectra]
            psms = [psm for sr in res.spectra for psm in sr.psms]
            local = np.fromiter((p.entry_id for p in psms), np.int64, len(psms))
            parts.append((
                self.plan.shards[sid].entry_ids[local],
                np.fromiter((p.score for p in psms), np.float64, len(psms)),
                np.fromiter((p.shared_peaks for p in psms), np.int64, len(psms)),
                np.repeat(rows, [len(sr.psms) for sr in res.spectra]),
            ))
        merged, _n_psms = merge_top_k(
            parts, n_candidates, [s.scan_id for s in spectra], cfg.top_k
        )
        # The fleet rank space: shard s's ranks follow every live rank
        # of the shards before it.  A dispatched shard brings the ranks
        # its round ran on; a skipped or failed one its live pool size,
        # as zeroed stats.  A shard is degraded when all its ranks are.
        fleet_stats: List[RankStats] = []
        degraded_ranks: List[int] = []
        degraded_shards: List[int] = []
        for sid, res in enumerate(shard_results):
            first = len(fleet_stats)
            if res is not None:
                fleet_stats.extend(
                    replace(stats, rank=first + r)
                    for r, stats in enumerate(res.rank_stats)
                )
                degraded = [first + r for r in res.degraded_ranks]
            else:
                width = self._services[sid].n_workers
                fleet_stats.extend(
                    RankStats(rank=first + r) for r in range(width)
                )
                degraded = list(range(first, first + width) if sid in errors else ())
            degraded_ranks.extend(degraded)
            if degraded and len(degraded) == len(fleet_stats) - first:
                degraded_shards.append(sid)
        merge_s = wall() - t_merge
        total_s = wall() - batch.t_submit
        live = [s for s in shard_stats if s is not None]

        def smax(attr: str) -> float:
            return max((getattr(s, attr) for s in live), default=0.0)

        def ssum(attr: str) -> Any:
            return sum(getattr(s, attr) for s in live)

        def pmax(key: str) -> float:
            return max(
                (
                    r.phase_times.get(key, 0.0)
                    for r in shard_results
                    if r is not None
                ),
                default=0.0,
            )

        phase_times = {
            "serial_prep": pmax("serial_prep"),
            "build": 0.0,
            "query": pmax("query"),
            "query_cpu": pmax("query_cpu"),
            "gather": pmax("gather"),
            "merge": sum(
                r.phase_times.get("merge", 0.0)
                for r in shard_results
                if r is not None
            )
            + merge_s,
            "parallel_wall": pmax("parallel_wall"),
            "parallel_overhead": pmax("parallel_overhead"),
            "total": total_s,
        }
        results = SearchResults(
            spectra=merged,
            rank_stats=fleet_stats,
            phase_times=phase_times,
            policy_name=cfg.policy,
            n_ranks=len(fleet_stats),
            degraded_ranks=tuple(degraded_ranks),
            degraded_shards=tuple(degraded_shards),
        )
        dispatched = sum(1 for positions in batch.routed if positions)
        stats = ShardedBatchStats(
            batch_index=batch.batch_index,
            n_spectra=n_spectra,
            preprocess_s=smax("preprocess_s"),
            parallel_s=smax("parallel_s"),
            merge_s=ssum("merge_s") + merge_s,
            total_s=total_s,
            query_wall_s=tuple(s.query_time for s in fleet_stats),
            query_cpu_s=tuple(s.query_cpu_time for s in fleet_stats),
            scatter_bytes=int(ssum("scatter_bytes")),
            peak_bytes=int(ssum("peak_bytes")),
            respawned=int(ssum("respawned")),
            wait_s=smax("wait_s"),
            pipeline_depth=batch.depth,
            collect_wait_s=smax("collect_wait_s"),
            overlap_s=ssum("overlap_s"),
            retries=int(ssum("retries")),
            hedged=int(ssum("hedged")),
            degraded_ranks=results.degraded_ranks,
            shards_dispatched=dispatched,
            shards_skipped=self.n_shards - dispatched,
            degraded_shards=results.degraded_shards,
            shard_stats=shard_stats,
        )
        m = cfg.metrics
        m.counter("fleet.shards_dispatched").inc(dispatched)
        m.counter("fleet.shards_skipped").inc(self.n_shards - dispatched)
        if self._tracer.enabled:
            tracer = self._tracer
            tracer.span(
                "demux", t_merge, merge_s, {"batch": batch.batch_index}
            )
            for sid in degraded_shards:
                tracer.event(
                    "degraded.shard",
                    {"shard": sid, "batch": batch.batch_index},
                )
        # A degraded shard's ranks are all in degraded_ranks, so the
        # publisher's degraded-batch rule covers lost shards too.
        self._publish(
            "fleet",
            stats,
            fleet=True,
            shards_dispatched=dispatched,
            shards_skipped=self.n_shards - dispatched,
        )
        return results, stats

    # -- introspection ---------------------------------------------------

    @property
    def is_open(self) -> bool:
        """True between a successful ``open()`` and ``close()``."""
        return self._opened and not self._closed

    @property
    def attach_s(self) -> float:
        """Summed inner attach seconds across the shards."""
        return sum(s.attach_s for s in self._services)

    @property
    def respawn_total(self) -> int:
        """Workers respawned across every shard's pool."""
        return sum(s.respawn_total for s in self._services)

    @property
    def rebalance_total(self) -> int:
        """Elastic migrations applied across the fleet: with
        ``rebalance_li`` set on the per-shard config, every shard runs
        its **own** :class:`~repro.service.rebalance.RebalancePolicy`
        over its own pool, so a slow host under one shard migrates
        that shard alone."""
        return sum(s.rebalance_total for s in self._services)

    @property
    def n_workers_total(self) -> int:
        """Live resident workers across the fleet (elastic resizes
        move this off ``n_shards × config.n_workers``)."""
        return sum(s.n_workers for s in self._services)

    @property
    def shard_dispatch_total(self) -> int:
        """Lifetime count of (batch, shard) dispatches actually sent."""
        return self._dispatch_total

    @property
    def shard_skip_total(self) -> int:
        """Lifetime count of (batch, shard) dispatches routing skipped."""
        return self._skip_total

    @property
    def services(self) -> List[SearchService]:
        """The inner per-shard sessions (read-only introspection)."""
        return list(self._services)

    def worker_pids(self) -> List[Optional[int]]:
        """Flat fleet PIDs: shard 0's ranks, then shard 1's, ..."""
        pids: List[Optional[int]] = []
        for service in self._services:
            pids.extend(service.worker_pids())
        return pids
