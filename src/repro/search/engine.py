"""The distributed search engine (LBDSLIM over the simulated cluster).

Execution follows the paper's Fig. 3/4 flow:

1. **Serial prep (master).**  Group base sequences (Algorithm 1),
   expand to entry space, partition with the configured policy, build
   the mapping table; virtual cost charged to rank 0.
2. **Manifest scatter.**  Rank 0 scatters each rank's global-entry-id
   manifest: a ledger :func:`~repro.mpi.simtime.scatter` charges the
   root one tree collective and starts every other rank at its
   departure.
3. **Partial index build (parallel).**  Each rank builds an SLM index
   over its entries and discards everything else; a ledger
   :func:`~repro.mpi.simtime.barrier` ends the phase.
4. **Distributed querying (parallel).**  Every rank preprocesses and
   searches *all* query spectra against its partial index, tracking
   work counters; per-rank query-phase virtual durations are the load
   imbalance inputs (Fig. 6).
5. **Gather & merge (master).**  Ranks send per-spectrum candidate
   counts and local-id top-k matches, charged by a ledger
   :func:`~repro.mpi.simtime.gather`; the master maps local → global
   ids through the O(1) mapping table and merges top-k lists.

The ranks really run one after another in the calling thread: each
builds its index, searches, keeps only its work counters and payload,
and drops the index before the next rank starts.  Virtual time is then
charged from those counters, clock by clock, with the collectives as
closed-form updates of the clock list — so peak memory is one rank's
index, not ``n_ranks`` of them.

The distributed result is bit-identical to the serial engine's (same
candidates, scores, tie-breaking) for every policy and rank count —
enforced by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.planner import LBEPlan, SearchParams, make_lbe_plan
from repro.errors import ConfigurationError
from repro.index.arena import FragmentArena
from repro.mpi.simtime import (
    CommCostModel,
    VirtualClock,
    barrier,
    gather,
    payload_nbytes,
    scatter,
)
from repro.search.costs import QueryCostModel, SerialCostModel
from repro.search.database import IndexedDatabase
from repro.search.psm import RankStats, SearchResults
from repro.search.rank import (
    RankPayload,
    RankQueryOutput,
    build_rank_index,
    merge_rank_payloads,
    run_rank_queries,
)
from repro.spectra.model import Spectrum
from repro.spectra.preprocess import preprocess_batch
from repro.util.rng import rng_from

__all__ = ["EngineConfig", "DistributedSearchEngine"]


@dataclass(frozen=True, slots=True)
class EngineConfig(SearchParams):
    """Distributed engine configuration: the shared
    :class:`~repro.core.planner.SearchParams` plus the simulated
    cluster.

    Attributes
    ----------
    n_ranks:
        MPI process count ``p``.  Under ``lpt`` each rank is weighted
        by its machine speed.
    query_costs / serial_costs:
        Virtual cost models.
    comm:
        Communication cost model of the ledger collectives.
    machine_jitter:
        Relative per-rank CPU speed spread (Gaussian σ).  The paper's
        cluster machines were only "nearly symmetrical" (Section
        V-A.4); this residual heterogeneity is what floors the
        balanced policies' imbalance at ~10–15 % instead of ~0.
        Set 0.0 for a perfectly homogeneous cluster.
    machine_seed:
        Seed of the per-rank speed draws (policy-independent, so every
        policy faces the same machines).
    cores_per_rank:
        Cores available to each MPI process for the hybrid
        OpenMP + MPI mode the paper announces as future work (§VIII).
        Parallel-phase compute charges (index build, filtration,
        scoring) are divided by the intra-rank Amdahl speedup; serial
        prep, preprocessing bookkeeping, and communication are not.
    intra_serial_fraction:
        Serial fraction of the *within-rank* work for the intra-rank
        Amdahl model (shared-memory engines parallelize the query loop
        almost perfectly; default 5 %).
    """

    n_ranks: int = 4
    query_costs: QueryCostModel = QueryCostModel()
    serial_costs: SerialCostModel = SerialCostModel()
    comm: CommCostModel = CommCostModel()
    machine_jitter: float = 0.07
    machine_seed: int = 1234
    cores_per_rank: int = 1
    intra_serial_fraction: float = 0.05

    def __post_init__(self) -> None:
        SearchParams.__post_init__(self)
        if self.n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.machine_jitter < 0:
            raise ConfigurationError(
                f"machine_jitter must be >= 0, got {self.machine_jitter}"
            )
        if self.cores_per_rank < 1:
            raise ConfigurationError(
                f"cores_per_rank must be >= 1, got {self.cores_per_rank}"
            )
        if not 0.0 <= self.intra_serial_fraction <= 1.0:
            raise ConfigurationError(
                "intra_serial_fraction must be in [0,1], got "
                f"{self.intra_serial_fraction}"
            )

    @property
    def intra_rank_speedup(self) -> float:
        """Amdahl speedup of one rank's ``cores_per_rank`` cores."""
        c, s = self.cores_per_rank, self.intra_serial_fraction
        return 1.0 / (s + (1.0 - s) / c)

    def machine_speed(self, rank: int) -> float:
        """Relative compute-cost multiplier of ``rank`` (1.0 = nominal).

        Drawn once per rank from ``N(1, machine_jitter)``, floored at
        0.5; a value of 1.1 means the rank takes 10 % longer for the
        same work.
        """
        if self.machine_jitter == 0.0:
            return 1.0
        draw = float(rng_from(self.machine_seed, "machine", rank).standard_normal())
        return max(0.5, 1.0 + self.machine_jitter * draw)


class DistributedSearchEngine:
    """Distributed peptide search with LBE data distribution.

    Parameters
    ----------
    database:
        The indexed database (shared knowledge; each rank only *keeps*
        its own partition, as in the paper).
    config:
        Engine configuration.
    """

    def __init__(self, database: IndexedDatabase, config: EngineConfig) -> None:
        self.database = database
        self.config = config
        self._plan: LBEPlan | None = None

    # -- planning --------------------------------------------------------

    @property
    def plan(self) -> LBEPlan:
        """The LBE distribution plan (computed lazily, cached)."""
        if self._plan is None:
            self._plan = self._make_plan()
        return self._plan

    def _make_plan(self) -> LBEPlan:
        """The shared LBE plan, with ``lpt`` speeds from the machine model.

        ``machine_speed`` is a cost *multiplier*, so the predictive
        policy sees ``speed = 1 / multiplier``.
        """
        cfg = self.config
        return make_lbe_plan(
            self.database,
            n_ranks=cfg.n_ranks,
            policy=cfg.policy,
            policy_seed=cfg.policy_seed,
            grouping=cfg.grouping,
            rank_speeds=[
                1.0 / cfg.machine_speed(r) for r in range(cfg.n_ranks)
            ],
        )

    # -- execution ---------------------------------------------------------

    def run(self, spectra: Sequence[Spectrum]) -> SearchResults:
        """Search ``spectra``; returns merged results with phase times."""
        db = self.database
        cfg = self.config
        plan = self.plan
        spectra = list(spectra)
        # Each rank quantizes and sorts only its own sub-arena.
        arena = db.arena_for(cfg.index.fragmentation)
        # Every rank preprocesses every query (charged to its clock);
        # the computation is deterministic and rank-independent, so the
        # real work is hoisted out of the rank loop and shared.
        processed_spectra = preprocess_batch(spectra, cfg.preprocess)
        manifests = [
            np.asarray(plan.rank_global_ids(r), dtype=np.int64)
            for r in range(cfg.n_ranks)
        ]
        # Phases 3-4 for real, one rank at a time.
        ranks = [
            _run_rank(arena, rank, ids, processed_spectra, cfg)
            for rank, ids in enumerate(manifests)
        ]
        all_stats = [stats for stats, _ in ranks]
        outputs = [out for _, out in ranks]

        # Virtual time.  Compute-cost multiplier per rank: machine speed
        # (heterogeneity) over the hybrid intra-rank speedup (§VIII).
        clocks = [VirtualClock() for _ in range(cfg.n_ranks)]
        speeds = [
            cfg.machine_speed(r) / cfg.intra_rank_speedup
            for r in range(cfg.n_ranks)
        ]
        costs = cfg.query_costs

        # Phase 1: serial prep on the master.  Phase 2: manifest scatter.
        prep = cfg.serial_costs.prep_cost(db.n_entries, db.n_bases)
        clocks[0].advance(prep)
        scatter(clocks, sum(payload_nbytes(m) for m in manifests), cfg.comm)

        # Phase 3: partial index build, closed by a barrier.
        starts = [clock.now for clock in clocks]
        for clock, speed, stats in zip(clocks, speeds, all_stats):
            clock.advance(costs.build_cost(stats.n_entries, stats.n_ions) * speed)
        barrier(clocks)
        for clock, t0, stats in zip(clocks, starts, all_stats):
            stats.build_time = clock.now - t0

        # Phase 4: querying, charged spectrum by spectrum from the rank
        # body's work counters.
        for clock, speed, stats, out in zip(clocks, speeds, all_stats, outputs):
            t0 = clock.now
            for si in range(len(spectra)):
                clock.advance(costs.per_spectrum_preprocess * speed)
                clock.advance(
                    costs.filter_cost_counts(
                        int(out.buckets_scanned[si]), int(out.ions_scanned[si])
                    )
                    * speed
                )
                clock.advance(
                    costs.scoring_cost_counts(
                        int(out.candidates_scored[si]),
                        int(out.residues_scored[si]),
                    )
                    * speed
                )
            stats.query_time = clock.now - t0

        # Phase 5: gather to the master, then merge there.
        payloads: List[RankPayload] = [out.payload for out in outputs]
        starts = [clock.now for clock in clocks]
        # Charged at the per-spectrum list-of-arrays wire size the
        # virtual-time model (and its pinned figures) was calibrated on.
        nbytes = [payload_nbytes((counts, list(psms))) for counts, psms in payloads]
        gather(clocks, nbytes, cfg.comm)
        for clock, t0, stats in zip(clocks, starts, all_stats):
            stats.comm_time = clock.now - t0
        merged, n_psms = merge_rank_payloads(
            payloads, spectra, plan.mapping, cfg.top_k
        )
        clocks[0].advance(cfg.serial_costs.merge_cost(n_psms))

        total_psms = sum(len(sr.psms) for sr in merged)
        phase_times = {
            "serial_prep": prep,
            "build": max(s.build_time for s in all_stats),
            "query": max(s.query_time for s in all_stats),
            "gather": max(s.comm_time for s in all_stats),
            "merge": cfg.serial_costs.merge_cost(total_psms),
            "total": clocks[0].now,
        }

        return SearchResults(
            spectra=merged,
            rank_stats=all_stats,
            phase_times=phase_times,
            policy_name=cfg.policy,
            n_ranks=cfg.n_ranks,
        )


def _run_rank(
    arena: FragmentArena,
    rank: int,
    entry_ids: np.ndarray,
    spectra: Sequence[Spectrum],
    cfg: EngineConfig,
) -> Tuple[RankStats, RankQueryOutput]:
    """One rank's real work: partial index build, then every query.

    The backend-agnostic body carves a sub-arena in C from the shared
    arena (fragments and masses travel with the manifest) and builds
    the partial index over it, quantizing and sorting only its own
    ions.  Only
    the work counters and the query output leave this function, so the
    index and sub-arena are freed before the next rank builds its own.
    """
    sub_arena, index = build_rank_index(arena, entry_ids, cfg.index)
    out = run_rank_queries(index, sub_arena, entry_ids, spectra, top_k=cfg.top_k)
    stats = RankStats(
        rank=rank,
        n_entries=len(index),
        n_ions=index.n_ions,
        buckets_scanned=int(out.buckets_scanned.sum()),
        ions_scanned=int(out.ions_scanned.sum()),
        candidates_scored=int(out.candidates_scored.sum()),
        residues_scored=int(out.residues_scored.sum()),
    )
    return stats, out

