"""The real-process search engine: LBE on actual hardware.

Execution mirrors the simulated engine's Fig. 3/4 flow exactly — the
two engines share the planning code
(:func:`~repro.search.engine.make_lbe_plan`), the rank body
(:mod:`repro.search.rank`), and the master merge — but phases here
are real OS work:

1. **Serial prep (master).**  Group, partition, build the mapping
   table; preprocess every query spectrum once (deterministic and
   rank-independent, so replicating it per worker would only burn real
   CPU).
2. **Arena spill (master, once per engine).**  The fragment arena —
   with its bucket quantizations and sort orders already cached — is
   spilled to a :class:`~repro.parallel.shared_arena.SharedArenaStore`;
   workers reopen it read-only via ``np.memmap``, so the system holds
   one physical copy of the fragment data regardless of worker count.
3. **Scatter.**  Each worker's pickled task is only its entry-id
   manifest + the batch's flat columns + settings
   (O(entries/worker + peaks)).
4. **Parallel build + query (workers).**  Real processes run the
   shared rank body and report real wall/CPU seconds per phase.
5. **Gather & merge (master).**  Identical to the simulated engine's
   merge — same mapping table, same tie-breaking.

Results are **bit-identical** to the serial and simulated engines for
every partition policy and worker count (enforced by the equivalence
tests); ``phase_times`` and per-rank ``RankStats`` times are real
seconds rather than virtual ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.core.grouping import GroupingConfig
from repro.core.planner import LBEPlan
from repro.errors import ConfigurationError
from repro.index.slm import SLMIndexSettings
from repro.parallel.pool import ProcessBackend
from repro.parallel.shared_arena import (
    SharedArenaStore,
    SharedSpill,
    shared_spill_for,
)
from repro.parallel.worker import RankTask, search_rank_worker
from repro.search.database import IndexedDatabase
from repro.search.engine import make_lbe_plan
from repro.search.psm import RankStats, SearchResults
from repro.search.rank import merge_rank_payloads, rank_stats_from_report
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra
from repro.spectra.preprocess import PreprocessConfig, preprocess_batch

__all__ = ["ParallelEngineConfig", "ParallelSearchEngine"]


@dataclass(frozen=True, slots=True)
class ParallelEngineConfig:
    """Process-backend engine configuration.

    Attributes
    ----------
    n_workers:
        Real OS worker processes (the rank count).
    policy:
        Partition policy name: ``chunk`` / ``cyclic`` / ``random`` /
        ``lpt`` (``lpt`` assumes homogeneous workers here).
    policy_seed:
        Seed for the Random policy's shuffles.
    grouping:
        Algorithm 1 parameters.
    index:
        SLM index/query settings.
    preprocess:
        Query peak-picking settings.
    top_k:
        PSMs retained per spectrum.
    start_method:
        ``multiprocessing`` start method for the workers.
    timeout:
        Real-seconds deadline for the parallel phase.
    store_dir:
        Where to spill the shared arena.  ``None`` (default) uses the
        process-wide spill cache: engines over the same database share
        one temporary-directory spill, removed when the last holder is
        garbage-collected.  Pass a path to pin the spill somewhere
        explicit (it is then the caller's to clean up).
    """

    n_workers: int = 2
    policy: str = "cyclic"
    policy_seed: int = 0
    grouping: GroupingConfig = GroupingConfig()
    index: SLMIndexSettings = field(default_factory=SLMIndexSettings)
    preprocess: PreprocessConfig = PreprocessConfig()
    top_k: int = 5
    start_method: str = "spawn"
    timeout: float = 600.0
    store_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {self.top_k}")
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")


class ParallelSearchEngine:
    """Distributed peptide search on real processes over a shared arena.

    Parameters
    ----------
    database:
        The indexed database (the master's copy; workers see only the
        memmap-shared arena plus their manifests).
    config:
        Engine configuration.
    """

    def __init__(
        self, database: IndexedDatabase, config: ParallelEngineConfig
    ) -> None:
        self.database = database
        self.config = config
        self._plan: LBEPlan | None = None
        self._store: SharedArenaStore | None = None
        self._spill: SharedSpill | None = None

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

    # -- arena spill -----------------------------------------------------

    def _ensure_store(self) -> SharedArenaStore:
        """Spill the (fully quantized) arena once; reuse across engines.

        With the default ``store_dir=None``, the spill comes from the
        process-wide :func:`~repro.parallel.shared_arena.shared_spill_for`
        cache keyed by arena identity: every engine (and service) over
        the same :class:`IndexedDatabase` shares **one** tmpdir spill,
        held alive by plain refcounting on the
        :class:`~repro.parallel.shared_arena.SharedSpill` handle — the
        first engine's death cannot yank the memmaps out from under
        the second, and the last holder's death removes the tmpdir.

        A caller-supplied ``store_dir`` that already holds a store is
        **attached to, not re-spilled** — rewriting the files in place
        could tear the memmaps of workers still reading them.  A store
        whose shape doesn't match this database is rejected.
        """
        if self._store is None:
            cfg = self.config
            db = self.database
            if cfg.store_dir is not None:
                directory = Path(cfg.store_dir)
                if SharedArenaStore.exists(directory):
                    store = SharedArenaStore.open(directory)
                    if store.n_entries != db.n_entries:
                        raise ConfigurationError(
                            f"store at {directory} holds {store.n_entries} "
                            f"entries but the database has {db.n_entries}; "
                            "refusing to reuse it"
                        )
                    self._store = store
                    return self._store
                arena = db.arena_for(cfg.index.fragmentation)
                arena.buckets_for(cfg.index.resolution)
                arena.sort_order_for(cfg.index.resolution)
                self._store = SharedArenaStore.spill(arena, directory)
            else:
                arena = db.arena_for(cfg.index.fragmentation)
                self._spill = shared_spill_for(arena, cfg.index.resolution)
                self._store = self._spill.store
        return self._store

    # -- execution -------------------------------------------------------

    def run(self, spectra: Sequence[Spectrum]) -> SearchResults:
        """Search ``spectra``; returns merged results with real phase times."""
        cfg = self.config
        spectra = list(spectra)
        wall = time.perf_counter

        t_start = wall()
        plan = self.plan
        processed = preprocess_batch(spectra, cfg.preprocess)
        packed = PackedSpectra.from_spectra(processed)
        manifests = [
            np.asarray(plan.rank_global_ids(r), dtype=np.int64)
            for r in range(cfg.n_workers)
        ]
        prep_wall = wall() - t_start

        t0 = wall()
        store = self._ensure_store()
        spill_wall = wall() - t0

        tasks = [
            RankTask(
                store_dir=str(store.directory),
                entry_ids=manifests[r],
                settings=cfg.index,
                spectra=packed,
                top_k=cfg.top_k,
            )
            for r in range(cfg.n_workers)
        ]
        backend = ProcessBackend(
            cfg.n_workers,
            start_method=cfg.start_method,
            timeout=cfg.timeout,
        )
        t0 = wall()
        pres = backend.run(search_rank_worker, tasks)
        parallel_wall = wall() - t0

        t0 = wall()
        gathered = [(r["counts"], r["local_psms"]) for r in pres.results]
        merged, _n_psms = merge_rank_payloads(
            gathered, spectra, plan.mapping, cfg.top_k
        )
        merge_wall = wall() - t0

        all_stats: List[RankStats] = [
            rank_stats_from_report(r, report)
            for r, report in enumerate(pres.results)
        ]

        # Worker-side phases account for compute; the spawn/IPC cost of
        # the parallel section is everything the workers didn't see.
        worker_span = max(
            report["open_s"] + report["build_s"] + report["query_s"]
            for report in pres.results
        )
        phase_times = {
            "serial_prep": prep_wall,
            "spill": spill_wall,
            "build": max(s.build_time for s in all_stats),
            "query": max(s.query_time for s in all_stats),
            "query_cpu": max(s.query_cpu_time for s in all_stats),
            "gather": 0.0,  # folded into parallel_overhead (pipes drain as workers finish)
            "merge": merge_wall,
            "parallel_wall": parallel_wall,
            "parallel_overhead": max(0.0, parallel_wall - worker_span),
            "total": wall() - t_start,
        }

        return SearchResults(
            spectra=merged,
            rank_stats=all_stats,
            phase_times=phase_times,
            policy_name=cfg.policy,
            n_ranks=cfg.n_workers,
        )
