"""The one-shot real-process search engine: a session for one batch.

:meth:`ParallelSearchEngine.run` is exactly what it looks like from
the outside — open a :class:`~repro.service.service.SearchService`,
``submit`` the batch, close:

1. **Open.**  Plan (group, partition, mapping table), spill the
   fragment arena through the process-wide spill cache (one physical
   copy, reopened read-only via ``np.memmap`` by every worker), spawn
   the resident pool and ATTACH every rank — its partial index is
   built there, from its entry-id manifest.
2. **Submit.**  Preprocess the batch once on the master, pack it into
   flat columns, run one QUERY round (the shared
   :mod:`repro.search.rank` body), merge with the simulated engine's
   mapping table and tie-breaking.
3. **Close.**  Shut the workers down.

The spawn arguments are only ``(rank, n_workers, fault_plan)``; the
manifests and the batch travel over the pool's deadline-supervised
command pipe, so a worker that dies during bootstrap surfaces as a
:class:`~repro.errors.WorkerError` instead of blocking ``spawn``.

Results are **bit-identical** to the serial and simulated engines for
every partition policy and worker count.  ``phase_times`` and per-rank
``RankStats`` times are real seconds; ``build`` is the slowest rank's
attach-time index build, ``open`` the session's :attr:`open_s`, and
``total`` spans open through close — the whole one-shot cost.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.search.database import IndexedDatabase
from repro.search.psm import RankStats, SearchResults
from repro.service.service import SearchService, ServiceConfig
from repro.spectra.model import Spectrum

__all__ = ["ParallelSearchEngine"]


class ParallelSearchEngine:
    """Distributed peptide search on real processes, one batch per run.

    Parameters
    ----------
    database:
        The indexed database (the master's copy; workers see only the
        memmap-shared arena plus their manifests).
    config:
        Session configuration; every run opens a fresh session with it.
    """

    def __init__(
        self, database: IndexedDatabase, config: ServiceConfig = ServiceConfig()
    ) -> None:
        self.database = database
        self.config = config

    def run(self, spectra: Sequence[Spectrum]) -> SearchResults:
        """Search ``spectra``; returns merged results with real phase times."""
        spectra = list(spectra)
        cfg = self.config
        if not spectra:
            # Nothing to search: no worker needs to exist.
            return SearchResults(
                spectra=[],
                rank_stats=[RankStats(rank=r) for r in range(cfg.n_workers)],
                phase_times={},
                policy_name=cfg.policy,
                n_ranks=cfg.n_workers,
            )
        t_start = time.perf_counter()
        with SearchService(self.database, cfg) as service:
            results, _stats = service.submit(spectra)
        results.phase_times.update(
            open=service.open_s,
            build=max(s.build_time for s in results.rank_stats),
            total=time.perf_counter() - t_start,
        )
        return results
