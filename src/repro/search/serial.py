"""Shared-memory reference engine (the original SLM-Transform role).

One index over the whole database, one pseudo-rank.  Serves three
purposes:

* ground truth the distributed engine must reproduce exactly (tests),
* the shared-memory baseline of the memory comparison (Fig. 5),
* the single-CPU reference point of speedup computations.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.index.arena import thread_workspace
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.costs import QueryCostModel, SerialCostModel
from repro.search.database import IndexedDatabase
from repro.search.psm import PSM, RankStats, SearchResults, SpectrumResult
from repro.search.scoring import score_many
from repro.spectra.model import Spectrum
from repro.spectra.preprocess import PreprocessConfig, preprocess_batch
from repro.errors import ConfigurationError
from repro.util.heap import release_heap

__all__ = ["SerialSearchEngine"]


def top_k_psms(
    scan_id: int,
    entry_ids: np.ndarray,
    scores: np.ndarray,
    shared: np.ndarray,
    k: int,
) -> List[PSM]:
    """Top-``k`` PSMs by (score desc, entry id asc) — deterministic."""
    if entry_ids.size == 0:
        return []
    order = np.lexsort((entry_ids, -scores))[:k]
    return [
        PSM(
            scan_id=scan_id,
            entry_id=int(entry_ids[i]),
            score=float(scores[i]),
            shared_peaks=int(shared[i]),
        )
        for i in order
    ]


class SerialSearchEngine:
    """Single-node search over the full database.

    Parameters
    ----------
    database:
        The indexed database.
    settings:
        SLM index/query settings.
    query_costs / serial_costs:
        Virtual cost models (defaults match the distributed engine, so
        serial vs distributed virtual times are comparable).
    top_k:
        PSMs retained per spectrum.
    """

    def __init__(
        self,
        database: IndexedDatabase,
        settings: SLMIndexSettings = SLMIndexSettings(),
        *,
        query_costs: QueryCostModel = QueryCostModel(),
        serial_costs: SerialCostModel = SerialCostModel(),
        top_k: int = 5,
    ) -> None:
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self.database = database
        self.settings = settings
        self.query_costs = query_costs
        self.serial_costs = serial_costs
        self.top_k = top_k
        self._index: SLMIndex | None = None

    @property
    def index(self) -> SLMIndex:
        """The full index, built lazily and cached.

        The build's bucket ids and sort order die with it, and the
        freed pages go back to the OS
        (:func:`~repro.util.heap.release_heap`).
        """
        if self._index is None:
            self._index = SLMIndex(
                self.database.arena_for(self.settings.fragmentation), self.settings
            )
            release_heap()
        return self._index

    def run(
        self,
        spectra: Sequence[Spectrum],
        preprocess: PreprocessConfig = PreprocessConfig(),
    ) -> SearchResults:
        """Search every spectrum; return results with virtual timing."""
        db = self.database
        prep_time = self.serial_costs.prep_cost(db.n_entries, db.n_bases)
        # Hoisted out of the per-spectrum loop: one arena lookup for
        # the whole run instead of a settings-hash + dict probe per
        # spectrum.
        arena = db.arena_for(self.settings.fragmentation)

        index = self.index
        stats = RankStats(rank=0, n_entries=len(index), n_ions=index.n_ions)
        build_time = self.query_costs.build_cost(len(index), index.n_ions)
        stats.build_time = build_time

        processed = preprocess_batch(spectra, preprocess)
        # One scratch workspace threads through the batched filtration
        # and scoring kernels (same warm buffers for the whole run).
        ws = thread_workspace()
        filtered = index.filter_many(processed, workspace=ws)
        outcomes = score_many(
            processed,
            [f.candidates for f in filtered],
            fragment_tolerance=self.settings.fragment_tolerance,
            arena=arena,
            workspace=ws,
        )

        results: List[SpectrumResult] = []
        query_time = 0.0
        for spectrum, fres, outcome in zip(spectra, filtered, outcomes):
            query_time += self.query_costs.per_spectrum_preprocess
            query_time += self.query_costs.filter_cost(fres)
            stats.buckets_scanned += fres.buckets_scanned
            stats.ions_scanned += fres.ions_scanned
            query_time += self.query_costs.scoring_cost(outcome)
            stats.candidates_scored += outcome.candidates_scored
            stats.residues_scored += outcome.residues_scored
            results.append(
                SpectrumResult(
                    scan_id=spectrum.scan_id,
                    n_candidates=int(fres.candidates.size),
                    psms=top_k_psms(
                        spectrum.scan_id,
                        fres.candidates.astype(np.int64),
                        outcome.scores,
                        fres.shared_peaks,
                        self.top_k,
                    ),
                )
            )
        stats.query_time = query_time

        total_psms = sum(len(r.psms) for r in results)
        merge_time = self.serial_costs.merge_cost(total_psms)
        phase_times = {
            "serial_prep": prep_time,
            "build": build_time,
            "query": query_time,
            "merge": merge_time,
            "total": prep_time + build_time + query_time + merge_time,
        }
        return SearchResults(
            spectra=results,
            rank_stats=[stats],
            phase_times=phase_times,
            policy_name="shared",
            n_ranks=1,
        )
