"""Peptide-spectrum-match (PSM) result containers.

The engine reports, per query spectrum, its candidate count (the
paper's "cPSM" unit, Section V-A) and the top-k scored matches in
*global entry id* space.  Aggregate counters and per-rank statistics
feed the metrics module and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["PSM", "SpectrumResult", "RankStats", "SearchResults"]


@dataclass(frozen=True, slots=True)
class PSM:
    """One candidate peptide-spectrum match.

    Attributes
    ----------
    scan_id:
        Query spectrum scan number.
    entry_id:
        Global index-entry id of the matched (possibly modified)
        peptide.
    score:
        Hyperscore-style match score (higher = better).
    shared_peaks:
        Shared-peak count from filtration.
    """

    scan_id: int
    entry_id: int
    score: float
    shared_peaks: int


@dataclass(slots=True)
class SpectrumResult:
    """Search outcome for one query spectrum.

    Attributes
    ----------
    scan_id:
        Query scan number.
    n_candidates:
        Total candidates that passed filtration (cPSMs).
    psms:
        Top-k PSMs, descending score (ties: ascending entry id).
    """

    scan_id: int
    n_candidates: int
    psms: List[PSM] = field(default_factory=list)

    @property
    def best(self) -> PSM | None:
        """Highest-scoring PSM, or ``None`` if nothing matched."""
        return self.psms[0] if self.psms else None


@dataclass(slots=True)
class RankStats:
    """Per-rank work counters and phase times (virtual seconds).

    Attributes
    ----------
    rank:
        Rank id.
    n_entries:
        Entries in this rank's partial index.
    n_ions:
        Ion entries in this rank's partial index.
    buckets_scanned / ions_scanned:
        Filtration work counters summed over all queries.
    candidates_scored:
        Candidates passed to the scorer.
    residues_scored:
        Total residues across scored candidates (scoring cost basis).
    build_time / query_time / comm_time:
        Seconds spent in each phase — virtual seconds under the
        simulated engine, real wall seconds under the process backend.
        There, ``build_time`` is the rank's resident index build,
        reported with every batch, and ``comm_time`` is the worker's
        batch unpack time.
    query_cpu_time:
        Query-phase process CPU seconds (real backends only; the
        simulated engine leaves 0).  On a core-per-worker machine this
        ≈ ``query_time``; on an oversubscribed one it is the
        dedicated-core-equivalent query time.
    """

    rank: int
    n_entries: int = 0
    n_ions: int = 0
    buckets_scanned: int = 0
    ions_scanned: int = 0
    candidates_scored: int = 0
    residues_scored: int = 0
    build_time: float = 0.0
    query_time: float = 0.0
    comm_time: float = 0.0
    query_cpu_time: float = 0.0

    @property
    def total_time(self) -> float:
        """Build + query + communication virtual time."""
        return self.build_time + self.query_time + self.comm_time


@dataclass(slots=True)
class SearchResults:
    """Complete outcome of a (serial or distributed) search.

    Attributes
    ----------
    spectra:
        Per-spectrum results, ascending scan id.
    rank_stats:
        One :class:`RankStats` per rank (a single pseudo-rank for the
        serial engine).
    phase_times:
        Master-side phase ledger (virtual seconds): keys include
        ``serial_prep``, ``build``, ``query``, ``merge``, ``total``.
    policy_name:
        Partition policy used (``"shared"`` for the serial engine).
    n_ranks:
        Ranks that executed the search.
    degraded_ranks:
        Ranks whose partition contributed **nothing** to these results
        (the service's opt-in ``degraded_ok`` mode after a rank's
        retries were exhausted).  Empty — full coverage — everywhere
        else; a non-empty mask means every candidate count and PSM
        list excludes those ranks' database partitions.  On the
        sharded tier the rank space is the flattened fleet: a shard's
        ranks come after every live rank of the shards before it.
    degraded_shards:
        Sharded serving tier only: shards whose **entire** mass range
        is missing from these results (every rank of the shard's pool
        failed, or its session broke, after retries).  Empty for the
        unsharded engines and for fully-covered sharded batches.
    """

    spectra: List[SpectrumResult]
    rank_stats: List[RankStats]
    phase_times: Dict[str, float]
    policy_name: str
    n_ranks: int
    degraded_ranks: Tuple[int, ...] = ()
    degraded_shards: Tuple[int, ...] = ()

    @property
    def is_degraded(self) -> bool:
        """True when these results cover only part of the database."""
        return bool(self.degraded_ranks) or bool(self.degraded_shards)

    @property
    def total_cpsms(self) -> int:
        """Total candidate PSMs across all spectra."""
        return sum(s.n_candidates for s in self.spectra)

    @property
    def cpsms_per_query(self) -> float:
        """Mean candidates per query (the paper's headline statistic)."""
        return self.total_cpsms / len(self.spectra) if self.spectra else 0.0

    @property
    def query_times(self) -> List[float]:
        """Per-rank query-phase virtual times (the LI inputs)."""
        return [rs.query_time for rs in self.rank_stats]

    @property
    def query_time(self) -> float:
        """Query-phase wall time: the slowest rank."""
        return max(self.query_times) if self.query_times else 0.0

    @property
    def execution_time(self) -> float:
        """End-to-end virtual time (master's total ledger)."""
        return self.phase_times.get("total", 0.0)

    def best_by_scan(self) -> Dict[int, PSM]:
        """Map scan id → best PSM (spectra with no PSMs are absent)."""
        out: Dict[int, PSM] = {}
        for sr in self.spectra:
            if sr.psms:
                out[sr.scan_id] = sr.psms[0]
        return out
