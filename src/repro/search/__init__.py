"""Distributed peptide search engine (the LBDSLIM analogue).

Pipeline objects:

* :class:`~repro.search.database.IndexedDatabase` — base peptides plus
  their enumerated modified variants ("entries"), the unit LBE
  partitions and the SLM index stores.
* :class:`~repro.search.serial.SerialSearchEngine` — the shared-memory
  reference implementation (ground truth + baseline for Fig. 5).
* :class:`~repro.search.engine.DistributedSearchEngine` — the SPMD
  engine over the simulated cluster, with per-rank phase accounting.
* :mod:`~repro.search.metrics` — load imbalance (Eq. 1), wasted CPU
  time, speedup and Amdahl utilities used by the benchmark harness.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.search.database": ("DatabaseConfig", "IndexedDatabase"),
    "repro.search.costs": ("QueryCostModel", "SerialCostModel"),
    "repro.search.psm": ("PSM", "SpectrumResult", "SearchResults", "RankStats"),
    "repro.search.scoring": ("score_candidates", "ScoringOutcome"),
    "repro.search.serial": ("SerialSearchEngine",),
    "repro.search.engine": ("DistributedSearchEngine", "EngineConfig"),
    "repro.search.metrics": (
        "load_imbalance",
        "wasted_cpu_time",
        "policy_cpu_speedup",
        "speedup_series",
        "amdahl_speedup",
        "estimate_serial_fraction",
    ),
    "repro.search.fdr": (
        "combined_target_decoy",
        "estimate_fdr",
        "make_decoy_peptides",
        "qvalues",
    ),
    "repro.search.report": ("read_psm_report", "write_psm_report"),
})
