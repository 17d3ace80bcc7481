"""The package surface: every public name resolves to its defining
module's object, and an import loads only the modules it uses.

Package ``__init__``s export lazily (:mod:`repro._exports`), so a
spawned worker importing its rank body pays for that body alone, not
for the trace analyzer, the database builders or the CLI.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Each package's public names, grouped by the module that defines them.
SURFACE = {
    "repro": {
        "repro": "__version__ quick_pipeline",
        "repro.chem.peptide": "Peptide",
        "repro.chem.modifications": "paper_modifications",
        "repro.core.grouping": "GroupingConfig group_peptides",
        "repro.core.planner": "make_lbe_plan",
        "repro.core.partition": "make_policy",
        "repro.db.digest": "DigestionConfig",
        "repro.db.proteome": "ProteomeConfig generate_proteome",
        "repro.index.slm": "SLMIndex SLMIndexSettings",
        "repro.search.database": "DatabaseConfig IndexedDatabase",
        "repro.search.engine": "DistributedSearchEngine EngineConfig",
        "repro.search.psm": "SearchResults",
        "repro.search.serial": "SerialSearchEngine",
        "repro.search.metrics": "load_imbalance",
        "repro.spectra.synthetic": "SyntheticRunConfig generate_run",
    },
    "repro.bench": {
        "repro.bench.workloads": "Workload WorkloadConfig make_workload",
        "repro.bench.experiments": "ExperimentConfig ExperimentSuite default_suite",
        "repro.bench.reporting": "rows_to_csv series_table",
    },
    "repro.chem": {
        "repro.chem.peptide": "Peptide peptide_mass validate_sequence",
        "repro.chem.modifications": (
            "Modification ModificationSet VariantEnumerator paper_modifications"
        ),
        "repro.chem.fragments": "FragmentationSettings fragment_mzs theoretical_spectrum",
    },
    "repro.core": {
        "repro.core.editdist": "EncodedSequences edit_distance",
        "repro.core.grouping": "Grouping GroupingConfig group_peptides",
        "repro.core.partition": (
            "PartitionAssignment PartitionPolicy ChunkPolicy CyclicPolicy "
            "RandomPolicy make_policy"
        ),
        "repro.core.predict": "PredictivePolicy WorkModel",
        "repro.core.mapping": "MappingTable",
        "repro.core.planner": "LBEPlan SearchParams make_lbe_plan",
    },
    "repro.db": {
        "repro.db.fasta": (
            "FastaRecord read_fasta write_fasta read_grouped_fasta write_grouped_fasta"
        ),
        "repro.db.proteome": "ProteomeConfig SyntheticProteome generate_proteome",
        "repro.db.digest": "DigestionConfig digest_rows digest_protein digest_proteome",
        "repro.db.dedup": "first_occurrences deduplicate_peptides",
    },
    "repro.index": {
        "repro.index.arena": "FragmentArena Workspace concat_ranges",
        "repro.index.slm": "SLMIndex SLMIndexSettings FilterResult",
        "repro.index.chunks": "ChunkedIndex",
        "repro.index.memory": "IndexMemoryModel MemoryBreakdown",
    },
    "repro.mpi": {
        "repro.mpi.simtime": (
            "CommCostModel VirtualClock payload_nbytes scatter barrier gather"
        ),
    },
    "repro.obs": {
        "repro.obs.trace": "Clock default_clock Tracer NULL_TRACER JsonlTracer",
        "repro.obs.ring": "RingTracer DEFAULT_CAPACITY flight_dump",
        "repro.obs.analyze": (
            "TraceAnalysis TraceDiff load_trace analyze_trace analyze_trace_file "
            "diff_traces render_analysis render_gantt render_diff"
        ),
        "repro.obs.metrics": (
            "Counter Gauge Histogram MetricsRegistry global_registry quantile "
            "DEFAULT_LATENCY_BUCKETS_S"
        ),
        "repro.obs.schema": (
            "SPAN_ATTRS EVENT_ATTRS validate_record validate_trace_lines "
            "validate_trace_file trace_stats"
        ),
    },
    "repro.parallel": {
        "repro.parallel.faults": "FaultInjected FaultPlan FaultSpec maybe_inject",
        "repro.parallel.persistent": "PersistentPool PoolBatchResult RoundHandle",
        "repro.parallel.transport": "WorkerChannel spawn_worker",
        "repro.parallel.shared_arena": (
            "SharedArenaStore SharedSpill shared_spill_for sweep_stale_stores "
            "write_owner_marker"
        ),
        "repro.parallel.shared_spectra": "SharedSpectraStore",
    },
    "repro.search": {
        "repro.search.database": "DatabaseConfig IndexedDatabase",
        "repro.search.costs": "QueryCostModel SerialCostModel",
        "repro.search.psm": "PSM SpectrumResult SearchResults RankStats",
        "repro.search.scoring": "score_candidates ScoringOutcome",
        "repro.search.serial": "SerialSearchEngine",
        "repro.search.engine": "DistributedSearchEngine EngineConfig",
        "repro.search.metrics": (
            "load_imbalance wasted_cpu_time policy_cpu_speedup speedup_series "
            "amdahl_speedup estimate_serial_fraction"
        ),
        "repro.search.fdr": "combined_target_decoy estimate_fdr make_decoy_peptides qvalues",
        "repro.search.report": "read_psm_report write_psm_report",
    },
    "repro.service": {
        "repro.service.service": (
            "BatchStats SearchService ServiceConfig SessionStats aggregate_batch_stats"
        ),
        "repro.service.sharding": (
            "DatabaseShard ShardedBatchStats ShardedSearchService ShardPlan"
        ),
        "repro.service.rebalance": "RebalanceConfig RebalanceDecision RebalancePolicy",
    },
    "repro.spectra": {
        "repro.spectra.model": "Spectrum",
        "repro.spectra.ms2": "read_ms2 write_ms2",
        "repro.spectra.preprocess": "PreprocessConfig preprocess_spectrum preprocess_batch",
        "repro.spectra.synthetic": "SyntheticRunConfig generate_run",
    },
    "repro.util": {
        "repro.util.ascii_plot": "bar_chart line_plot",
        "repro.util.rng": "derive_seed rng_from",
        "repro.util.tables": "format_table",
    },
}

CASES = [
    (package, module, name)
    for package, table in SURFACE.items()
    for module, names in table.items()
    for name in names.split()
]


@pytest.mark.parametrize(
    "package, module, name", CASES, ids=[f"{p}.{n}" for p, _, n in CASES]
)
def test_public_name_is_its_defining_object(package, module, name):
    namespace = {}
    exec(f"from {package} import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(module), name)
    pkg = importlib.import_module(package)
    assert name in pkg.__all__
    assert name in dir(pkg)


def _fresh_import(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``,
    started the way a spawned worker starts (``PYTHONPATH=src``)."""
    code = (
        f"import sys; {statement}; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.split()


def test_worker_import_loads_only_the_rank_body():
    loaded = _fresh_import("import repro.parallel.worker")
    forbidden = (
        "repro.obs.analyze",
        "repro.service",
        "repro.cli",
        "repro.search.fdr",
        "repro.search.database",
        "repro.db",
        "repro.mpi",
    )
    pulled = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert not pulled, pulled
    assert len(loaded) <= 30, loaded


def test_cli_import_loads_no_service_parallel_or_obs_module():
    """The parser needs none of them: each command imports what it runs."""
    loaded = _fresh_import("import repro.cli")
    tiers = ("repro.service", "repro.parallel", "repro.obs")
    pulled = [m for m in loaded if any(m == t or m.startswith(t + ".") for t in tiers)]
    assert "repro.cli" in loaded and not pulled, pulled


def test_package_import_loads_only_the_export_helper():
    assert _fresh_import("import repro") == ["repro", "repro._exports"]


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.core.partition as p; assert 'lpt' in p.POLICIES",
        "from repro import make_policy; make_policy('lpt')",
    ],
    ids=["partition-registry", "package-factory"],
)
def test_lpt_registers_in_a_fresh_interpreter(statement):
    """``lpt`` lives in core.predict; loading core.partition alone must
    still offer it, whatever was imported before."""
    assert "repro.core.predict" in _fresh_import(statement)
