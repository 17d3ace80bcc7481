"""repro — reproduction of *LBE: A Computational Load Balancing
Algorithm for Speeding up Parallel Peptide Search in Mass-Spectrometry
based Proteomics* (Haseeb, Afzali & Saeed, IPDPSW 2019).

The package provides every system the paper depends on, rebuilt in
Python:

* :mod:`repro.chem` — peptide chemistry (masses, PTMs, fragments)
* :mod:`repro.db` — proteome generation, digestion, dedup, FASTA
* :mod:`repro.spectra` — MS/MS spectra, MS2 io, synthetic runs
* :mod:`repro.index` — the SLM-Transform fragment-ion index
* :mod:`repro.core` — **LBE itself**: grouping, partitioning, mapping,
  the one plan constructor (``make_lbe_plan``) and the search
  parameters every backend shares (``SearchParams``)
* :mod:`repro.mpi` — virtual time: per-rank clocks, the comm cost
  model and the ledger collectives of the simulated engine
* :mod:`repro.search` — serial + simulated-distributed search engines,
  the shared rank body, metrics
* :mod:`repro.parallel` — real OS worker processes: the resident pool,
  the memmap-shared arena, fault injection
* :mod:`repro.service` — real-process search: the one-shot engine, the
  resident session, the sharded fleet, elastic rebalancing
* :mod:`repro.obs` — tracing, metrics, flight recorder, trace analysis
* :mod:`repro.bench` — the experiment harness for Figures 5–11

Quickstart::

    from repro import quick_pipeline
    results = quick_pipeline(n_families=20, n_spectra=50, n_ranks=4)
    print(results.cpsms_per_query, results.query_time)
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.chem import Peptide, paper_modifications
from repro.core import (
    GroupingConfig,
    group_peptides,
    make_lbe_plan,
    make_policy,
)
from repro.db import DigestionConfig, ProteomeConfig, generate_proteome
from repro.index import SLMIndex, SLMIndexSettings
from repro.search import (
    DatabaseConfig,
    DistributedSearchEngine,
    EngineConfig,
    IndexedDatabase,
    SearchResults,
    SerialSearchEngine,
    load_imbalance,
)
from repro.spectra import SyntheticRunConfig, generate_run

__all__ = [
    "__version__",
    "Peptide",
    "paper_modifications",
    "GroupingConfig",
    "group_peptides",
    "make_lbe_plan",
    "make_policy",
    "DigestionConfig",
    "ProteomeConfig",
    "generate_proteome",
    "SLMIndex",
    "SLMIndexSettings",
    "DatabaseConfig",
    "DistributedSearchEngine",
    "EngineConfig",
    "IndexedDatabase",
    "SearchResults",
    "SerialSearchEngine",
    "load_imbalance",
    "SyntheticRunConfig",
    "generate_run",
    "quick_pipeline",
]


def quick_pipeline(
    *,
    n_families: int = 20,
    n_spectra: int = 50,
    n_ranks: int = 4,
    policy: str = "cyclic",
    seed: int = 7,
) -> SearchResults:
    """One-call demo pipeline: proteome → database → spectra → search.

    Builds a small synthetic workload and runs the LBE-distributed
    engine; see ``examples/quickstart.py`` for the narrated version.
    """
    db = IndexedDatabase.build(
        DatabaseConfig(proteome=ProteomeConfig(n_families=n_families, seed=seed))
    )
    spectra = generate_run(
        db.entries, SyntheticRunConfig(n_spectra=n_spectra, seed=seed + 1)
    )
    engine = DistributedSearchEngine(
        db, EngineConfig(n_ranks=n_ranks, policy=policy)
    )
    return engine.run(spectra)
