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
* :mod:`repro.service` — real-process search: the resident session,
  the sharded fleet, elastic rebalancing
* :mod:`repro.obs` — tracing, metrics, flight recorder, trace analysis
* :mod:`repro.bench` — the experiment harness for Figures 5–11

Quickstart::

    from repro import quick_pipeline
    results = quick_pipeline(n_families=20, n_spectra=50, n_ranks=4)
    print(results.cpsms_per_query, results.query_time)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.search.psm import SearchResults

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.chem.peptide": ("Peptide",),
    "repro.chem.modifications": ("paper_modifications",),
    "repro.core.grouping": ("GroupingConfig", "group_peptides"),
    "repro.core.planner": ("make_lbe_plan",),
    "repro.core.partition": ("make_policy",),
    "repro.db.digest": ("DigestionConfig",),
    "repro.db.proteome": ("ProteomeConfig", "generate_proteome"),
    "repro.index.slm": ("SLMIndex", "SLMIndexSettings"),
    "repro.search.database": ("DatabaseConfig", "IndexedDatabase"),
    "repro.search.engine": ("DistributedSearchEngine", "EngineConfig"),
    "repro.search.psm": ("SearchResults",),
    "repro.search.serial": ("SerialSearchEngine",),
    "repro.search.metrics": ("load_imbalance",),
    "repro.spectra.synthetic": ("SyntheticRunConfig", "generate_run"),
})
__all__ += ["__version__", "quick_pipeline"]


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
    from repro.db.proteome import ProteomeConfig
    from repro.search.database import DatabaseConfig, IndexedDatabase
    from repro.search.engine import DistributedSearchEngine, EngineConfig
    from repro.spectra.synthetic import SyntheticRunConfig, generate_run

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
