"""The four named workloads and their seed-determined inputs.

Names are permanent; sizes were chosen so that each workload stresses
different layers (see README.md, "Why each workload exists") and so that
one run — set-up cycles, oracle pass, warm-up and the measured window —
fits the driver's per-run budget on a 2-CPU host.

The database is the same for every seed (proteome seed
``DATABASE_SEED``); ``--seed`` draws the query spectra
(``generate_run(seed=seed + 1)``).  Ten proteome seeds moved every
timing metric by 15-22% and memory by 8% on their own — more than any
bound — because index size and neighbourhood density vary with the
proteome; spectra drawn from one proteome do not.  The program under
test receives only the generated database and batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

#: Resident workers per pool (= ``nproc`` on the sizing host).  Fixed, so
#: runs on different hosts measure the same program configuration.
N_WORKERS = 2
TOP_K = 5
MAX_VARIANTS = 8
DATABASE_SEED = 4242


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``in_flight`` clients each wait for their reply before sending the
    next batch: 1 drives ``submit``; more drive ``submit_async`` with
    that many batches admitted (= ``max_pending``).  ``n_shards`` 0 is a
    plain ``SearchService``; otherwise a ``ShardedSearchService`` with
    ``N_WORKERS // n_shards`` workers per shard, so both kinds use the
    same number of worker processes.
    """

    name: str
    n_families: int
    precursor_tolerance: Optional[float]
    batch_size: int
    n_unique: int
    warmup: int
    in_flight: int
    n_shards: int
    mass_sorted: bool
    setup_cycles: int
    walk_batches: int = 10
    max_ops: Optional[int] = None

    @property
    def workers_per_pool(self) -> int:
        return N_WORKERS // self.n_shards if self.n_shards else N_WORKERS

    def smoke(self) -> "Workload":
        """Tiny sizes for the tier-1 smoke test: same code paths, seconds."""
        return replace(
            self,
            n_families=6,
            batch_size=min(self.batch_size, 12),
            n_unique=6,
            warmup=2,
            setup_cycles=1,
            walk_batches=3,
            max_ops=30,
        )


WORKLOADS: List[Workload] = [
    Workload(
        name="bulk-open",
        n_families=128,
        precursor_tolerance=None,
        batch_size=32,
        n_unique=16,
        warmup=6,
        in_flight=1,
        n_shards=0,
        mass_sorted=False,
        setup_cycles=2,
    ),
    Workload(
        name="stream-small",
        n_families=16,
        precursor_tolerance=None,
        batch_size=8,
        n_unique=200,
        warmup=50,
        in_flight=4,
        n_shards=0,
        mass_sorted=False,
        setup_cycles=3,
    ),
    Workload(
        name="flat-narrow",
        n_families=80,
        precursor_tolerance=2.0,
        batch_size=48,
        n_unique=50,
        warmup=20,
        in_flight=1,
        n_shards=0,
        mass_sorted=True,
        setup_cycles=2,
    ),
    Workload(
        name="fleet-narrow",
        n_families=80,
        precursor_tolerance=2.0,
        batch_size=48,
        n_unique=50,
        warmup=20,
        in_flight=1,
        n_shards=2,
        mass_sorted=True,
        setup_cycles=2,
    ),
]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise SystemExit(
        f"unknown workload {name!r}; choose from "
        f"{[w.name for w in WORKLOADS]}"
    )


# -- inputs (import the program lazily: run.py puts src/ on sys.path) ----


def index_settings(workload: Workload):
    from repro.index.slm import SLMIndexSettings

    return SLMIndexSettings(precursor_tolerance=workload.precursor_tolerance)


def build_database(workload: Workload):
    from repro.db.proteome import ProteomeConfig
    from repro.search.database import DatabaseConfig, IndexedDatabase

    return IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(
                n_families=workload.n_families, seed=DATABASE_SEED
            ),
            max_variants_per_peptide=MAX_VARIANTS,
        )
    )


def make_batches(workload: Workload, database, seed: int) -> list:
    """The fixed pool of unique batches the drivers cycle through in order.

    No result cache exists, so cycling a pool repeats work without
    changing it; revisit if a cache lands.
    """
    from repro.spectra.synthetic import SyntheticRunConfig, generate_run

    spectra = generate_run(
        database.entries,
        SyntheticRunConfig(
            n_spectra=workload.n_unique * workload.batch_size, seed=seed + 1
        ),
    )
    if workload.mass_sorted:
        # Contiguous in neutral-mass order: each batch's precursor
        # windows cluster, which is the shape shard routing can skip on.
        spectra = sorted(spectra, key=lambda s: s.neutral_mass)
    size = workload.batch_size
    return [spectra[i * size : (i + 1) * size] for i in range(workload.n_unique)]
