"""Standard scaled workloads for the figure experiments.

The paper sweeps index sizes {18 M, 30 M, 41 M, 49.45 M} entries
(peptides + modified-variant spectra) and queries a 23,264-spectrum MS2
file.  A pure-Python single container cannot hold 50 M-entry indexes,
so the suite scales sizes down **ratio-preserving** (default ×600:
30 k … 82 k entries) and scales query counts accordingly; every
reported quantity (imbalance %, speedup ×, GB per million entries) is
normalized, so the downscale preserves the figures' shapes.

Index size is controlled through the number of synthetic protein
families, which entries track nearly linearly; the realized entry
count is reported alongside every figure row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.db.proteome import ProteomeConfig
from repro.errors import ConfigurationError
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.spectra.model import Spectrum
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

__all__ = ["PAPER_SIZES_M", "Workload", "WorkloadConfig", "make_workload"]

#: The paper's index sizes in millions of entries (Fig. 5–11 x-axis).
PAPER_SIZES_M: Tuple[float, ...] = (18.0, 30.0, 41.0, 49.45)

#: Families needed per million (paper-scale) entries at the default
#: digestion/modification settings, calibrated once for seed stability:
#: ~1.66 families per paper-million gives ~1.0 k entries per family.
_FAMILIES_PER_MILLION = 1.66


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Workload sizing parameters.

    Attributes
    ----------
    size_m:
        Nominal index size in paper-scale millions (one of
        :data:`PAPER_SIZES_M` in the standard sweeps).
    n_spectra:
        Query spectra to generate.
    seed:
        Master seed (proteome and run derive independent streams).
    max_variants_per_peptide:
        Variant-enumeration truncation (index density knob).
    """

    size_m: float = 18.0
    n_spectra: int = 120
    seed: int = 29
    max_variants_per_peptide: int = 8

    def __post_init__(self) -> None:
        if self.size_m <= 0:
            raise ConfigurationError(f"size_m must be > 0, got {self.size_m}")
        if self.n_spectra <= 0:
            raise ConfigurationError(f"n_spectra must be > 0, got {self.n_spectra}")

    @property
    def n_families(self) -> int:
        """Protein families realizing the nominal size."""
        return max(4, round(self.size_m * _FAMILIES_PER_MILLION))


@dataclass(frozen=True, slots=True)
class Workload:
    """A realized workload: database + query spectra.

    Attributes
    ----------
    config:
        The generating configuration.
    database:
        The indexed database.
    spectra:
        The synthetic query run.
    """

    config: WorkloadConfig
    database: IndexedDatabase
    spectra: List[Spectrum]

    @property
    def n_entries(self) -> int:
        """Realized index size (entries)."""
        return self.database.n_entries

    @property
    def label(self) -> str:
        """Figure-axis label, e.g. ``"18M"`` (nominal paper scale)."""
        if float(self.config.size_m).is_integer():
            return f"{int(self.config.size_m)}M"
        return f"{self.config.size_m}M"


def make_workload(config: WorkloadConfig = WorkloadConfig()) -> Workload:
    """Generate the workload for ``config`` (deterministic)."""
    db = IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=config.n_families, seed=config.seed),
            max_variants_per_peptide=config.max_variants_per_peptide,
        )
    )
    spectra = generate_run(
        db.entries,
        SyntheticRunConfig(n_spectra=config.n_spectra, seed=config.seed + 1),
    )
    return Workload(config=config, database=db, spectra=spectra)
