"""Protein/peptide database substrate.

This subpackage stands in for the external tools of the paper's
pipeline (Section V-A.1):

* UniProt human proteome download → :mod:`~repro.db.proteome`
  (synthetic proteome generator with homologous families),
* OpenMS ``Digestor`` → :mod:`~repro.db.digest` (tryptic in-silico
  digestion),
* ``DBToolkit`` duplicate removal → :mod:`~repro.db.dedup`,
* FASTA files (plain and the grouped/clustered output of LBE's
  Algorithm 1) → :mod:`~repro.db.fasta`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.db.fasta": (
        "FastaRecord",
        "read_fasta",
        "write_fasta",
        "read_grouped_fasta",
        "write_grouped_fasta",
    ),
    "repro.db.proteome": ("ProteomeConfig", "SyntheticProteome", "generate_proteome"),
    "repro.db.digest": (
        "DigestionConfig",
        "digest_rows",
        "digest_protein",
        "digest_proteome",
    ),
    "repro.db.dedup": ("first_occurrences", "deduplicate_peptides"),
})
