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

from repro.db.fasta import (
    FastaRecord,
    read_fasta,
    write_fasta,
    read_grouped_fasta,
    write_grouped_fasta,
)
from repro.db.proteome import ProteomeConfig, SyntheticProteome, generate_proteome
from repro.db.digest import DigestionConfig, digest_protein, digest_proteome, digest_rows
from repro.db.dedup import deduplicate_peptides, first_occurrences

__all__ = [
    "FastaRecord",
    "read_fasta",
    "write_fasta",
    "read_grouped_fasta",
    "write_grouped_fasta",
    "ProteomeConfig",
    "SyntheticProteome",
    "generate_proteome",
    "DigestionConfig",
    "digest_rows",
    "digest_protein",
    "digest_proteome",
    "first_occurrences",
    "deduplicate_peptides",
]
