"""Duplicate peptide removal (``DBToolkit`` equivalent).

Digesting homologous proteins produces many identical peptide
sequences.  The paper removes duplicates before clustering (Section
V-A.1).  We keep the *first* occurrence of each sequence (stable
order), which preserves the protein id of the earliest parent — the
same behaviour DBToolkit exhibits with its default settings.

The database build deduplicates digest rows on their sequence strings
(:func:`first_occurrences`), before any peptide object is made;
:func:`deduplicate_peptides` is the same pass keyed on
``Peptide.sequence``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, TypeVar

from repro.chem.peptide import Peptide

__all__ = ["first_occurrences", "deduplicate_peptides"]

Row = TypeVar("Row", bound=Tuple)


def first_occurrences(rows: Iterable[Row]) -> List[Row]:
    """Keep the first row of each sequence (``row[0]``), in input order."""
    first: Dict[str, Row] = {}
    for row in rows:
        first.setdefault(row[0], row)
    return list(first.values())


def deduplicate_peptides(peptides: Sequence[Peptide]) -> List[Peptide]:
    """Return ``peptides`` with duplicate *sequences* removed, stably.

    Only the bare sequence is compared (modifications are not expected
    at this pipeline stage; modified variants are enumerated after
    deduplication, as in the paper's pipeline).
    """
    return [pep for _, pep in first_occurrences((pep.sequence, pep) for pep in peptides)]
