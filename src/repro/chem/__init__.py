"""Peptide chemistry substrate.

Provides the value types and mass arithmetic that every layer above
(digestion, indexing, search) relies on:

* :class:`~repro.chem.peptide.Peptide` — an immutable peptide with an
  optional set of localized modifications and cached neutral mass.
* :mod:`~repro.chem.modifications` — variable-PTM specification and the
  enumeration of modified variants (the mechanism by which the paper's
  index sizes "grow exponentially").
* :mod:`~repro.chem.fragments` — theoretical b/y fragment generation,
  the source of the ions the SLM index stores.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.chem.peptide": ("Peptide", "peptide_mass", "validate_sequence"),
    "repro.chem.modifications": (
        "Modification",
        "ModificationSet",
        "VariantEnumerator",
        "paper_modifications",
    ),
    "repro.chem.fragments": (
        "FragmentationSettings",
        "fragment_mzs",
        "theoretical_spectrum",
    ),
})
