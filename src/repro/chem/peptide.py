"""Peptide value type and neutral-mass arithmetic.

A :class:`Peptide` couples an amino-acid sequence with an optional
tuple of localized modifications ``(position, delta_mass)``.  Peptides
are immutable and hashable so they can be used as dictionary keys in
the deduplication and mapping layers.

``Peptide(...)`` validates its sequence, sorts its mods and sums its
mass.  The database build (digest → dedup → variant expansion) already
knows all three for every entry it makes, so it constructs through
:meth:`Peptide._trusted` instead, which stores them as given; the
result equals the validating construction bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

from repro.constants import AA_MONO, ALPHABET_SET, WATER_MONO
from repro.errors import InvalidSequenceError

__all__ = ["Peptide", "peptide_mass", "validate_sequence"]


def validate_sequence(sequence: str) -> str:
    """Validate and return ``sequence``.

    Raises
    ------
    InvalidSequenceError
        If the sequence is empty or contains characters outside the
        canonical 20-letter alphabet.
    """
    if not sequence:
        raise InvalidSequenceError("peptide sequence must be non-empty")
    bad = set(sequence) - ALPHABET_SET
    if bad:
        raise InvalidSequenceError(
            f"sequence {sequence!r} contains invalid residues {sorted(bad)!r}"
        )
    return sequence


def peptide_mass(sequence: str, mods: Iterable[Tuple[int, float]] = ()) -> float:
    """Return the neutral monoisotopic mass of ``sequence`` with ``mods``.

    Parameters
    ----------
    sequence:
        Amino-acid sequence (validated).
    mods:
        Iterable of ``(position, delta_mass)`` pairs; positions are
        0-based residue indices and only used for bounds checking here
        (fragment generation needs them).

    Returns
    -------
    float
        ``sum(residue masses) + H2O + sum(mod deltas)``.
    """
    validate_sequence(sequence)
    total = WATER_MONO
    for aa in sequence:
        total += AA_MONO[aa]
    for pos, delta in mods:
        if not 0 <= pos < len(sequence):
            raise InvalidSequenceError(
                f"modification position {pos} outside sequence of length {len(sequence)}"
            )
        total += delta
    return total


@dataclass(frozen=True, slots=True)
class Peptide:
    """An immutable peptide, optionally carrying localized modifications.

    Attributes
    ----------
    sequence:
        The unmodified amino-acid sequence.
    mods:
        Sorted tuple of ``(position, delta_mass)`` pairs; empty for the
        unmodified ("normal") peptide.  Positions are 0-based.
    protein_id:
        Index of the parent protein in the source database, ``-1`` when
        unknown (e.g. synthetic peptides).
    """

    sequence: str
    mods: Tuple[Tuple[int, float], ...] = ()
    protein_id: int = -1
    _mass: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        # Normalize modification order so equal peptides hash equally.
        ordered = tuple(sorted((int(p), float(d)) for p, d in self.mods))
        object.__setattr__(self, "mods", ordered)
        object.__setattr__(self, "_mass", peptide_mass(self.sequence, ordered))

    @staticmethod
    def _trusted(
        sequence: str,
        mods: Tuple[Tuple[int, float], ...],
        protein_id: int,
        mass: float,
    ) -> "Peptide":
        """Construct without validating, sorting or summing anything.

        Precondition (the caller's, unchecked): ``sequence`` is a
        non-empty string over the canonical alphabet; ``mods`` is a
        tuple of ``(int, float)`` pairs sorted by position, one per
        position, every position inside the sequence; and ``mass`` is
        ``peptide_mass(sequence, mods)`` bit for bit — ``WATER_MONO``
        plus each residue mass, then each delta, added left to right.
        Under it the result equals ``Peptide(sequence, mods, protein_id)``
        in ``==``, ``hash``, ``mass`` and ``annotated()``.
        """
        pep = _new_peptide(Peptide)
        _set_sequence(pep, sequence)
        _set_mods(pep, mods)
        _set_protein_id(pep, protein_id)
        _set_mass(pep, mass)
        return pep

    @property
    def mass(self) -> float:
        """Neutral monoisotopic mass in Da (cached at construction)."""
        return self._mass

    @property
    def is_modified(self) -> bool:
        """True when the peptide carries at least one modification."""
        return bool(self.mods)

    @property
    def length(self) -> int:
        """Number of residues."""
        return len(self.sequence)

    def mod_count(self) -> int:
        """Number of modified residues."""
        return len(self.mods)

    def annotated(self) -> str:
        """Human-readable form, e.g. ``PEPT[+15.995]IDE``.

        The delta is printed after the modified residue with three
        decimals, mirroring common search-engine output.
        """
        if not self.mods:
            return self.sequence
        deltas = dict(self.mods)
        parts: list[str] = []
        for i, aa in enumerate(self.sequence):
            parts.append(aa)
            if i in deltas:
                parts.append(f"[{deltas[i]:+.3f}]")
        return "".join(parts)

    def __str__(self) -> str:
        return self.annotated()


# The slot setters ``Peptide._trusted`` writes through: a frozen
# dataclass refuses ``setattr``, and the raw slot descriptors are the
# cheapest way around that.
_new_peptide = object.__new__
_set_sequence, _set_mods, _set_protein_id, _set_mass = (
    Peptide.__dict__[name].__set__ for name in ("sequence", "mods", "protein_id", "_mass")
)
