"""Variable post-translational modification (PTM) handling.

The paper's index sizes are driven by *variable* modifications: every
peptide that contains modifiable residues spawns additional "modified
variant" entries, one per admissible combination of site assignments,
subject to a cap on the number of modified residues per peptide
(default 5, Section V-A.3).  This module implements:

* :class:`Modification` — a named mass delta applicable to a set of
  residues.
* :class:`ModificationSet` — a collection of modifications plus the
  per-peptide cap.
* :class:`VariantEnumerator` — deterministic enumeration of the variant
  peptides of a base sequence, optionally truncated (the knob the paper
  turns to sweep index size).

The default :func:`paper_modifications` reproduces the paper's setting:
deamidation on N/Q, Gly-Gly adduct on K/C, oxidation on M.

Variant expansion is one pass per base peptide with nothing
re-derived.  :class:`ModificationSet` caches a per-residue delta table
(``residue_deltas``, deltas in modification-set order, the order of
``site_deltas``) and, from it, the ``(position, delta)`` choice tuples
of every residue and position (``site_choices``).  A base's modifiable
positions are read off that cache once; each variant's mods tuple comes
straight out of ``itertools`` already position-sorted, one choice per
position, every position inside the base.  Its mass is
``base.mass + d1 + d2 + …`` in position order — the same float
additions :func:`~repro.chem.peptide.peptide_mass` performs.  Those are
exactly the preconditions of :meth:`Peptide._trusted
<repro.chem.peptide.Peptide._trusted>` (validated sequence, sorted
in-range mods, ``peptide_mass``'s mass), so every variant is built with
it and equals the validating ``Peptide(sequence, mods, protein_id)`` bit
for bit.  That is why a base must be unmodified: its mass is then
exactly the residue fold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.chem.peptide import Peptide, validate_sequence
from repro.constants import DEFAULT_MAX_MODIFIED_RESIDUES
from repro.errors import ConfigurationError

__all__ = [
    "Modification",
    "ModificationSet",
    "VariantEnumerator",
    "paper_modifications",
]

#: The ``(position, delta)`` alternatives for one modifiable position.
SiteChoices = Tuple[Tuple[int, float], ...]

#: Unimod monoisotopic deltas for the paper's modifications.
DEAMIDATION_DELTA = 0.98401558
GLYGLY_DELTA = 114.04292744
OXIDATION_DELTA = 15.99491462


@dataclass(frozen=True, slots=True)
class Modification:
    """A variable modification: a mass delta applicable to some residues.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"oxidation"``.
    residues:
        The amino acids this modification can attach to, e.g. ``"M"``.
    delta:
        Monoisotopic mass shift in Da.
    """

    name: str
    residues: str
    delta: float

    def __post_init__(self) -> None:
        if not self.residues:
            raise ConfigurationError(f"modification {self.name!r} targets no residues")
        validate_sequence(self.residues)

    def sites(self, sequence: str) -> Tuple[int, ...]:
        """Return the 0-based positions in ``sequence`` this mod can occupy."""
        targets = set(self.residues)
        return tuple(i for i, aa in enumerate(sequence) if aa in targets)


def paper_modifications() -> "ModificationSet":
    """The modification set of the paper's experiments (Section V-A.3).

    Deamidation on asparagine/glutamine, Gly-Gly adducts on
    lysine/cysteine, and oxidation on methionine, with at most 5
    modified residues per peptide.
    """
    return ModificationSet(
        (
            Modification("deamidation", "NQ", DEAMIDATION_DELTA),
            Modification("glygly", "KC", GLYGLY_DELTA),
            Modification("oxidation", "M", OXIDATION_DELTA),
        ),
        max_modified_residues=DEFAULT_MAX_MODIFIED_RESIDUES,
    )


class ModificationSet:
    """A collection of variable modifications plus the per-peptide cap.

    Parameters
    ----------
    modifications:
        The variable modifications to consider.  Two modifications may
        target overlapping residue sets; a single residue position
        carries at most one modification in any variant.
    max_modified_residues:
        Upper bound on simultaneously modified residues per peptide
        (the paper uses 5).
    """

    def __init__(
        self,
        modifications: Sequence[Modification],
        *,
        max_modified_residues: int = DEFAULT_MAX_MODIFIED_RESIDUES,
    ) -> None:
        if max_modified_residues < 0:
            raise ConfigurationError(
                f"max_modified_residues must be >= 0, got {max_modified_residues}"
            )
        names = [m.name for m in modifications]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate modification names in {names!r}")
        self.modifications: Tuple[Modification, ...] = tuple(modifications)
        self.max_modified_residues = int(max_modified_residues)
        table: Dict[str, List[float]] = {}
        for mod in self.modifications:
            for aa in dict.fromkeys(mod.residues):
                table.setdefault(aa, []).append(float(mod.delta))
        #: Residue → its candidate deltas, in modification-set order.
        self.residue_deltas: Dict[str, Tuple[float, ...]] = {
            aa: tuple(deltas) for aa, deltas in table.items()
        }
        # (length, residue → per-position choice tuples) for
        # :meth:`site_choices`; replaced whole when a longer sequence
        # arrives, so a reader never sees a half-grown table.
        self._choices: Tuple[int, Dict[str, List[SiteChoices]]] = (0, {})

    def __iter__(self) -> Iterator[Modification]:
        return iter(self.modifications)

    def __len__(self) -> int:
        return len(self.modifications)

    def site_deltas(self, sequence: str) -> Dict[int, List[float]]:
        """Map each modifiable position of ``sequence`` to its candidate deltas.

        A position targeted by several modifications lists every delta,
        in modification-set order; variants choose at most one delta per
        position.
        """
        table = self.residue_deltas
        return {i: list(table[aa]) for i, aa in enumerate(sequence) if aa in table}

    def site_choices(self, sequence: str) -> List[SiteChoices]:
        """The ``(position, delta)`` choices of each modifiable position.

        One tuple per modifiable position of ``sequence``, in position
        order, deltas in modification-set order.  The tuples are cached
        per residue and position, so every base of a database build —
        and every variant's mods — shares them.
        """
        length, columns = self._choices
        if len(sequence) > length:
            length = len(sequence)
            columns = {
                aa: [tuple((i, delta) for delta in deltas) for i in range(length)]
                for aa, deltas in self.residue_deltas.items()
            }
            self._choices = (length, columns)
        return [columns[aa][i] for i, aa in enumerate(sequence) if aa in columns]


class VariantEnumerator:
    """Deterministic enumeration of modified variants of base peptides.

    The enumeration order is: increasing number of modified residues,
    then lexicographic over (sorted) site combinations, then over the
    per-site delta choices in modification-set order.  This order is
    stable, so truncating with ``max_variants_per_peptide`` keeps the
    *same* variants regardless of platform — important because the
    benchmark harness sweeps index size by truncating enumeration.

    Parameters
    ----------
    mods:
        The modification set.
    max_variants_per_peptide:
        If not ``None``, at most this many *modified* variants are
        produced per base peptide (the unmodified peptide is always
        produced and does not count against the cap).
    """

    def __init__(
        self,
        mods: ModificationSet,
        *,
        max_variants_per_peptide: int | None = None,
    ) -> None:
        if max_variants_per_peptide is not None and max_variants_per_peptide < 0:
            raise ConfigurationError(
                "max_variants_per_peptide must be None or >= 0, "
                f"got {max_variants_per_peptide}"
            )
        self.mods = mods
        self.max_variants_per_peptide = max_variants_per_peptide

    def variants(self, peptide: Peptide) -> Iterator[Peptide]:
        """Yield the unmodified peptide followed by its modified variants.

        Variants inherit ``protein_id`` from the base peptide, which must
        be unmodified (its mass is the start of every variant's).
        """
        if peptide.mods:
            raise ConfigurationError(
                f"variants are enumerated from an unmodified base, got {peptide}"
            )
        yield peptide
        sequence = peptide.sequence
        # A variant's mods are one choice from each of k positions, and
        # itertools hands them out already in position order.
        sites = self.mods.site_choices(sequence)
        if not sites:
            return
        max_k = min(self.mods.max_modified_residues, len(sites))
        all_mods = itertools.chain.from_iterable(
            itertools.product(*combo)
            for k in range(1, max_k + 1)
            for combo in itertools.combinations(sites, k)
        )
        if self.max_variants_per_peptide is not None:
            all_mods = itertools.islice(all_mods, self.max_variants_per_peptide)
        trusted = Peptide._trusted
        protein_id = peptide.protein_id
        base_mass = peptide.mass
        for mods in all_mods:
            mass = base_mass
            for _, delta in mods:
                mass += delta
            yield trusted(sequence, mods, protein_id, mass)

    def count_variants(self, sequence: str) -> int:
        """Return the number of *modified* variants of ``sequence``.

        Counts without materializing (respects the truncation cap), so
        the workload builder can size an index cheaply: the number with
        ``k`` modified residues is the ``k``-th elementary symmetric
        polynomial of the per-position choice counts.
        """
        table = self.mods.residue_deltas
        max_k = min(self.mods.max_modified_residues, len(validate_sequence(sequence)))
        with_k = [1] + [0] * max_k
        for aa in sequence:
            if aa in table:
                choices = len(table[aa])
                for k in range(max_k, 0, -1):
                    with_k[k] += with_k[k - 1] * choices
        total = sum(with_k[1:])
        if self.max_variants_per_peptide is not None:
            return min(total, self.max_variants_per_peptide)
        return total

    def expand(self, peptides: Sequence[Peptide]) -> List[Peptide]:
        """Expand every base peptide into itself plus its variants."""
        out: List[Peptide] = []
        for pep in peptides:
            out.extend(self.variants(pep))
        return out
