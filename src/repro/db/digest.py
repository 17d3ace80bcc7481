"""In-silico tryptic digestion (OpenMS ``Digestor`` equivalent).

Trypsin cleaves C-terminal to lysine (K) and arginine (R) except when
the next residue is proline (P) — the classic "KR|P" rule.  Fully
tryptic digestion with up to ``missed_cleavages`` skipped sites yields
the candidate peptides; length and mass windows filter them (paper
defaults: length 6..40, mass 100..5000 Da, 2 missed cleavages).

Residues outside the canonical alphabet (X, B, Z, U, O, J from real
databases) split the protein: fragments containing them are dropped,
mirroring common search-engine behaviour.  That split is also the
validation of FASTA input: every emitted sequence is canonical by
construction.

The digest is a single pass, :func:`digest_rows`, that yields plain
``(sequence, protein_id, mass)`` rows — no :class:`Peptide` objects.
Per cleavage start the mass is one incremental left fold,
``WATER_MONO + r1 + r2 + …``: missed cleavage ``mc + 1`` extends the
fold of ``mc`` by the next segment's residues, so the result is
:func:`~repro.chem.peptide.peptide_mass` bit for bit without re-summing
any residue.  The same fold decides the mass window, exactly (see
:func:`digest_rows`).  The database build deduplicates these rows on
their sequence strings before any object exists
(:mod:`repro.db.dedup`).  :func:`peptides_from_rows` turns rows into
peptides through :meth:`Peptide._trusted
<repro.chem.peptide.Peptide._trusted>`, whose precondition — a
validated sequence, position-sorted in-range mods (here none), and
``peptide_mass``'s mass — every row meets by construction;
:func:`digest_protein` / :func:`digest_proteome` are that over
:func:`digest_rows`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.chem.peptide import Peptide
from repro.constants import (
    ALPHABET,
    DIGEST_MAX_LENGTH,
    DIGEST_MAX_MASS,
    DIGEST_MIN_LENGTH,
    DIGEST_MIN_MASS,
    DIGEST_MISSED_CLEAVAGES,
    AA_MONO,
    WATER_MONO,
)
from repro.db.fasta import FastaRecord
from repro.errors import ConfigurationError

__all__ = [
    "DigestionConfig",
    "digest_rows",
    "digest_protein",
    "digest_proteome",
    "peptides_from_rows",
    "cleavage_sites",
]

#: One digested peptide: ``(sequence, protein_id, neutral mass)``.
DigestRow = Tuple[str, int, float]

_NON_CANONICAL = re.compile(f"[^{ALPHABET}]+")
_CUT_AFTER = re.compile("[KR](?=.)", re.DOTALL)
_CUT_AFTER_UNLESS_P = re.compile("[KR](?=[^P])", re.DOTALL)


@dataclass(frozen=True, slots=True)
class DigestionConfig:
    """Digestion parameters (defaults = paper Section V-A.1).

    Attributes
    ----------
    missed_cleavages:
        Maximum number of internal cleavage sites a peptide may span.
    min_length / max_length:
        Inclusive peptide length window.
    min_mass / max_mass:
        Inclusive neutral monoisotopic mass window in Da.
    suppress_proline:
        Apply the KR|P suppression rule (trypsin does not cleave K/R
        followed by proline).
    """

    missed_cleavages: int = DIGEST_MISSED_CLEAVAGES
    min_length: int = DIGEST_MIN_LENGTH
    max_length: int = DIGEST_MAX_LENGTH
    min_mass: float = DIGEST_MIN_MASS
    max_mass: float = DIGEST_MAX_MASS
    suppress_proline: bool = True

    def __post_init__(self) -> None:
        if self.missed_cleavages < 0:
            raise ConfigurationError(
                f"missed_cleavages must be >= 0, got {self.missed_cleavages}"
            )
        if self.min_length < 1 or self.min_length > self.max_length:
            raise ConfigurationError(
                f"invalid length window [{self.min_length}, {self.max_length}]"
            )
        if self.min_mass < 0 or self.min_mass > self.max_mass:
            raise ConfigurationError(
                f"invalid mass window [{self.min_mass}, {self.max_mass}]"
            )


def cleavage_sites(sequence: str, *, suppress_proline: bool = True) -> List[int]:
    """Return the cut positions of trypsin in ``sequence``.

    A cut position ``i`` means the bond *after* residue ``i-1`` is
    cleaved, i.e. fragments are ``sequence[a:b]`` for consecutive cut
    positions ``a < b``.  The returned list always starts with 0 and
    ends with ``len(sequence)``.
    """
    pattern = _CUT_AFTER_UNLESS_P if suppress_proline else _CUT_AFTER
    return [0, *(m.end() for m in pattern.finditer(sequence)), len(sequence)]


def digest_rows(
    records: Iterable[FastaRecord],
    config: DigestionConfig = DigestionConfig(),
    *,
    first_id: int = 0,
) -> Iterator[DigestRow]:
    """Digest ``records`` into ``(sequence, protein_id, mass)`` rows.

    Protein ids count up from ``first_id`` in record order.  Rows come
    per protein in order of increasing start position, then increasing
    missed-cleavage count, matching Digestor's output order; duplicates
    are kept.

    The mass is the incremental fold described in the module docstring.
    The mass window applies to ``WATER_MONO + sum(residues)``, which
    rounds differently from the fold (and differently again on Python
    3.12+, whose ``sum`` compensates).  The two differ by less than
    ``mass_slack``, so the fold decides every fragment farther than that
    from an edge; only the rest evaluate the window's own expression.
    """
    min_len, max_len = config.min_length, config.max_length
    min_mass, max_mass = config.min_mass, config.max_mass
    # Two n-term left folds of positive terms differ by under
    # n * 2**-52 of their sum; n <= max_len near either edge.
    mass_slack = max_len * max_mass * 2.0**-50
    span = config.missed_cleavages + 1
    for protein_id, record in enumerate(records, first_id):
        for segment in _NON_CANONICAL.split(record.sequence.upper()):
            residue_masses = [AA_MONO[aa] for aa in segment]
            sites = cleavage_sites(segment, suppress_proline=config.suppress_proline)
            for si in range(len(sites) - 1):
                start = end = sites[si]
                mass = WATER_MONO
                for stop in sites[si + 1 : si + 1 + span]:
                    if stop - start > max_len:
                        break
                    for residue in residue_masses[end:stop]:
                        mass += residue
                    end = stop
                    if stop - start < min_len:
                        continue
                    if not min_mass + mass_slack < mass < max_mass - mass_slack:
                        if not min_mass - mass_slack <= mass <= max_mass + mass_slack:
                            continue
                        residues = sum(residue_masses[start:stop])
                        if not min_mass <= WATER_MONO + residues <= max_mass:
                            continue
                    yield segment[start:stop], protein_id, mass


def digest_protein(
    record: FastaRecord,
    config: DigestionConfig = DigestionConfig(),
    *,
    protein_id: int = -1,
) -> List[Peptide]:
    """Digest one protein into fully tryptic peptides (:func:`digest_rows`)."""
    return peptides_from_rows(digest_rows([record], config, first_id=protein_id))


def digest_proteome(
    records: Iterable[FastaRecord],
    config: DigestionConfig = DigestionConfig(),
) -> List[Peptide]:
    """Digest every protein of ``records``; peptides carry protein ids."""
    return peptides_from_rows(digest_rows(records, config))


def peptides_from_rows(rows: Iterable[DigestRow]) -> List[Peptide]:
    """Unmodified peptides of digest rows, through ``Peptide._trusted``.

    Digest rows meet its precondition by construction: canonical
    sequences, no mods, and the mass is ``peptide_mass``'s own fold.
    """
    trusted = Peptide._trusted
    return [trusted(sequence, (), protein_id, mass) for sequence, protein_id, mass in rows]
