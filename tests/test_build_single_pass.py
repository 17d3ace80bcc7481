"""The single-pass database build equals the validating path, bit for bit.

The build never re-derives an entry: the digest folds each mass once
per cleavage start, dedup runs on strings, and variants are made with
``Peptide._trusted`` from a cached per-residue table.  These properties
compare every piece against test-only references written the slow,
obvious way (per fragment sums, per-mod site scans, the validating
``Peptide(...)`` constructor).
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.modifications import (
    DEAMIDATION_DELTA,
    GLYGLY_DELTA,
    OXIDATION_DELTA,
    Modification,
    ModificationSet,
    VariantEnumerator,
)
from repro.chem.peptide import Peptide, peptide_mass
from repro.constants import AA_MONO, ALPHABET, ALPHABET_SET, WATER_MONO
from repro.db.dedup import deduplicate_peptides, first_occurrences
from repro.db.digest import DigestionConfig, digest_proteome, digest_rows
from repro.db.fasta import FastaRecord
from repro.errors import ConfigurationError

PAPER = (
    Modification("deamidation", "NQ", DEAMIDATION_DELTA),
    Modification("glygly", "KC", GLYGLY_DELTA),
    Modification("oxidation", "M", OXIDATION_DELTA),
)
#: K and M are each targeted by two mods, S by a negative delta, and
#: "carbamyl" lists K twice.
OVERLAPPING = PAPER + (
    Modification("carbamyl", "KKM", 43.00580594),
    Modification("dehydration", "ST", -18.0105646863),
)

#: Sequences rich in modifiable residues, with the full alphabet mixed in.
sequences = st.text(alphabet="KMNQCST" * 3 + ALPHABET, min_size=1, max_size=14)
budgets = st.sampled_from([None, 0, 1, 8])


def assert_identical(got: Peptide, want: Peptide) -> None:
    assert got == want
    assert hash(got) == hash(want)
    assert got.mass.hex() == want.mass.hex()
    assert got.annotated() == want.annotated()
    assert repr(got) == repr(want)
    assert type(got.mods) is tuple
    assert all(type(p) is int and type(d) is float for p, d in got.mods)


def reference_variant_mods(sequence, mods: ModificationSet, budget):
    """Variant mods in the documented order, from per-mod site scans."""
    site_deltas = {}
    for mod in mods:
        for pos in mod.sites(sequence):
            site_deltas.setdefault(pos, []).append(float(mod.delta))
    positions = sorted(site_deltas)
    out = []
    for k in range(1, min(mods.max_modified_residues, len(positions)) + 1):
        for combo in itertools.combinations(positions, k):
            for deltas in itertools.product(*(site_deltas[p] for p in combo)):
                out.append(tuple(zip(combo, deltas)))
    return out if budget is None else out[:budget]


@settings(max_examples=300)
@given(
    sequence=sequences,
    modifications=st.sampled_from([PAPER, OVERLAPPING]),
    max_modified=st.integers(min_value=0, max_value=5),
    budget=budgets,
    protein_id=st.integers(min_value=-1, max_value=10**6),
)
def test_trusted_variants_equal_validating_construction(
    sequence, modifications, max_modified, budget, protein_id
):
    mods = ModificationSet(modifications, max_modified_residues=max_modified)
    enum = VariantEnumerator(mods, max_variants_per_peptide=budget)
    base = Peptide(sequence, protein_id=protein_id)
    variants = list(enum.variants(base))
    assert variants[0] is base
    assert [v.mods for v in variants[1:]] == reference_variant_mods(
        sequence, mods, budget
    )
    for variant in variants[1:]:
        assert_identical(variant, Peptide(sequence, variant.mods, protein_id))
    assert enum.count_variants(sequence) == len(variants) - 1


@given(sequence=sequences, modifications=st.sampled_from([PAPER, OVERLAPPING]))
def test_site_choices_follow_site_deltas(sequence, modifications):
    mods = ModificationSet(modifications)
    choices = mods.site_choices(sequence)
    assert {c[0][0]: [d for _, d in c] for c in choices} == mods.site_deltas(sequence)
    assert [c[0][0] for c in choices] == sorted(mods.site_deltas(sequence))


def test_site_choices_grow_with_longer_sequences():
    mods = ModificationSet(PAPER)
    assert mods.site_choices("MK") == [((0, OXIDATION_DELTA),), ((1, GLYGLY_DELTA),)]
    long = "A" * 60 + "M"
    assert mods.site_choices(long) == [((60, OXIDATION_DELTA),)]
    assert mods.site_choices("AM") == [((1, OXIDATION_DELTA),)]


def test_modified_base_rejected():
    enum = VariantEnumerator(ModificationSet(PAPER))
    with pytest.raises(ConfigurationError, match="unmodified base"):
        list(enum.variants(Peptide("MK", ((0, OXIDATION_DELTA),))))


# -- digest ---------------------------------------------------------------


def reference_digest(sequence: str, config: DigestionConfig, protein_id: int):
    """The per-fragment digest: split, cut, sum each fragment from scratch."""
    segments, start = [], 0
    sequence = sequence.upper()
    for i, aa in enumerate(sequence):
        if aa not in ALPHABET_SET:
            segments.append(sequence[start:i])
            start = i + 1
    segments.append(sequence[start:])
    rows = []
    for segment in filter(None, segments):
        sites = [0]
        for i, aa in enumerate(segment[:-1]):
            if aa in "KR" and not (config.suppress_proline and segment[i + 1] == "P"):
                sites.append(i + 1)
        sites.append(len(segment))
        for si in range(len(sites) - 1):
            for sj in range(si + 1, min(si + 2 + config.missed_cleavages, len(sites))):
                fragment = segment[sites[si] : sites[sj]]
                if not config.min_length <= len(fragment) <= config.max_length:
                    continue
                filter_mass = WATER_MONO + sum(AA_MONO[aa] for aa in fragment)
                if config.min_mass <= filter_mass <= config.max_mass:
                    rows.append((fragment, protein_id, peptide_mass(fragment)))
    return rows


def hexed(rows):
    return [(s, p, m.hex()) for s, p, m in rows]


#: Proteins with lowercase, ambiguous and non-letter residues mixed in.
proteins = st.text(
    alphabet=ALPHABET * 3 + "krp" * 4 + "acdm" + "XBZUOJ*", min_size=0, max_size=160
)
configs = st.builds(
    DigestionConfig,
    missed_cleavages=st.integers(min_value=0, max_value=3),
    min_length=st.integers(min_value=1, max_value=8),
    max_length=st.integers(min_value=8, max_value=45),
    min_mass=st.sampled_from([0.0, 100.0, 500.0]),
    max_mass=st.sampled_from([1500.0, 5000.0, 1e9]),
    suppress_proline=st.booleans(),
)


@settings(max_examples=300)
@given(protein=proteins, config=configs, protein_id=st.integers(-1, 50))
def test_digest_rows_match_per_fragment_reference(protein, config, protein_id):
    rows = list(digest_rows([FastaRecord("p", protein)], config, first_id=protein_id))
    assert hexed(rows) == hexed(reference_digest(protein, config, protein_id))


@given(protein=st.text(alphabet=ALPHABET, min_size=1, max_size=120), data=st.data())
def test_mass_window_edges_decided_exactly(protein, data):
    """A window edge placed exactly on a fragment's historical filter
    mass (or one ulp past it) includes (excludes) it exactly as the
    per-fragment expression does."""
    loose = DigestionConfig(
        missed_cleavages=2, min_length=1, max_length=1000, min_mass=0, max_mass=1e9
    )
    fragments = reference_digest(protein, loose, 0)
    fragment = data.draw(st.sampled_from(fragments))[0]
    edge = WATER_MONO + sum(AA_MONO[aa] for aa in fragment)
    for lo, hi in [
        (edge, edge),
        (edge, 1e9),
        (0.0, edge),
        (math.nextafter(edge, math.inf), 1e9),
        (0.0, math.nextafter(edge, 0.0)),
    ]:
        config = DigestionConfig(
            missed_cleavages=2, min_length=1, max_length=1000, min_mass=lo, max_mass=hi
        )
        got = list(digest_rows([FastaRecord("p", protein)], config))
        assert hexed(got) == hexed(reference_digest(protein, config, 0))


@given(
    proteins=st.lists(st.text(alphabet="AKRPGM", min_size=1, max_size=60), max_size=6)
)
def test_digest_wrappers_are_trusted_peptides_of_the_rows(proteins):
    records = [FastaRecord(f"p{i}", s) for i, s in enumerate(proteins)]
    config = DigestionConfig(min_length=1, min_mass=0.0)
    rows = list(digest_rows(records, config))
    peptides = digest_proteome(records, config)
    assert [(p.sequence, p.protein_id, p.mass) for p in peptides] == rows
    for pep in peptides:
        assert_identical(pep, Peptide(pep.sequence, protein_id=pep.protein_id))
    unique = first_occurrences(rows)
    assert [p.sequence for p in deduplicate_peptides(peptides)] == [r[0] for r in unique]
    assert [p.protein_id for p in deduplicate_peptides(peptides)] == [r[1] for r in unique]
