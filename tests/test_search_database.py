"""Tests for the IndexedDatabase (entries, offsets, grouping expansion)."""

import numpy as np
import pytest

from repro.chem.modifications import Modification, ModificationSet
from repro.chem.peptide import Peptide
from repro.core.grouping import Grouping, GroupingConfig
from repro.errors import ConfigurationError, PartitionError
from repro.search.database import IndexedDatabase

BASES = [Peptide("MAAAK"), Peptide("AAAAK"), Peptide("MMCCK")]
MODS = ModificationSet((Modification("ox", "M", 16.0),), max_modified_residues=2)


def test_entries_base_major_unmodified_first():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    # MAAAK: base + 1 variant; AAAAK: base; MMCCK: base + 3 variants.
    assert db.n_bases == 3
    assert db.n_entries == 2 + 1 + 4
    assert db.entries[0] == BASES[0]
    assert db.entries[2] == BASES[1]
    assert db.entries[3] == BASES[2]
    assert not db.entries[0].is_modified
    assert db.entries[1].is_modified


def test_entry_offsets():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    assert db.entry_offsets.tolist() == [0, 2, 3, 7]
    assert db.entry_counts().tolist() == [2, 1, 4]


def test_base_of_entry():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    assert db.base_of_entry(0) == 0
    assert db.base_of_entry(1) == 0
    assert db.base_of_entry(2) == 1
    assert db.base_of_entry(6) == 2


def test_base_of_entry_out_of_range():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    with pytest.raises(ConfigurationError):
        db.base_of_entry(7)


def test_variant_cap():
    db = IndexedDatabase.from_peptides(BASES, MODS, max_variants_per_peptide=1)
    assert db.entry_counts().tolist() == [2, 1, 2]


def test_inconsistent_offsets_rejected():
    with pytest.raises(ConfigurationError):
        IndexedDatabase(BASES, list(BASES), np.array([0, 1, 2]))
    with pytest.raises(ConfigurationError):
        IndexedDatabase(BASES, list(BASES), np.array([0, 1, 2, 5]))


def test_expand_grouping_contiguity():
    """Entries of one base stay contiguous after expansion."""
    db = IndexedDatabase.from_peptides(BASES, MODS)
    base_grouping = db.group_bases(GroupingConfig(gsize=2))
    expanded = db.expand_grouping(base_grouping)
    assert expanded.n_sequences == db.n_entries
    assert int(expanded.group_sizes.sum()) == db.n_entries
    # Walk the expanded order: each base's entry ids appear as a
    # contiguous ascending run.
    order = expanded.order.tolist()
    seen_bases = []
    i = 0
    while i < len(order):
        b = db.base_of_entry(order[i])
        lo, hi = db.entry_offsets[b], db.entry_offsets[b + 1]
        assert order[i : i + (hi - lo)] == list(range(lo, hi))
        seen_bases.append(b)
        i += hi - lo
    assert sorted(seen_bases) == [0, 1, 2]


def test_expand_grouping_group_sizes_sum_entry_counts():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    base_grouping = db.group_bases(GroupingConfig(gsize=20))
    expanded = db.expand_grouping(base_grouping)
    assert expanded.n_groups == base_grouping.n_groups


def test_expand_grouping_wrong_size_rejected():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    bad = Grouping(order=np.arange(2), group_sizes=np.array([2]))
    with pytest.raises(PartitionError):
        db.expand_grouping(bad)


def test_fragment_cache_shared_and_correct():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    arena_a = db.arena_for()
    arena_b = db.arena_for()
    assert arena_a is arena_b  # cached
    assert arena_a.n_entries == db.n_entries
    from reference import fragments_of
    from repro.chem.fragments import fragment_mzs

    for i, pep in enumerate(db.entries):
        assert np.allclose(fragments_of(arena_a, i), fragment_mzs(pep))


def test_grouping_cache():
    db = IndexedDatabase.from_peptides(BASES, MODS)
    a = db.group_bases()
    b = db.group_bases()
    assert a is b
    c = db.group_bases(GroupingConfig(gsize=1))
    assert c is not a


def test_build_full_pipeline(small_db):
    assert small_db.n_bases > 100
    assert small_db.n_entries > small_db.n_bases
    # Entries of each base share the base's sequence.
    for b in (0, 1, small_db.n_bases - 1):
        lo, hi = small_db.entry_offsets[b], small_db.entry_offsets[b + 1]
        seqs = {small_db.entries[i].sequence for i in range(lo, hi)}
        assert seqs == {small_db.base_peptides[b].sequence}


def test_base_sequences(small_db):
    seqs = small_db.base_sequences()
    assert len(seqs) == small_db.n_bases
    assert len(set(seqs)) == len(seqs)  # deduplicated
