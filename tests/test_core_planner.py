"""Tests for the LBE plan (group -> partition -> mapping)."""

import numpy as np
import pytest

from repro.chem.peptide import Peptide
from repro.core.grouping import GroupingConfig
from repro.core.planner import make_lbe_plan
from repro.errors import ConfigurationError
from repro.search.database import IndexedDatabase

PEPTIDES = [
    Peptide(s)
    for s in [
        "AAAAAAK", "AAAAAAR", "AAAAACK",  # one similarity family
        "WWWWWWWWK", "WWWWWWWWR",         # another
        "GGGGGGGGGGGGK",                  # loner
        "MMMMMMK", "MMMMMCK",
    ]
]

# No variants: entry ids equal base ids, so the plan's global ids are
# positions in PEPTIDES.
DB = IndexedDatabase.from_peptides(PEPTIDES, max_variants_per_peptide=0)


def test_plan_covers_all_peptides():
    assert DB.n_bases == DB.n_entries == len(PEPTIDES)
    plan = make_lbe_plan(DB, n_ranks=3, policy="cyclic")
    sizes = plan.partition_sizes()
    assert int(sizes.sum()) == len(PEPTIDES)
    all_ids = sorted(
        int(g) for r in range(3) for g in plan.rank_global_ids(r)
    )
    assert all_ids == list(range(len(PEPTIDES)))


def test_cyclic_spreads_similar_sequences():
    """The three AAAAAA* peptides must land on distinct ranks."""
    plan = make_lbe_plan(DB, n_ranks=3, policy="cyclic")
    family = {0, 1, 2}  # global ids of the AAAAAA* family
    owners = set()
    for r in range(3):
        if family & set(int(g) for g in plan.rank_global_ids(r)):
            owners.add(r)
    assert len(owners) == 3


def test_chunk_keeps_similar_sequences_together():
    plan = make_lbe_plan(DB, n_ranks=4, policy="chunk")
    family = {0, 1, 2}
    owners = set()
    for r in range(4):
        if family & set(int(g) for g in plan.rank_global_ids(r)):
            owners.add(r)
    assert len(owners) <= 2  # contiguous split: at most a boundary straddle


def test_zero_ranks_rejected():
    with pytest.raises(ConfigurationError):
        make_lbe_plan(DB, n_ranks=0, policy="chunk")


def test_grouping_config_respected():
    plan = make_lbe_plan(
        DB, n_ranks=2, policy="chunk", grouping=GroupingConfig(gsize=1)
    )
    assert plan.grouping.n_groups == len(PEPTIDES)


def test_plan_deterministic():
    a = make_lbe_plan(DB, n_ranks=3, policy="random", policy_seed=9)
    b = make_lbe_plan(DB, n_ranks=3, policy="random", policy_seed=9)
    for r in range(3):
        assert np.array_equal(a.rank_global_ids(r), b.rank_global_ids(r))
