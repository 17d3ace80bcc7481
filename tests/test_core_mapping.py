"""Tests for the master's O(1) mapping table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouping import Grouping
from repro.core.mapping import MappingTable
from repro.core.partition import CyclicPolicy, make_policy
from repro.errors import ConfigurationError, PartitionError


def test_basic_resolution():
    table = MappingTable([np.array([5, 2]), np.array([7]), np.array([0, 1, 3])])
    assert table.n_ranks == 3
    assert table.n_entries == 6
    assert table.to_global(0, 0) == 5
    assert table.to_global(0, 1) == 2
    assert table.to_global(1, 0) == 7
    assert table.to_global(2, 2) == 3


def test_rank_sizes():
    table = MappingTable([np.array([5, 2]), np.array([], dtype=np.int64)])
    assert table.rank_size(0) == 2
    assert table.rank_size(1) == 0


def test_batch_resolution():
    table = MappingTable([np.array([5, 2, 9])])
    out = table.to_global_batch(0, np.array([2, 0]))
    assert out.tolist() == [9, 5]


def test_globals_of_view():
    table = MappingTable([np.array([5, 2]), np.array([7])])
    assert table.globals_of(1).tolist() == [7]


def test_duplicate_globals_rejected():
    with pytest.raises(PartitionError, match="duplicate"):
        MappingTable([np.array([1, 2]), np.array([2])])


@pytest.mark.parametrize(
    "ranks",
    [
        [[3, 1, 2, 1]],  # within one rank, not adjacent
        [[0, 4], [9, 7, 9]],  # within the last rank
        [[8, 5], [6], [2, 5]],  # across ranks, not adjacent after concatenation
        [[-1, 0], [-1]],  # negative ids sort first
    ],
)
def test_duplicates_within_and_across_ranks_rejected(ranks):
    with pytest.raises(PartitionError, match="duplicate"):
        MappingTable([np.array(r, dtype=np.int64) for r in ranks])


def test_empty_table_rejected():
    with pytest.raises(ConfigurationError):
        MappingTable([])


def test_local_id_out_of_range():
    table = MappingTable([np.array([5])])
    with pytest.raises(PartitionError):
        table.to_global(0, 1)
    with pytest.raises(PartitionError):
        table.to_global_batch(0, np.array([0, 1]))


def test_bad_rank_rejected():
    table = MappingTable([np.array([5])])
    with pytest.raises(ConfigurationError):
        table.to_global(1, 0)


def test_nbytes_four_per_entry():
    table = MappingTable([np.array([5, 2]), np.array([7])])
    assert table.nbytes() == 4 * 3 + 4 * 3  # entries + offsets


def test_from_assignment_roundtrip():
    sizes = np.array([4, 6, 3], dtype=np.int64)
    order = np.random.default_rng(1).permutation(13).astype(np.int64)
    g = Grouping(order=order, group_sizes=sizes)
    a = CyclicPolicy().assign(g, 4)
    table = MappingTable.from_assignment(a, g.order)
    # Every grouped position k owned by rank r appears in r's globals.
    for r in range(4):
        members = a.members(r)
        expected = order[members]
        assert table.globals_of(r).tolist() == expected.tolist()


def test_from_assignment_size_mismatch():
    g = Grouping(order=np.arange(4), group_sizes=np.array([4]))
    a = CyclicPolicy().assign(g, 2)
    with pytest.raises(PartitionError, match="global ids"):
        MappingTable.from_assignment(a, np.arange(3))


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["chunk", "cyclic", "random"]),
)
@settings(max_examples=60)
def test_roundtrip_property(n, p, policy):
    """to_global over all (rank, local) pairs recovers a permutation."""
    rng = np.random.default_rng(n * 31 + p)
    order = rng.permutation(n).astype(np.int64)
    g = Grouping(order=order, group_sizes=np.array([n], dtype=np.int64))
    a = make_policy(policy, seed=2).assign(g, p)
    table = MappingTable.from_assignment(a, g.order)
    recovered = sorted(
        table.to_global(r, l) for r in range(p) for l in range(table.rank_size(r))
    )
    assert recovered == list(range(n))
