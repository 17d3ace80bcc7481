"""Tests for Algorithm 1 (peptide sequence grouping).

The property suite at the end pins :func:`group_peptides` (vectorised
rounds of the bit-parallel kernel) to :func:`scalar_greedy_scan`, a
**test-only** copy of the one-comparison-at-a-time scan it replaced.
Inputs are drawn from a numpy seed that Hypothesis passes as an explicit
argument, so a falsifying example prints it, and ``print_blob`` adds the
reproduction decorator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.editdist import edit_distance
from repro.core.grouping import Grouping, GroupingConfig, group_peptides, sorted_order
from repro.errors import ConfigurationError, PartitionError

SEQS = st.lists(
    st.text(alphabet="ACDEFGHIK", min_size=1, max_size=15), min_size=0, max_size=60
)


def test_empty_input():
    g = group_peptides([])
    assert g.n_groups == 0
    assert g.n_sequences == 0


def test_single_sequence():
    g = group_peptides(["PEPTIDE"])
    assert g.n_groups == 1
    assert list(g.group_sizes) == [1]


def test_sorted_order_length_then_lex():
    seqs = ["CCC", "AA", "AAAA", "AB".replace("B", "C"), "AAA"]
    order = sorted_order(seqs)
    ordered = [seqs[i] for i in order]
    assert ordered == sorted(seqs, key=lambda s: (len(s), s))


def test_similar_sequences_grouped():
    # Near-identical sequences of the same length group together
    # under criterion 2 (normalized distance well below 0.86).
    seqs = ["AAAAAAAK", "AAAAAAAR", "AAAAAACK"]
    g = group_peptides(seqs, GroupingConfig(criterion=2))
    assert g.n_groups == 1


def test_dissimilar_sequences_split_criterion1():
    seqs = ["AAAAAAAA", "KKKKKKKK"]  # distance 8, cutoff max(2, 4) = 4
    g = group_peptides(seqs, GroupingConfig(criterion=1))
    assert g.n_groups == 2


def test_gsize_cap():
    seqs = ["AAAA"] * 45
    g = group_peptides(seqs, GroupingConfig(gsize=20))
    assert list(g.group_sizes) == [20, 20, 5]


def test_gsize_one_means_singletons():
    seqs = ["AAAA", "AAAC", "AAAD"]
    g = group_peptides(seqs, GroupingConfig(gsize=1))
    assert g.n_groups == 3


def test_criterion1_cutoff_formula():
    cfg = GroupingConfig(criterion=1, d=2)
    assert cfg.cutoff_for("AAAA", "CCCCCC") == 3  # max(2, 6//2)
    assert cfg.cutoff_for("AAAA", "CC") == 2  # max(2, 1)


def test_criterion2_cutoff_formula():
    cfg = GroupingConfig(criterion=2, d_prime=0.5)
    assert cfg.cutoff_for("AAAA", "CCCCCC") == 3  # int(0.5 * 6)
    assert cfg.cutoff_for("AAAAAAAA", "CC") == 4  # int(0.5 * 8)


def test_group_bounds_and_group_of():
    g = group_peptides(["AAAA", "AAAC", "KKKKKKKK", "WWWWWWWW"],
                       GroupingConfig(criterion=1))
    bounds = g.group_bounds()
    assert bounds[0] == 0 and bounds[-1] == 4
    gof = g.group_of()
    assert gof.size == 4
    assert np.all(np.diff(gof) >= 0)


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        GroupingConfig(criterion=3)
    with pytest.raises(ConfigurationError):
        GroupingConfig(d=-1)
    with pytest.raises(ConfigurationError):
        GroupingConfig(d_prime=1.5)
    with pytest.raises(ConfigurationError):
        GroupingConfig(gsize=0)


def test_grouping_invariants_validated():
    with pytest.raises(PartitionError):
        Grouping(order=np.arange(3), group_sizes=np.array([2, 2]))
    with pytest.raises(PartitionError):
        Grouping(order=np.arange(2), group_sizes=np.array([2, 0]))


@given(SEQS, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=25))
@settings(max_examples=60)
def test_grouping_is_partition_of_input(seqs, criterion, gsize):
    g = group_peptides(seqs, GroupingConfig(criterion=criterion, gsize=gsize))
    # order is a permutation of the input positions
    assert sorted(g.order.tolist()) == list(range(len(seqs)))
    # group sizes cover exactly the input and respect the cap
    assert int(g.group_sizes.sum()) == len(seqs)
    if len(seqs):
        assert int(g.group_sizes.max()) <= gsize


@given(SEQS)
@settings(max_examples=40)
def test_groups_are_contiguous_in_sorted_order(seqs):
    """The grouped order equals the (length, lex) sorted order."""
    g = group_peptides(seqs)
    ordered = [seqs[i] for i in g.order]
    assert ordered == sorted(seqs, key=lambda s: (len(s), s))


@given(SEQS, st.integers(min_value=1, max_value=2))
@settings(max_examples=40)
def test_members_within_cutoff_of_seed(seqs, criterion):
    """Every non-seed member is within the cutoff of its group seed."""
    cfg = GroupingConfig(criterion=criterion)
    g = group_peptides(seqs, cfg)
    ordered = [seqs[i] for i in g.order]
    pos = 0
    for size in g.group_sizes:
        seed = ordered[pos]
        for k in range(pos + 1, pos + int(size)):
            member = ordered[k]
            assert edit_distance(seed, member) <= cfg.cutoff_for(seed, member)
        pos += int(size)


def test_deterministic():
    seqs = ["AAK", "ACK", "GGK", "GGR", "WWWWK"] * 4
    a = group_peptides(seqs)
    b = group_peptides(seqs)
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.group_sizes, b.group_sizes)


# -- property suite: vectorised rounds == the scalar greedy scan --------

PROPERTY = settings(max_examples=120, deadline=None, print_blob=True)

ALPHABETS = ["ACDEFGHIKLMNPQRSTVWY", "AC", "αβγ☃é𝔸"]
#: A symbol in none of the alphabets: substituting it at k distinct
#: positions puts a mutant at exactly k edits from its source.
FRESH = "Z"


def scalar_greedy_scan(sequences, config):
    """Algorithm 1 exactly as the paper writes it: one comparison per step."""
    n = len(sequences)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = sorted(range(n), key=lambda i: (len(sequences[i]), sequences[i]))
    sizes = [1]
    seed = sequences[order[0]]
    for k in range(1, n):
        seq = sequences[order[k]]
        if config.criterion == 1:
            cutoff = max(config.d, len(seq) // 2)
        else:
            cutoff = int(config.d_prime * max(len(seed), len(seq)))
        if edit_distance(seed, seq) > cutoff or sizes[-1] == config.gsize:
            seed = seq
            sizes.append(1)
        else:
            sizes[-1] += 1
    return np.asarray(order, dtype=np.int64), np.asarray(sizes, dtype=np.int64)


def near_cutoff_families(rng, alphabet, config, n_families):
    """Random bases (lengths 0-70) plus mutants at cutoff-1/cutoff/cutoff+1.

    Mutations substitute :data:`FRESH` at the tail, so a mutant sorts
    next to its base and sits at an exactly known distance from it.
    """
    out = []
    for _ in range(n_families):
        length = int(rng.choice([rng.integers(0, 71), rng.integers(60, 70)]))
        base = "".join(rng.choice(list(alphabet), size=length))
        out.append(base)
        cutoff = config.cutoff_for(base, base)
        for edits in (cutoff - 1, cutoff, cutoff + 1):
            edits = min(max(edits, 0), length)
            if rng.random() < 0.7:
                out.append(base[: length - edits] + FRESH * edits)
        out.extend([base] * int(rng.integers(0, 3)))  # repeats
    return out


CONFIGS = st.builds(
    GroupingConfig,
    criterion=st.sampled_from([1, 2]),
    d=st.sampled_from([0, 1, 2, 3, 40]),
    d_prime=st.one_of(
        st.sampled_from([0.0, 0.86, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
    ),
    gsize=st.integers(1, 25),
)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    alphabet=st.sampled_from(ALPHABETS),
    config=CONFIGS,
    n_families=st.integers(1, 12),
)
def test_vectorised_rounds_equal_scalar_greedy_scan(seed, alphabet, config, n_families):
    rng = np.random.default_rng(seed)
    sequences = near_cutoff_families(rng, alphabet, config, n_families)
    rng.shuffle(sequences)
    got = group_peptides(sequences, config)
    order, sizes = scalar_greedy_scan(sequences, config)
    assert np.array_equal(got.order, order)
    assert np.array_equal(got.group_sizes, sizes)


@PROPERTY
@given(seqs=SEQS, config=CONFIGS)
def test_vectorised_rounds_equal_scalar_scan_on_short_peptides(seqs, config):
    got = group_peptides(seqs, config)
    order, sizes = scalar_greedy_scan(seqs, config)
    assert np.array_equal(got.order, order)
    assert np.array_equal(got.group_sizes, sizes)


@pytest.mark.parametrize("length", [63, 64, 65, 70])
def test_word_boundary_lengths(length):
    """Seeds and candidates straddling the 64-symbol word boundary."""
    base = "AC" * 40
    seqs = [base[:length], base[: length - 1] + "Z", base[:length][::-1], base[: length + 1]]
    for config in (GroupingConfig(criterion=1, d=0), GroupingConfig(d_prime=0.02)):
        got = group_peptides(seqs, config)
        order, sizes = scalar_greedy_scan(seqs, config)
        assert np.array_equal(got.order, order)
        assert np.array_equal(got.group_sizes, sizes)
