"""Component microbenchmarks: the hot paths, measured for real.

Unlike the figure benches (one-shot experiment reproductions), these
measure steady-state throughput of the core operations with
pytest-benchmark's usual multi-round statistics:

* SLM index construction,
* shared-peak filtration of one query,
* candidate scoring of one query,
* Algorithm 1 grouping,
* the bit-parallel edit-distance kernel over one grouping round,
* the three partition policies.
"""

import numpy as np
import pytest

from repro.core.editdist import EncodedSequences
from repro.core.grouping import GroupingConfig, group_peptides, sorted_order
from repro.core.partition import make_policy
from repro.index.arena import FragmentArena
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.scoring import score_candidates
from repro.spectra.preprocess import preprocess_spectrum


@pytest.fixture(scope="module")
def workload(suite):
    return suite.workload(18.0)


@pytest.fixture(scope="module")
def built_index(workload):
    return SLMIndex(workload.database.arena_for(), SLMIndexSettings())


@pytest.fixture(scope="module")
def query(workload, built_index):
    spectrum = preprocess_spectrum(workload.spectra[0])
    fres = built_index.filter(spectrum)
    return spectrum, fres


def test_index_build(benchmark, workload):
    """Cold build over the first 5000 entries: each round quantizes and
    sorts a fresh arena."""
    arena = workload.database.arena_for()
    offsets = arena.offsets[:5001]
    mzs = arena.mzs[: offsets[-1]]
    lengths, masses = arena.lengths[:5000], arena.masses[:5000]

    index = benchmark(
        lambda: SLMIndex(
            FragmentArena(mzs, offsets, lengths=lengths, masses=masses),
            SLMIndexSettings(),
        )
    )
    assert index.n_ions > 0


def test_filter_one_query(benchmark, built_index, query):
    spectrum, _ = query
    res = benchmark(built_index.filter, spectrum)
    assert res.candidates.size > 0


def test_score_one_query(benchmark, workload, built_index, query):
    spectrum, fres = query
    out = benchmark(
        score_candidates,
        spectrum,
        workload.database.arena_for(),
        fres.candidates,
        fragment_tolerance=0.05,
    )
    assert out.candidates_scored == fres.candidates.size


def test_grouping_algorithm1(benchmark, workload):
    sequences = workload.database.base_sequences()[:3000]
    grouping = benchmark(group_peptides, sequences, GroupingConfig())
    assert grouping.n_sequences == 3000


def test_bounded_edit_distance(benchmark, workload):
    """Algorithm 1's first round: every sorted neighbour pair at once."""
    sequences = workload.database.base_sequences()
    encoded = EncodedSequences([sequences[i] for i in sorted_order(sequences)])
    seeds = np.arange(encoded.lengths.size - 1)
    dist = benchmark(encoded.distances, seeds, seeds + 1)
    assert dist.size == seeds.size and int(dist.min()) >= 0


@pytest.mark.parametrize("policy", ["chunk", "cyclic", "random"])
def test_partition_policy(benchmark, workload, policy):
    grouping = workload.database.group_bases()
    assignment = benchmark(make_policy(policy, seed=1).assign, grouping, 16)
    assert assignment.n_items == grouping.n_sequences
