"""Property suite: the columnar merge equals the per-spectrum top-k.

:func:`~repro.search.rank.merge_rank_payloads` maps every rank's
top-k block to global ids and merges all of them with one ``lexsort``.
Pinned here against :func:`~repro.search.serial.top_k_psms` run per
spectrum over the union of the rank lists, in rank order — the merge it
replaced — including degraded (``None``) ranks, spectra with no PSMs,
NaN and tied scores, and ``top_k`` larger than any list.

Inputs are drawn by Hypothesis (the numpy seed is an explicit argument,
so a falsifying example prints it, and ``print_blob`` adds the
reproduction decorator).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.mapping import MappingTable
from repro.search.rank import RankPsms, merge_rank_payloads
from repro.search.serial import top_k_psms
from repro.spectra.model import Spectrum

PROPERTY = hsettings(max_examples=200, deadline=None, print_blob=True)


def psm_key(p):
    """Every field, with the score's bytes (NaN != NaN as a float)."""
    return (
        p.scan_id, type(p.scan_id),
        p.entry_id, type(p.entry_id),
        np.float64(p.score).tobytes(), type(p.score),
        p.shared_peaks, type(p.shared_peaks),
    )


def draw_block(rng, n_spectra, rank_size, k, levels, with_nan):
    """One rank's top-k block: up to ``k`` distinct local ids per spectrum."""
    parts = []
    for _ in range(n_spectra):
        size = int(rng.integers(0, min(k, rank_size) + 1)) if rng.random() < 0.8 else 0
        ids = rng.permutation(rank_size)[:size].astype(np.int64)
        scores = rng.choice(levels, size)
        if with_nan and size:
            scores[rng.integers(0, size, max(1, size // 3))] = np.nan
        parts.append((ids, scores, rng.integers(0, 40, size).astype(np.int64)))
    bounds = np.zeros(n_spectra + 1, np.int64)
    np.cumsum([ids.size for ids, _, _ in parts], out=bounds[1:])
    ids, scores, shared = (
        np.concatenate([*(part[j] for part in parts), np.empty(0, dtype)])
        for j, dtype in enumerate((np.int64, np.float64, np.int64))
    )
    return RankPsms(bounds, ids, scores, shared), parts


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ranks=st.integers(1, 4),
    n_spectra=st.integers(0, 6),
    top_k=st.integers(1, 8),
    rank_k=st.sampled_from(["top_k", "smaller", "larger"]),
    n_levels=st.sampled_from([1, 2, 50]),
    with_nan=st.booleans(),
    degraded=st.booleans(),
)
def test_columnar_merge_equals_top_k_psms_over_the_union(
    seed, n_ranks, n_spectra, top_k, rank_k, n_levels, with_nan, degraded
):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 12, n_ranks)
    mapping = MappingTable(np.split(rng.permutation(int(sizes.sum())), np.cumsum(sizes)[:-1]))
    # Ranks may keep fewer or more than the merge's top_k per spectrum.
    k = {"top_k": top_k, "smaller": max(1, top_k // 2), "larger": 2 * top_k}[rank_k]
    levels = rng.uniform(0.0, 30.0, n_levels)
    spectra = [
        Spectrum(int(rng.integers(0, 10**6)), 500.0, 2, np.empty(0), np.empty(0))
        for _ in range(n_spectra)
    ]
    gathered, lists = [], []
    for rank in range(n_ranks):
        block, parts = draw_block(rng, n_spectra, int(sizes[rank]), k, levels, with_nan)
        counts = rng.integers(0, 100, n_spectra).astype(np.int64)
        down = degraded and rng.random() < 0.4
        # The block crosses a pipe in the service: merge what was unpickled.
        wired = pickle.loads(pickle.dumps((counts, block), pickle.HIGHEST_PROTOCOL))
        gathered.append(None if down else wired)
        lists.append(None if down else (counts, parts))

    results, n_psms = merge_rank_payloads(gathered, spectra, mapping, top_k)

    assert len(results) == n_spectra
    assert n_psms == sum(len(r.psms) for r in results)
    for si, (spectrum, result) in enumerate(zip(spectra, results)):
        live = [(rank, got) for rank, got in enumerate(lists) if got is not None]
        gids = [mapping.to_global_batch(rank, parts[si][0]) for rank, (_, parts) in live]
        want = top_k_psms(
            spectrum.scan_id,
            np.concatenate([*gids, np.empty(0, np.int64)]),
            np.concatenate([*(parts[si][1] for _, (_, parts) in live), np.empty(0)]),
            np.concatenate([*(parts[si][2] for _, (_, parts) in live), np.empty(0, np.int64)]),
            top_k,
        )
        assert result.scan_id == spectrum.scan_id
        assert result.n_candidates == sum(int(counts[si]) for _, (counts, _) in live)
        assert type(result.n_candidates) is int
        assert [psm_key(p) for p in result.psms] == [psm_key(p) for p in want]


def test_rank_psms_views_and_wire_form():
    block = RankPsms(
        bounds=np.array([0, 2, 2, 3]),
        ids=np.array([4, 1, 7]),
        scores=np.array([3.0, 2.0, 1.0]),
        shared=np.array([5, 6, 7]),
    )
    assert len(block) == 3
    rows = [tuple(a.tolist() for a in row) for row in block]
    assert rows == [([4, 1], [3.0, 2.0], [5, 6]), ([], [], []), ([7], [1.0], [7])]
    assert [tuple(a.tolist() for a in block[i]) for i in range(3)] == rows
    assert tuple(a.tolist() for a in block[-1]) == rows[-1]
    with pytest.raises(IndexError):
        block[3]
    ids, _, _ = block[0]
    assert ids.base is block.ids  # a view, not a copy
    wired = pickle.loads(pickle.dumps(block, pickle.HIGHEST_PROTOCOL))
    assert [tuple(a.tolist() for a in row) for row in wired] == rows
