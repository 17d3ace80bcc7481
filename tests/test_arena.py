"""Tests for the flat CSR fragment arena and its bit-identity guarantees.

The arena is the only input the index and the scorer take, so it must
be invisible in results: every score, matched count, work counter, and
top-k ordering must equal what per-peptide fragment arrays produce.
The references in ``tests/reference.py`` regenerate fragments per
peptide — :func:`~reference.regenerated_score` for scoring,
:func:`~reference.bruteforce_filter` for filtration — and these tests
pin the arena path against both, across policies, rank counts, and the
awkward edge cases (zero candidates, zero-fragment peptides, empty
spectra).
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from reference import (
    arena_of,
    bruteforce_filter,
    fragments_of,
    index_over,
    regenerated_score,
)
from repro.chem.fragments import FRAGMENT_BLOCK, FragmentationSettings, fragment_mzs
from repro.chem.peptide import Peptide
from repro.errors import ConfigurationError
from repro.index import arena as arena_module
from repro.index.arena import (
    INT32_LIMIT,
    FragmentArena,
    Workspace,
    bucket_major_order,
    concat_ranges,
)
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import IndexedDatabase
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.scoring import score_candidates, score_many
from repro.search.serial import SerialSearchEngine
from repro.spectra.model import Spectrum
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

PEPTIDES = [
    Peptide("AAAGGGK"),
    Peptide("A"),  # single residue: zero fragments
    Peptide("CCDDEEK"),
    Peptide("MMNNQQR"),
    Peptide("WWYYFFK"),
]


def spectrum_of(peptide, scan=1, charge=2):
    from repro.constants import PROTON

    mzs = fragment_mzs(peptide)
    return Spectrum(
        scan_id=scan,
        precursor_mz=(peptide.mass + charge * PROTON) / charge,
        charge=charge,
        mzs=mzs,
        intensities=np.ones_like(mzs),
    )


# -- concat_ranges -----------------------------------------------------


@hsettings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 20)), min_size=0, max_size=12
    )
)
def test_concat_ranges_matches_naive(pairs):
    starts = np.array([a for a, _ in pairs], dtype=np.int64)
    stops = starts + np.array([w for _, w in pairs], dtype=np.int64)
    expected = (
        np.concatenate(
            [np.arange(a, b, dtype=np.int64) for a, b in zip(starts, stops)]
        )
        if pairs
        else np.empty(0, dtype=np.int64)
    )
    got = concat_ranges(starts, stops)
    assert np.array_equal(got, expected)
    # Workspace variant returns the same values as a scratch view.
    ws = Workspace()
    got_ws = concat_ranges(starts, stops, workspace=ws)
    assert np.array_equal(got_ws, expected)


def test_concat_ranges_skips_empty_and_reversed():
    got = concat_ranges(np.array([5, 9, 2]), np.array([5, 12, 1]))
    assert got.tolist() == [9, 10, 11]


def test_concat_ranges_workspace_result_is_fresh():
    """The branch-free kernel returns a new array every call — keeping
    a previous result across calls must be safe (only the iota scratch
    is shared, and it is read-only by convention)."""
    ws = Workspace()
    first = concat_ranges(np.array([3]), np.array([6]), workspace=ws)
    second = concat_ranges(np.array([10]), np.array([13]), workspace=ws)
    assert first.tolist() == [3, 4, 5]
    assert second.tolist() == [10, 11, 12]
    second[0] = -1  # mutating one result must not corrupt the other
    assert first.tolist() == [3, 4, 5]


def test_workspace_reuses_and_grows():
    ws = Workspace()
    a = ws.take("x", 10, np.int64)
    b = ws.take("x", 8, np.int64)
    assert a.base is b.base  # same backing buffer
    big = ws.take("x", 100_000, np.int64)
    assert big.size == 100_000
    f = ws.take("x", 8, np.float64)  # same name, new dtype → distinct buffer
    assert f.dtype == np.float64


# -- arena structure ---------------------------------------------------


def test_arena_matches_per_peptide_arrays():
    arena = FragmentArena.from_peptides(PEPTIDES)
    assert arena.n_entries == len(PEPTIDES)
    expected = [fragment_mzs(p) for p in PEPTIDES]
    assert arena.n_ions == sum(a.size for a in expected)
    for i, exp in enumerate(expected):
        assert np.array_equal(fragments_of(arena, i), exp)
    assert arena.counts.tolist() == [a.size for a in expected]
    assert arena.counts[1] == 0  # zero-fragment peptide
    assert arena.lengths.tolist() == [p.length for p in PEPTIDES]
    assert np.array_equal(
        arena.masses, np.array([p.mass for p in PEPTIDES], dtype=np.float32)
    )


@pytest.mark.parametrize("n", [FRAGMENT_BLOCK - 1, FRAGMENT_BLOCK, FRAGMENT_BLOCK + 1])
def test_arena_blocks_equal_one_row_runs(small_db, n):
    """The blocked build equals one kernel row per entry, byte for byte
    (``test_chem_fragments`` pins the one-row result to the
    per-peptide loop)."""
    entries = [p for p in small_db.entries if p.is_modified][:n]
    assert len(entries) == n
    settings = FragmentationSettings(charges=(1, 2))
    arena = FragmentArena.from_peptides(entries, settings)
    rows = arena_of([fragment_mzs(p, settings) for p in entries])
    assert arena.mzs.tobytes() == rows.mzs.tobytes()
    assert arena.offsets.tobytes() == rows.offsets.tobytes()


def test_arena_buckets_per_resolution():
    """Each call quantizes afresh: equal ids, never a kept array."""
    arena = FragmentArena.from_peptides(PEPTIDES)
    b1 = arena.buckets_for(0.01)
    again = arena.buckets_for(0.01)
    assert again is not b1 and np.array_equal(again, b1)
    expected = np.floor(arena.mzs * (1.0 / 0.01)).astype(np.int64)
    assert np.array_equal(b1, expected)
    assert not np.array_equal(arena.buckets_for(0.5), b1)


def test_arena_take_gathers_everything():
    arena = FragmentArena.from_peptides(PEPTIDES)
    ids = np.array([4, 1, 2], dtype=np.int64)
    sub = arena.take(ids)
    assert sub.n_entries == 3
    for j, i in enumerate(ids):
        assert np.array_equal(fragments_of(sub, j), fragments_of(arena, int(i)))
    assert sub.lengths.tolist() == [PEPTIDES[int(i)].length for i in ids]
    assert np.array_equal(sub.masses, arena.masses[ids])
    # the sub-arena's own quantization is the master's, gathered
    assert np.array_equal(sub.buckets_for(0.01), arena.buckets_for(0.01)[
        concat_ranges(arena.offsets[ids], arena.offsets[ids + 1])
    ])


def test_arena_gather_flat_with_duplicates():
    arena = FragmentArena.from_peptides(PEPTIDES)
    ids = np.array([2, 2, 1, 0], dtype=np.int64)
    flat, sizes = arena.gather_flat(ids)
    expected = np.concatenate([fragment_mzs(PEPTIDES[int(i)]) for i in ids])
    assert np.array_equal(flat, expected)
    assert sizes.tolist() == [arena.counts[int(i)] for i in ids]


def test_arena_validation():
    one = dict(lengths=np.array([1]), masses=np.array([0.0]))
    with pytest.raises(ConfigurationError):
        FragmentArena(np.zeros(3), np.array([0, 2]), **one)  # offsets end short
    with pytest.raises(ConfigurationError):
        FragmentArena(np.zeros(2), np.array([1, 2]), **one)  # offsets not 0-based
    with pytest.raises(ConfigurationError, match="lengths"):
        FragmentArena(
            np.zeros(2), np.array([0, 2]), lengths=np.array([1, 2]), masses=np.zeros(1)
        )
    with pytest.raises(ConfigurationError, match="masses"):
        FragmentArena(
            np.zeros(2), np.array([0, 2]), lengths=np.array([1]), masses=np.zeros(2)
        )


def test_arena_requires_lengths_and_masses():
    """Every arena is complete: no kernel has a fallback for missing metadata."""
    with pytest.raises(TypeError):
        FragmentArena(np.zeros(2), np.array([0, 2]))
    with pytest.raises(TypeError):
        FragmentArena(np.zeros(2), np.array([0, 2]), lengths=np.array([1]))


def test_empty_arena():
    arena = FragmentArena.from_peptides([])
    assert arena.n_entries == 0
    assert arena.n_ions == 0
    sub = arena.take(np.empty(0, dtype=np.int64))
    assert sub.n_entries == 0
    idx = SLMIndex(arena, SLMIndexSettings())
    assert idx.n_ions == 0


# -- int32 quantization and its guards ---------------------------------


def _one_entry_arena(mzs):
    mzs = np.asarray(mzs, dtype=np.float64)
    return FragmentArena(
        mzs, np.array([0, mzs.size]), lengths=np.array([1]), masses=np.array([0.0])
    )


def test_quantize_is_int32():
    arena = FragmentArena.from_peptides(PEPTIDES)
    buckets, order = arena.quantize(0.01)
    assert buckets.dtype == order.dtype == np.int32
    assert np.array_equal(buckets, arena.buckets_for(0.01))
    assert np.array_equal(order, np.argsort(buckets, kind="stable"))
    sub_buckets, sub_order = arena.take(np.array([4, 2, 0])).quantize(0.01)
    assert sub_buckets.dtype == sub_order.dtype == np.int32
    assert SLMIndex(arena, SLMIndexSettings()).bucket_offsets.dtype == np.int32


def test_arena_has_no_slot_for_quantization_state():
    """Index builds leave nothing behind because the arena cannot hold it."""
    assert set(FragmentArena.__slots__) == {
        "mzs", "offsets", "lengths", "masses", "_counts", "__weakref__"
    }
    arena = FragmentArena.from_peptides(PEPTIDES)
    SLMIndex(arena, SLMIndexSettings())
    ChunkedIndex(arena, SLMIndexSettings(precursor_tolerance=1.0))
    assert arena.nbytes == sum(
        getattr(arena, name).nbytes for name in ("mzs", "offsets", "lengths", "masses")
    )


def test_blocked_quantization_equals_one_pass(small_db, monkeypatch):
    """Blocks (here 7 ions, so most blocks straddle entries) change no bucket id."""
    monkeypatch.setattr(arena_module, "_QUANTIZE_BLOCK", 7)
    arena = small_db.arena_for()
    fresh = FragmentArena(
        arena.mzs, arena.offsets, lengths=arena.lengths, masses=arena.masses
    )
    for r in (0.01, 0.37):
        assert np.array_equal(
            fresh.buckets_for(r), np.floor(arena.mzs * (1.0 / r)).astype(np.int64)
        )


def test_bucket_id_at_the_int32_edge():
    top = float(INT32_LIMIT - 1)
    arena = _one_entry_arena([1.0, top + 0.5])
    assert arena.buckets_for(1.0).tolist() == [1, INT32_LIMIT - 1]
    assert arena.buckets_for(1.0).dtype == np.int32


def test_bucket_id_past_int32_raises():
    with pytest.raises(ConfigurationError, match="2\\^31"):
        _one_entry_arena([1.0, float(INT32_LIMIT)]).buckets_for(1.0)
    with pytest.raises(ConfigurationError, match="coarser resolution"):
        _one_entry_arena([1000.0]).buckets_for(1e-7)


def test_arena_at_the_int32_ion_limit_raises():
    """2^31 ions cannot be addressed by int32 positions (no copy made here)."""
    huge = np.broadcast_to(np.float64(100.0), (INT32_LIMIT,))
    with pytest.raises(ConfigurationError, match="ion limit"):
        FragmentArena(
            huge,
            np.array([0, INT32_LIMIT]),
            lengths=np.array([1]),
            masses=np.array([0.0]),
        )


# -- packed-key bucket sort == stable argsort ---------------------------

INT32_MIN = -INT32_LIMIT
#: Few distinct values (so ties are common) including both int32 extremes.
TIE_HEAVY_BUCKETS = st.sampled_from(
    [INT32_MIN, INT32_MIN + 1, -7, -1, 0, 1, 3, INT32_LIMIT - 1]
)


def _stable_order(buckets):
    return np.argsort(np.asarray(buckets, dtype=np.int32), kind="stable").astype(np.int32)


@hsettings(max_examples=200, deadline=None)
@given(
    buckets=st.lists(
        TIE_HEAVY_BUCKETS | st.integers(INT32_MIN, INT32_LIMIT - 1), max_size=300
    ),
    block=st.sampled_from([1, 2, 7, 64, 1 << 16]),
)
@example(buckets=[], block=1 << 16)
@example(buckets=[5], block=1 << 16)
@example(buckets=[INT32_MIN], block=1)
@example(buckets=[INT32_LIMIT - 1], block=1)
@example(buckets=[3] * 40, block=7)
@example(buckets=[INT32_MIN] * 33, block=1 << 16)
@example(buckets=[-1] * 17, block=2)
def test_packed_sort_equals_stable_argsort(buckets, block):
    """Bucket-major, ties by position, whatever the ids and block size:
    empty, single and all-equal arrays and both int32 extremes included."""
    with patch.object(arena_module, "_QUANTIZE_BLOCK", block):
        order = bucket_major_order(np.asarray(buckets, dtype=np.int32))
    assert order.dtype == np.int32
    assert np.array_equal(order, _stable_order(buckets))


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("n_blocks", [1, 2])
def test_packed_sort_across_block_boundaries(n_blocks, delta):
    """Lengths straddling real block multiples, with heavy ties across blocks."""
    n = n_blocks * arena_module._QUANTIZE_BLOCK + delta
    rng = np.random.default_rng(n)
    buckets = rng.integers(-40, 40, size=n).astype(np.int32)
    buckets[::997] = INT32_MIN
    buckets[1::991] = INT32_LIMIT - 1
    assert np.array_equal(bucket_major_order(buckets), _stable_order(buckets))


@pytest.mark.parametrize("index_type", [SLMIndex, ChunkedIndex])
def test_index_build_at_the_int32_ion_limit_raises(index_type, monkeypatch):
    arena = FragmentArena.from_peptides(PEPTIDES)
    monkeypatch.setattr(FragmentArena, "n_ions", property(lambda self: INT32_LIMIT))
    with pytest.raises(ConfigurationError, match="ion limit"):
        index_type(arena, SLMIndexSettings(precursor_tolerance=1.0))


# -- index construction equivalence ------------------------------------


def test_index_from_arena_identical_to_legacy_paths():
    settings = SLMIndexSettings(shared_peak_threshold=2)
    arena = FragmentArena.from_peptides(PEPTIDES)
    plain = index_over(PEPTIDES, settings)
    frags = SLMIndex(
        arena_of(
            [fragment_mzs(p) for p in PEPTIDES],
            masses=np.array([p.mass for p in PEPTIDES], dtype=np.float32),
        ),
        settings,
    )
    via_arena = SLMIndex(arena, settings)
    for other in (frags, via_arena):
        assert np.array_equal(plain.ion_parents, other.ion_parents)
        assert np.array_equal(plain.bucket_offsets, other.bucket_offsets)
        assert np.array_equal(plain.masses, other.masses)


def test_ions_of_constant_time_values():
    idx = index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=2))
    for i, p in enumerate(PEPTIDES):
        expected = 0 if p.length < 2 else 2 * (p.length - 1)
        assert idx.ions_of(i) == expected
        # O(1) path must agree with counting the CSR parents.
        assert idx.ions_of(i) == int(np.count_nonzero(idx.ion_parents == i))
    assert idx.ions_of(-1) == 0
    assert idx.ions_of(len(PEPTIDES)) == 0


def test_filter_many_matches_filter():
    idx = index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=1))
    spectra = [spectrum_of(p, scan=i) for i, p in enumerate(PEPTIDES) if p.length > 1]
    spectra.append(Spectrum(99, 500.0, 2, np.array([]), np.array([])))
    batched = idx.filter_many(spectra)
    for s, got in zip(spectra, batched):
        one = idx.filter(s)
        assert np.array_equal(got.candidates, one.candidates)
        assert np.array_equal(got.shared_peaks, one.shared_peaks)
        assert got.buckets_scanned == one.buckets_scanned
        assert got.ions_scanned == one.ions_scanned


# -- scoring equivalence -----------------------------------------------


def test_score_arena_bit_identical_to_legacy():
    arena = FragmentArena.from_peptides(PEPTIDES)
    q = spectrum_of(PEPTIDES[0])
    cands = np.arange(len(PEPTIDES), dtype=np.int64)
    legacy = regenerated_score(q, PEPTIDES, cands, fragment_tolerance=0.05)
    hot = score_candidates(q, arena, cands, fragment_tolerance=0.05)
    assert np.array_equal(legacy.scores, hot.scores)
    assert np.array_equal(legacy.n_matched, hot.n_matched)
    assert legacy.candidates_scored == hot.candidates_scored
    assert legacy.residues_scored == hot.residues_scored


def test_score_arena_edge_cases():
    arena = FragmentArena.from_peptides(PEPTIDES)
    empty_q = Spectrum(1, 500.0, 2, np.array([]), np.array([]))
    # zero candidates
    out = score_candidates(
        empty_q, arena, np.empty(0, dtype=np.int64), fragment_tolerance=0.05
    )
    assert out.candidates_scored == 0 and out.residues_scored == 0
    # zero-fragment candidate + empty spectrum
    out = score_candidates(
        empty_q, arena, np.array([1, 0]), fragment_tolerance=0.05
    )
    legacy = regenerated_score(
        empty_q, PEPTIDES, np.array([1, 0]), fragment_tolerance=0.05
    )
    assert np.array_equal(out.scores, legacy.scores)
    assert out.residues_scored == legacy.residues_scored == PEPTIDES[1].length + PEPTIDES[0].length


def test_score_many_matches_individual_calls():
    arena = FragmentArena.from_peptides(PEPTIDES)
    spectra = [spectrum_of(p, scan=i) for i, p in enumerate(PEPTIDES[:3], 1)]
    cand_lists = [
        np.array([0, 2, 4]),
        np.empty(0, dtype=np.int64),
        np.array([1, 3]),
    ]
    outs = score_many(
        spectra, cand_lists, fragment_tolerance=0.05, arena=arena
    )
    for s, c, got in zip(spectra, cand_lists, outs):
        one = score_candidates(s, arena, c, fragment_tolerance=0.05)
        assert np.array_equal(got.scores, one.scores)
        assert np.array_equal(got.n_matched, one.n_matched)
    with pytest.raises(ConfigurationError):
        score_many(spectra, cand_lists[:2], fragment_tolerance=0.05, arena=arena)


@hsettings(max_examples=15, deadline=None)
@given(st.data())
def test_score_arena_property_bit_identical(data):
    """Arena scoring == per-candidate fragment regeneration on random inputs."""
    seqs = data.draw(
        st.lists(
            st.text(alphabet="ACDEFGHIKLMNPQRSTVWY", min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        )
    )
    peptides = [Peptide(s) for s in seqs]
    arena = FragmentArena.from_peptides(peptides)
    n_cands = data.draw(st.integers(min_value=0, max_value=len(peptides)))
    cands = np.array(
        data.draw(
            st.lists(
                st.integers(0, len(peptides) - 1),
                min_size=n_cands,
                max_size=n_cands,
            )
        ),
        dtype=np.int64,
    )
    target = data.draw(st.integers(min_value=0, max_value=len(peptides) - 1))
    q = (
        spectrum_of(peptides[target])
        if peptides[target].length > 1
        else Spectrum(1, 500.0, 2, np.array([]), np.array([]))
    )
    tol = data.draw(st.sampled_from([0.0, 0.01, 0.05]))
    legacy = regenerated_score(q, peptides, cands, fragment_tolerance=tol)
    hot = score_candidates(q, arena, cands, fragment_tolerance=tol)
    assert np.array_equal(legacy.scores, hot.scores)
    assert np.array_equal(legacy.n_matched, hot.n_matched)
    assert legacy.residues_scored == hot.residues_scored


# -- end-to-end equivalence across policies and rank counts ------------


@pytest.fixture(scope="module")
def equivalence_workload():
    db = IndexedDatabase.from_peptides(
        [
            Peptide(s)
            for s in (
                "AAAGGGKR", "CCDDEEKK", "MMNNQQRL", "WWYYFFKA", "AAAGGGRV",
                "LLPPSSTK", "GGHHIIKK", "VVMMAACR", "TTSSPPLK", "EEDDCCKR",
                "KAVLGGHR", "NNQQMMPK",
            )
        ],
        max_variants_per_peptide=3,
    )
    spectra = generate_run(db.entries, SyntheticRunConfig(n_spectra=8, seed=7))
    return db, spectra


@pytest.mark.parametrize("policy", ["chunk", "cyclic", "random", "lpt"])
@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_serial_distributed_equivalent_post_arena(
    equivalence_workload, policy, n_ranks
):
    """Arena-based serial and distributed searches stay bit-identical:
    same scores, tie-breaking, candidate counts, and summed work
    counters for every policy × rank count."""
    db, spectra = equivalence_workload
    settings = SLMIndexSettings(shared_peak_threshold=2)
    serial = SerialSearchEngine(db, settings).run(spectra)
    dist = DistributedSearchEngine(
        db,
        EngineConfig(n_ranks=n_ranks, policy=policy, index=settings),
    ).run(spectra)
    for sr, dr in zip(serial.spectra, dist.spectra):
        assert sr.n_candidates == dr.n_candidates
        assert [(p.entry_id, p.score, p.shared_peaks) for p in sr.psms] == [
            (p.entry_id, p.score, p.shared_peaks) for p in dr.psms
        ]
    for counter in ("candidates_scored", "residues_scored", "ions_scanned"):
        assert sum(getattr(s, counter) for s in dist.rank_stats) == getattr(
            serial.rank_stats[0], counter
        )


def test_filter_against_bruteforce_with_zero_fragment_peptides():
    """The pre-CSR quadratic reference agrees on a universe containing
    zero-fragment peptides."""
    settings = SLMIndexSettings(shared_peak_threshold=1)
    idx = index_over(PEPTIDES, settings)
    for p in PEPTIDES:
        if p.length < 2:
            continue
        q = spectrum_of(p)
        fast, slow = idx.filter(q), bruteforce_filter(PEPTIDES, settings, q)
        assert np.array_equal(fast.candidates, slow.candidates)
        assert np.array_equal(fast.shared_peaks, slow.shared_peaks)
