"""Property suite for the precursor-major rank index.

A windowed search builds a :class:`~repro.index.chunks.ChunkedIndex`
over the rank's sub-arena instead of one flat
:class:`~repro.index.slm.SLMIndex`; the flat index over the same
sub-arena is the reference every property here pins it to — array for
array on ``candidates`` and ``shared_peaks`` (values *and* dtypes, in
manifest-position order), and from above on the work counters.

Inputs are drawn by Hypothesis (the numpy seed is an explicit argument,
so a falsifying example prints it, and ``print_blob`` adds the
reproduction decorator).  Masses come from a small pool so equal masses
straddle chunk cuts; ``edge`` puts the tolerance exactly on
``|mass - neutral|`` of a real (entry, spectrum) pair, or one ulp
either side of it.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings as hsettings, strategies as st

from reference import arena_of, fragments_of
from repro.constants import PROTON
from repro.index import chunks
from repro.index.arena import Workspace
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.rank import build_rank_index, run_rank_queries
from repro.search.scoring import _COARSE_MIN_FRAGMENTS
from repro.spectra.model import Spectrum

PROPERTY = hsettings(max_examples=150, deadline=None, print_blob=True)


# -- generators --------------------------------------------------------


def draw_arena(rng, n_entries, *, duplicate_masses):
    """Entries with 0-30 fragments each and float32 masses."""
    if duplicate_masses:
        pool = rng.uniform(600.0, 2400.0, n_entries // 3 + 1)
        masses = rng.choice(pool, n_entries)
    else:
        masses = rng.uniform(600.0, 2400.0, n_entries)
    arrays = [
        np.sort(rng.uniform(60.0, 1800.0, int(rng.integers(0, 30))))
        for _ in range(n_entries)
    ]
    return arena_of(
        arrays,
        lengths=rng.integers(2, 40, n_entries).astype(np.int64),
        masses=masses.astype(np.float32),
    )


def draw_spectra(rng, arena, n_spectra, tol, *, mass_sorted):
    """Spectra aimed at entries: on them, near a window edge, or far off.

    One in six has no peaks; peaks are a target's fragments plus noise,
    so shared-peak counts are non-trivial.
    """
    spectra = []
    n = arena.n_entries
    for scan in range(n_spectra):
        charge = int(rng.integers(1, 4))
        if n:
            target = int(rng.integers(0, n))
            mass = float(arena.masses[target])
            frags = fragments_of(arena, target)
        else:
            mass, frags = 1200.0, np.empty(0)
        offset = rng.choice([0.0, tol, -tol, 0.5 * tol, 3.0 * tol + 1.0, 5000.0])
        peaks = np.concatenate(
            [frags[rng.random(frags.size) < 0.7], rng.uniform(60.0, 1800.0, 4)]
        )
        if rng.random() < 1 / 6:
            peaks = np.empty(0)
        spectra.append(
            Spectrum(
                scan_id=scan,
                precursor_mz=(mass + offset + charge * PROTON) / charge,
                charge=charge,
                mzs=np.sort(peaks),
                intensities=np.ones(peaks.size),
            )
        )
    if mass_sorted:
        spectra.sort(key=lambda s: s.neutral_mass)
    return spectra


def edge_tolerance(rng, arena, spectra, ulps):
    """ΔM exactly ``|mass - neutral|`` of one (entry, spectrum) pair, ± ulps."""
    if not arena.n_entries or not spectra:
        return 1.0
    mass = float(arena.masses[int(rng.integers(0, arena.n_entries))])
    neutral = spectra[int(rng.integers(0, len(spectra)))].neutral_mass
    tol = abs(mass - neutral)
    for _ in range(abs(ulps)):
        tol = float(np.nextafter(tol, np.inf if ulps > 0 else 0.0))
    return tol


def chunk_sizes(n):
    return sorted({size for size in (1, 2, n - 1, n, n + 1) if size >= 1})


def chunk_leaf(arena, ci, c):
    """Test-only flat index over chunk ``c``'s members: what it must count.

    A chunk's windows are clipped to its own top bucket and gather only
    its own ions, which is exactly a flat index built over its members.
    """
    size = ci.chunk_entries
    members = ci.positions[c * size : (c + 1) * size]
    return SLMIndex(arena.take(members), ci.settings)


def assert_equals_flat(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.candidates.dtype == w.candidates.dtype
        assert g.shared_peaks.dtype == w.shared_peaks.dtype
        assert np.array_equal(g.candidates, w.candidates)
        assert np.array_equal(g.shared_peaks, w.shared_peaks)
        assert g.ions_scanned <= w.ions_scanned


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_entries=st.integers(0, 40),
    n_spectra=st.integers(0, 12),
    tol=st.sampled_from([0.0, 0.5, 2.0, 50.0]),
    threshold=st.sampled_from([1, 2, 4]),
    duplicate_masses=st.booleans(),
    mass_sorted=st.booleans(),
    edge=st.sampled_from([None, -1, 0, 1]),
)


def draw_case(
    seed, n_entries, n_spectra, tol, threshold, duplicate_masses, mass_sorted, edge
):
    rng = np.random.default_rng(seed)
    arena = draw_arena(rng, n_entries, duplicate_masses=duplicate_masses)
    spectra = draw_spectra(rng, arena, n_spectra, tol, mass_sorted=mass_sorted)
    if edge is not None:
        tol = edge_tolerance(rng, arena, spectra, edge)
    settings = SLMIndexSettings(
        shared_peak_threshold=threshold, precursor_tolerance=tol
    )
    return arena, spectra, settings


# -- chunked == flat ---------------------------------------------------


@PROPERTY
@given(**CASES)
def test_chunked_equals_flat_for_every_chunk_size(**case):
    arena, spectra, settings = draw_case(**case)
    flat = SLMIndex(arena, settings)
    want = flat.filter_many(spectra)
    event(f"candidates found: {any(w.candidates.size for w in want)}")
    for size in chunk_sizes(arena.n_entries):
        ci = ChunkedIndex(arena, settings, chunk_entries=size)
        assert len(ci) == len(flat) and ci.n_ions == flat.n_ions
        assert ci.n_chunks == -(-arena.n_entries // size)
        got = ci.filter_many(spectra, workspace=Workspace())
        assert_equals_flat(got, want)
        # A batch of one takes the same path and says the same thing.
        for s, g in zip(spectra, got):
            one = ci.filter(s)
            assert np.array_equal(one.candidates, g.candidates)
            assert np.array_equal(one.shared_peaks, g.shared_peaks)
            assert one.buckets_scanned == g.buckets_scanned
            assert one.ions_scanned == g.ions_scanned


@PROPERTY
@given(open_tol=st.sampled_from([None, np.inf]), **CASES)
def test_open_search_settings_on_a_chunked_index_equal_flat(open_tol, **case):
    """Every chunk reached and every rank kept: still the flat answer."""
    arena, spectra, settings = draw_case(**case)
    settings = SLMIndexSettings(
        shared_peak_threshold=settings.shared_peak_threshold,
        precursor_tolerance=open_tol,
    )
    want = SLMIndex(arena, settings).filter_many(spectra)
    for size in chunk_sizes(arena.n_entries):
        got = ChunkedIndex(arena, settings, chunk_entries=size).filter_many(spectra)
        assert_equals_flat(got, want)
        # Every ion sits in exactly one chunk, and every chunk is reached.
        assert [g.ions_scanned for g in got] == [w.ions_scanned for w in want]


@PROPERTY
@given(**CASES)
def test_counters_sum_over_the_visited_leaves(**case):
    arena, spectra, settings = draw_case(**case)
    flat = SLMIndex(arena, settings).filter_many(spectra)
    for size in chunk_sizes(arena.n_entries):
        ci = ChunkedIndex(arena, settings, chunk_entries=size)
        leaf = [chunk_leaf(arena, ci, c) for c in range(ci.n_chunks)]
        visited_any = False
        for s, got, want in zip(spectra, ci.filter_many(spectra), flat):
            visited = ci.chunks_for(s)
            visited_any |= 0 < len(visited) < ci.n_chunks
            leaves = [leaf[c].filter(s) for c in visited]
            assert got.ions_scanned == sum(r.ions_scanned for r in leaves)
            assert got.buckets_scanned == sum(r.buckets_scanned for r in leaves)
            assert got.ions_scanned <= want.ions_scanned
            if len(visited) == ci.n_chunks and s.n_peaks:
                # Every ion belongs to exactly one leaf.
                assert got.ions_scanned == want.ions_scanned
            if not visited:
                assert got.candidates.size == got.ions_scanned == 0
        event(f"some chunk pruned: {visited_any}")


@PROPERTY
@given(**CASES)
def test_pruning_never_drops_an_entry_inside_the_window(**case):
    """Every entry the window predicate keeps sits in a reached chunk."""
    arena, spectra, settings = draw_case(**case)
    tol = settings.precursor_tolerance
    masses64 = arena.masses.astype(np.float64)
    for size in chunk_sizes(arena.n_entries):
        ci = ChunkedIndex(arena, settings, chunk_entries=size)
        chunk_of = np.empty(arena.n_entries, dtype=np.int64)
        chunk_of[ci.positions] = np.arange(arena.n_entries) // size
        for s in spectra:
            inside = np.flatnonzero(np.abs(masses64 - s.neutral_mass) <= tol)
            assert set(chunk_of[inside].tolist()) <= set(ci.chunks_for(s))


@PROPERTY
@given(top_k=st.sampled_from([1, 3, 50]), **CASES)
def test_rank_body_output_equals_flat(top_k, **case):
    """Scoring, top-k and the reply see the same candidates either way."""
    arena, spectra, settings = draw_case(**case)
    entry_ids = np.random.default_rng(case["seed"]).permutation(arena.n_entries)
    flat_out = run_rank_queries(
        SLMIndex(arena, settings), arena, entry_ids, spectra, top_k=top_k
    )
    for size in chunk_sizes(arena.n_entries):
        out = run_rank_queries(
            ChunkedIndex(arena, settings, chunk_entries=size),
            arena, entry_ids, spectra, top_k=top_k,
        )
        assert np.array_equal(out.counts, flat_out.counts)
        assert np.array_equal(out.candidates_scored, flat_out.candidates_scored)
        assert np.array_equal(out.residues_scored, flat_out.residues_scored)
        assert np.all(out.ions_scanned <= flat_out.ions_scanned)
        for got, want in zip(out.local_psms, flat_out.local_psms):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# -- named corners -----------------------------------------------------


def _arena_of(masses, frags=(100.0, 200.0, 300.0)):
    n = len(masses)
    return arena_of(
        [np.array(frags)] * n,
        lengths=np.full(n, 4),
        masses=np.asarray(masses, dtype=np.float32),
    )


def _spectrum(neutral, mzs=(100.0, 200.0, 300.0)):
    return Spectrum(1, neutral + PROTON, 1, np.array(mzs), np.ones(len(mzs)))


def test_equal_masses_straddling_a_chunk_cut():
    arena = _arena_of([1000.0] * 5 + [1500.0])
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=0.0)
    s = _spectrum(1000.0)
    tol = abs(float(np.float32(1000.0)) - s.neutral_mass)
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=tol)
    ci = ChunkedIndex(arena, settings, chunk_entries=2)
    assert ci.chunks_for(s) == [0, 1, 2]  # the third holds the fifth 1000.0
    got = ci.filter(s)
    assert got.candidates.tolist() == [0, 1, 2, 3, 4]
    assert_equals_flat([got], [SLMIndex(arena, settings).filter(s)])


def test_a_window_that_reaches_no_chunk_scans_nothing():
    arena = _arena_of([1000.0, 1001.0, 2000.0, 2001.0])
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=2.0)
    ci = ChunkedIndex(arena, settings, chunk_entries=2)
    for neutral in (500.0, 1500.0, 3000.0):  # below, in the gap, above
        s = _spectrum(neutral)
        assert ci.chunks_for(s) == []
        got = ci.filter_many([s])[0]
        assert got.candidates.size == 0 and got.candidates.dtype == np.int32
        assert (got.buckets_scanned, got.ions_scanned) == (0, 0)
        assert SLMIndex(arena, settings).filter(s).candidates.size == 0


def test_empty_manifest_and_empty_batch():
    settings = SLMIndexSettings(precursor_tolerance=2.0)
    ci = ChunkedIndex(_arena_of([]), settings)
    assert (len(ci), ci.n_ions, ci.n_chunks) == (0, 0, 0)
    assert ci.filter(_spectrum(1000.0)).candidates.size == 0
    assert ci.filter_many([]) == []
    assert ChunkedIndex(_arena_of([1000.0]), settings).filter_many([]) == []


def test_zero_ion_entries_and_zero_peak_spectra():
    arena = arena_of(
        [np.empty(0), np.array([100.0, 200.0]), np.empty(0), np.empty(0)],
        lengths=np.full(4, 3),
        masses=np.array([1000.0, 1000.5, 1001.0, 1900.0], dtype=np.float32),
    )
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=2.0)
    ci = ChunkedIndex(arena, settings, chunk_entries=1)
    assert np.diff(ci.ion_bounds).tolist() == [0, 2, 0, 0]
    assert ci.chunk_buckets.tolist() == [0, int(200.0 / settings.resolution) + 1, 0, 0]
    got = ci.filter_many([_spectrum(1000.5), _spectrum(1000.5, mzs=())])
    assert got[0].candidates.tolist() == [1]
    assert got[1].candidates.size == 0 and got[1].ions_scanned == 0


def test_leaf_offsets_are_int32_and_trimmed_to_the_chunks_top_bucket():
    arena = arena_of(
        [np.array([100.0]), np.array([100.0, 900.0])],
        lengths=np.full(2, 3),
        masses=np.array([500.0, 1500.0], dtype=np.float32),
    )
    settings = SLMIndexSettings(precursor_tolerance=2.0)
    ci = ChunkedIndex(arena, settings, chunk_entries=1)
    assert ci.bucket_offsets.dtype == ci.ion_parents.dtype == np.int32
    light, heavy = (
        int(100.0 / settings.resolution) + 1,
        int(900.0 / settings.resolution) + 1,
    )
    assert ci.chunk_buckets.tolist() == [light, heavy]
    # One run per chunk, one slot past its top bucket, chunk-relative:
    # each starts at 0 and ends at its own ion count.
    assert ci.offset_bounds.tolist() == [0, light + 1, light + heavy + 2]
    runs = np.split(ci.bucket_offsets, ci.offset_bounds[1:-1])
    assert [(run[0], run[-1]) for run in runs] == [(0, 1), (0, 2)]
    for c, run in enumerate(runs):
        leaf = chunk_leaf(arena, ci, c)
        assert np.array_equal(run, leaf.bucket_offsets)


# -- who builds which index --------------------------------------------


def test_open_search_builds_the_flat_index_with_every_counter_unchanged():
    rng = np.random.default_rng(5)
    arena = draw_arena(rng, 30, duplicate_masses=True)
    spectra = draw_spectra(rng, arena, 8, 2.0, mass_sorted=False)
    ids = rng.permutation(30)[:20]
    for settings in (
        SLMIndexSettings(shared_peak_threshold=1),
        SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=np.inf),
    ):
        sub, index = build_rank_index(arena, ids, settings)
        assert type(index) is SLMIndex
        want = SLMIndex(arena.take(ids), settings).filter_many(spectra)
        got = index.filter_many(spectra)
        assert_equals_flat(got, want)
        assert [(g.buckets_scanned, g.ions_scanned) for g in got] == [
            (w.buckets_scanned, w.ions_scanned) for w in want
        ]


def test_windowed_search_builds_the_chunked_index(monkeypatch):
    rng = np.random.default_rng(6)
    arena = draw_arena(rng, 30, duplicate_masses=False)
    spectra = draw_spectra(rng, arena, 8, 2.0, mass_sorted=True)
    ids = rng.permutation(30)[:20]
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=2.0)
    sub, index = build_rank_index(arena, ids, settings)
    assert type(index) is ChunkedIndex
    assert index.chunk_entries == chunks.CHUNK_ENTRIES and index.n_chunks == 1
    assert (len(index), index.n_ions, index.settings) == (20, sub.n_ions, settings)
    monkeypatch.setattr(chunks, "CHUNK_ENTRIES", 3)
    _, small = build_rank_index(arena, ids, settings)
    assert small.n_chunks == 7
    want = SLMIndex(arena.take(ids), settings).filter_many(spectra)
    assert_equals_flat(index.filter_many(spectra), want)
    assert_equals_flat(small.filter_many(spectra), want)
    assert sum(r.ions_scanned for r in small.filter_many(spectra)) < sum(
        r.ions_scanned for r in want
    )



@pytest.mark.parametrize("precursor_tolerance", [None, 1e6], ids=["flat", "chunked"])
def test_rank_scores_from_a_view_of_the_arena_it_was_carved_from(precursor_tolerance):
    """The rank body's scoring input reads the arena's m/z in place and
    scores exactly as the gathered sub-arena does, zero-fragment entries
    and a non-ascending manifest included, through the top-k pruning
    path and the small-gather path alike."""
    rng = np.random.default_rng(8)
    grid = np.round(rng.uniform(100.0, 1500.0, 120), 2)
    arrays = [np.sort(rng.choice(grid, int(rng.integers(0, 30)))) for _ in range(600)]
    arrays[3] = arrays[17] = arrays[250] = np.empty(0)
    arena = arena_of(
        arrays,
        lengths=rng.integers(2, 40, 600).astype(np.int64),
        masses=rng.uniform(600.0, 2400.0, 600).astype(np.float32),
    )
    ids = rng.permutation(600)[:450]
    assert {3, 17, 250} & set(ids.tolist()) and np.any(np.diff(ids) < 0)
    spectra = [
        Spectrum(
            scan_id=s,
            precursor_mz=1200.0,
            charge=2,
            mzs=np.sort(rng.choice(grid, n, replace=False)),
            intensities=rng.uniform(0.5, 2.0, n),
        )
        for s, n in enumerate([40, 3, 0, 25, 1])
    ]
    settings = SLMIndexSettings(
        shared_peak_threshold=1, precursor_tolerance=precursor_tolerance
    )
    view, index = build_rank_index(arena, ids, settings)
    assert np.shares_memory(view.mzs, arena.mzs)
    sub = arena.take(ids)
    assert (view.n_entries, view.n_ions) == (sub.n_entries, sub.n_ions)
    got = run_rank_queries(index, view, ids, spectra, top_k=5)
    want = run_rank_queries(index, sub, ids, spectra, top_k=5)
    assert int(sub.counts[got.local_psms.ids].sum()) > 0
    assert max(int(sub.counts[f.candidates].sum()) for f in index.filter_many(spectra)) >= (
        _COARSE_MIN_FRAGMENTS
    )
    for name in (
        "counts",
        "buckets_scanned",
        "ions_scanned",
        "candidates_scored",
        "residues_scored",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("bounds", "ids", "scores", "shared"):
        a, b = getattr(got.local_psms, name), getattr(want.local_psms, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
