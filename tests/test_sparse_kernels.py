"""Property suite for the sparse rank-body kernels.

The rank body does sparse work for sparse answers: scoring runs a
conservative coarse test and then the exact match expressions on the
survivors only; filtration copies window slices of ``ion_parents``
instead of building a per-ion index array; top-k partitions before it
sorts.  Each is pinned here, bit for bit, to the dense formulation it
replaced — the test-only references in ``tests/reference.py``, so
``src/`` holds one implementation of each:

* :func:`~reference.dense_score_candidates` — the pre-sparse scoring
  body (every gathered fragment pays the binary search and the
  element-wise passes),
* :func:`~reference.index_gather_filter` — the ``concat_ranges`` +
  ``np.take`` filtration gather,
* a full ``lexsort`` per spectrum for the segmented top-k.

Inputs are drawn by Hypothesis (the numpy seed is an explicit argument,
so a falsifying example prints it, and ``print_blob`` adds the
reproduction decorator).
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings as hsettings, strategies as st

from reference import arena_of, dense_score_candidates, index_gather_filter
from repro.index.arena import Workspace
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search import scoring
from repro.search.rank import top_k_block
from repro.search.scoring import ScoringOutcome, _coarse_survivors, score_candidates
from repro.spectra.model import Spectrum

PROPERTY = hsettings(max_examples=150, deadline=None, print_blob=True)


# -- generators --------------------------------------------------------


@contextmanager
def coarse_cutoff(n_fragments: int):
    """Run with the coarse stage's size cut-off moved to ``n_fragments``."""
    with mock.patch.object(scoring, "_COARSE_MIN_FRAGMENTS", n_fragments):
        yield


def assert_outcomes_identical(got: ScoringOutcome, want: ScoringOutcome):
    assert got.scores.dtype == want.scores.dtype
    assert got.n_matched.dtype == want.n_matched.dtype
    assert got.scores.tobytes() == want.scores.tobytes()
    assert np.array_equal(got.n_matched, want.n_matched)
    assert got.candidates_scored == want.candidates_scored
    assert got.residues_scored == want.residues_scored


def draw_case(seed, n_peaks, n_entries, tol, *, close_peaks, hostile, edges):
    """A query spectrum and an arena whose fragments crowd its peaks.

    ``edges`` plants fragments at exactly ``q ± tol`` and one ulp either
    side of both; ``close_peaks`` puts query peaks closer than ``2·tol``;
    ``hostile`` adds NaN / negative / far-out-of-range fragment m/z.
    """
    rng = np.random.default_rng(seed)
    q = np.sort(rng.uniform(50.0, 2000.0, n_peaks))
    if close_peaks and n_peaks >= 2:
        q[1::2] = q[::2][: q[1::2].size] + rng.uniform(0.0, 2.0 * tol, q[1::2].size)
        q = np.sort(q)
    intensities = rng.uniform(0.0, 1000.0, q.size)
    intensities[rng.random(q.size) < 0.1] = 0.0
    spectrum = Spectrum(1, 600.0, 2, q, intensities)

    arrays = []
    for _ in range(n_entries):
        k = int(rng.integers(0, 40))  # zero-fragment entries included
        frags = rng.uniform(0.0, 2200.0, k)
        near = rng.random(k) < 0.3  # jitter a share onto query peaks
        frags[near] = rng.choice(q, int(near.sum())) + rng.normal(
            0.0, max(tol, 1e-3), int(near.sum())
        )
        if edges and k:
            planted = []
            for peak in rng.choice(q, min(4, k)):
                for bound in (peak - tol, peak + tol):
                    planted += [
                        bound,
                        np.nextafter(bound, -np.inf),
                        np.nextafter(bound, np.inf),
                    ]
            planted = np.asarray(planted)
            take = min(k, planted.size)
            frags[:take] = rng.permutation(planted)[:take]
        if hostile and k:
            bad = rng.choice(
                [np.nan, -1.0, -1e30, 0.0, 1e9, 1e300, np.inf, -np.inf],
                size=max(1, k // 5),
            )
            frags[rng.integers(0, k, bad.size)] = bad
        arrays.append(np.sort(frags))  # NaN sorts last, as any value may
    arena = arena_of(
        arrays, lengths=rng.integers(1, 40, n_entries).astype(np.int64)
    )
    return spectrum, arena, rng


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_peaks=st.integers(1, 30),
    n_entries=st.integers(1, 60),
    tol=st.sampled_from([0.0, 0.004, 0.02, 0.05, 0.5]),
    close_peaks=st.booleans(),
    hostile=st.booleans(),
    edges=st.booleans(),
)


# -- scoring: two-stage == dense ---------------------------------------


@PROPERTY
@given(
    n_cands=st.integers(0, 120),
    duplicates=st.booleans(),
    dirty=st.booleans(),
    cutoff=st.sampled_from([1, 64, 1 << 30]),
    **CASES,
)
def test_two_stage_scoring_equals_dense_reference(
    seed, n_peaks, n_entries, tol, close_peaks, hostile, edges,
    n_cands, duplicates, dirty, cutoff,
):
    spectrum, arena, rng = draw_case(
        seed, n_peaks, n_entries, tol,
        close_peaks=close_peaks, hostile=hostile, edges=edges,
    )
    if duplicates:
        cands = rng.integers(0, n_entries, n_cands)
    else:
        cands = rng.permutation(n_entries)[:n_cands]
    cands = cands.astype(np.int32)
    ws = Workspace()
    if dirty:
        # Marks a crashed earlier call never unmarked: may add coarse
        # survivors, must not change any output.
        table = ws.zeros("score.coarse.table", 400_000, np.bool_)
        table[rng.integers(0, table.size, 5_000)] = True
    want, theo_all, _ = dense_score_candidates(
        spectrum, cands, fragment_tolerance=tol, arena=arena
    )
    with coarse_cutoff(cutoff):
        took_coarse = (
            theo_all.size > 0
            and _coarse_survivors(theo_all, spectrum.mzs, tol, Workspace())
            is not None
        )
        got = score_candidates(
            spectrum, arena, cands, fragment_tolerance=tol, workspace=ws
        )
        again = score_candidates(
            spectrum, arena, cands, fragment_tolerance=tol, workspace=ws
        )
    event(f"coarse stage ran: {took_coarse}")
    assert_outcomes_identical(got, want)
    assert_outcomes_identical(again, want)  # warm (and unmarked) workspace


@PROPERTY
@given(dirty=st.booleans(), **CASES)
def test_coarse_survivors_cover_every_exact_match(
    seed, n_peaks, n_entries, tol, close_peaks, hostile, edges, dirty
):
    spectrum, arena, rng = draw_case(
        seed, n_peaks, n_entries, tol,
        close_peaks=close_peaks, hostile=hostile, edges=edges,
    )
    cands = np.arange(n_entries, dtype=np.int64)
    _, theo_all, mask = dense_score_candidates(
        spectrum, cands, fragment_tolerance=tol, arena=arena
    )
    ws = Workspace()
    if dirty:
        table = ws.zeros("score.coarse.table", 400_000, np.bool_)
        table[rng.integers(0, table.size, 5_000)] = True
    with coarse_cutoff(1):
        survivors = _coarse_survivors(theo_all, spectrum.mzs, tol, ws)
    event(f"coarse stage ran: {survivors is not None}")
    if survivors is None:
        return
    assert np.all(np.diff(survivors) > 0)  # ascending positions, no repeats
    assert np.isin(np.flatnonzero(mask), survivors).all()
    if not dirty:
        # The call unmarked everything it marked.
        assert not ws.zeros("score.coarse.table", 400_000, np.bool_).any()


def test_coarse_stage_runs_on_ordinary_inputs_and_is_selective():
    """The properties above are vacuous if the coarse stage never runs."""
    spectrum, arena, _ = draw_case(
        7, 25, 60, 0.05, close_peaks=False, hostile=False, edges=False
    )
    cands = np.arange(60, dtype=np.int64)
    _, theo_all, mask = dense_score_candidates(
        spectrum, cands, fragment_tolerance=0.05, arena=arena
    )
    with coarse_cutoff(1):
        survivors = _coarse_survivors(theo_all, spectrum.mzs, 0.05, Workspace())
    assert survivors is not None
    assert mask.sum() <= survivors.size < theo_all.size // 2


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_scoring_identical_either_side_of_the_real_cutoff(delta):
    """``m`` just below / at / just above ``_COARSE_MIN_FRAGMENTS``."""
    rng = np.random.default_rng(11)
    q = np.sort(rng.uniform(100.0, 1500.0, 20))
    spectrum = Spectrum(1, 600.0, 2, q, rng.uniform(1.0, 9.0, q.size))
    m = scoring._COARSE_MIN_FRAGMENTS + delta
    sizes = np.full(64, m // 64)
    sizes[: m - int(sizes.sum())] += 1
    arrays = []
    for k in sizes:
        frags = rng.uniform(0.0, 1600.0, k)
        frags[::7] = rng.choice(q, frags[::7].size) + rng.normal(0, 0.04, frags[::7].size)
        arrays.append(np.sort(frags))
    arena = arena_of(arrays, lengths=np.arange(64) + 5)
    cands = np.arange(64, dtype=np.int32)
    want, theo_all, _ = dense_score_candidates(
        spectrum, cands, fragment_tolerance=0.05, arena=arena
    )
    assert theo_all.size == m
    ran = _coarse_survivors(theo_all, q, 0.05, Workspace()) is not None
    assert ran == (delta >= 0)
    got = score_candidates(spectrum, arena, cands, fragment_tolerance=0.05)
    assert want.n_matched.sum() > 0
    assert_outcomes_identical(got, want)


@pytest.mark.parametrize(
    "tail", [[1e9], [np.inf], [np.nan], [4.0e4, 4.5e4]], ids=str
)
def test_scoring_identical_when_the_query_defeats_the_table(tail):
    """Query m/z the coarse table cannot hold: exact stage on everything."""
    rng = np.random.default_rng(3)
    q = np.concatenate([np.sort(rng.uniform(100.0, 900.0, 12)), tail])
    spectrum = Spectrum(1, 600.0, 2, q, np.ones(q.size))
    arrays = [np.sort(rng.choice(q[:12], 30) + rng.normal(0, 0.03, 30)) for _ in range(20)]
    arena = arena_of(arrays, lengths=np.full(20, 9))
    cands = np.arange(20, dtype=np.int32)
    want, theo_all, _ = dense_score_candidates(
        spectrum, cands, fragment_tolerance=0.05, arena=arena
    )
    with coarse_cutoff(1):
        if tail != [4.0e4, 4.5e4]:
            assert _coarse_survivors(theo_all, q, 0.05, Workspace()) is None
        got = score_candidates(spectrum, arena, cands, fragment_tolerance=0.05)
    assert_outcomes_identical(got, want)


def test_workspace_zeros_is_zero_on_growth_and_keeps_callers_marks():
    ws = Workspace()
    small = ws.zeros("t", 10, np.bool_)
    assert small.shape == (10,) and not small.any()
    small[3] = True
    assert ws.zeros("t", 10, np.bool_)[3]  # same buffer: resetting is the caller's job
    grown = ws.zeros("t", 100_000, np.bool_)
    assert grown.shape == (100_000,) and not grown.any()  # fresh zeros on growth


# -- top-k: segmented partition == full lexsort per spectrum ----------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_spectra=st.integers(1, 6),
    n=st.integers(0, 80),
    n_levels=st.sampled_from([1, 2, 3, 50]),
    all_zero=st.booleans(),
    with_nan=st.booleans(),
    k_kind=st.sampled_from(["0", "1", "n-1", "n", "n+1", "any"]),
)
def test_partition_top_k_equals_full_lexsort(
    seed, n_spectra, n, n_levels, all_zero, with_nan, k_kind
):
    """One segmented top-k over a multi-spectrum batch equals a full
    ``lexsort`` per spectrum.  Segment sizes sit around ``n``, so each
    ``k`` kind meets segments just below, at and above it."""
    rng = np.random.default_rng(seed)
    entry_ids = rng.permutation(500).astype(np.int64)  # local -> global, not monotone
    levels = rng.uniform(0.0, 30.0, n_levels)
    segments = []
    for _ in range(n_spectra):
        size = int(rng.choice([max(n - 1, 0), n, n + 1, int(rng.integers(0, n + 3))]))
        candidates = np.sort(rng.permutation(500)[:size]).astype(np.int32)
        scores = np.zeros(size) if all_zero else rng.choice(levels, size)
        if with_nan and size:
            scores[rng.integers(0, size, max(1, size // 4))] = np.nan
        shared = rng.integers(0, 40, size).astype(np.int32)
        segments.append((candidates, scores, shared))
    top_k = {
        "0": 0, "1": 1, "n-1": max(n - 1, 0), "n": n, "n+1": n + 1,
        "any": int(rng.integers(0, n + 3)),
    }[k_kind]
    offsets = np.zeros(n_spectra + 1, np.int64)
    np.cumsum([c.size for c, _, _ in segments], out=offsets[1:])
    got = top_k_block(
        entry_ids, offsets, *(np.concatenate(col) for col in zip(*segments)), top_k
    )
    assert got.ids.dtype == got.shared.dtype == np.int64
    assert got.scores.dtype == np.float64
    assert len(got) == n_spectra
    for (candidates, scores, shared), (ids, kept, peaks) in zip(segments, got):
        want = np.lexsort((entry_ids[candidates], -scores))[:top_k]
        assert np.array_equal(ids, candidates[want])
        assert kept.tobytes() == scores[want].tobytes()
        assert np.array_equal(peaks, shared[want])


# -- filtration: slice gather == index gather --------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_entries=st.integers(1, 40),
    n_spectra=st.integers(1, 6),
    tol=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    threshold=st.integers(1, 4),
    precursor=st.sampled_from([None, 0.5, 50.0]),
)
def test_slice_gather_filtration_equals_index_gather(
    seed, n_entries, n_spectra, tol, threshold, precursor
):
    rng = np.random.default_rng(seed)
    arrays = [np.sort(rng.uniform(100.0, 400.0, rng.integers(0, 25))) for _ in range(n_entries)]
    arena = arena_of(
        arrays,
        lengths=np.full(n_entries, 8),
        masses=rng.uniform(700.0, 900.0, n_entries).astype(np.float32),
    )
    index = SLMIndex(
        arena,
        SLMIndexSettings(
            fragment_tolerance=tol,
            shared_peak_threshold=threshold,
            precursor_tolerance=precursor,
        ),
    )
    all_frags = np.concatenate(arrays + [np.array([250.0])])
    spectra = []
    for i in range(n_spectra):
        k = int(rng.integers(0, 20))
        peaks = np.concatenate(
            [
                rng.choice(all_frags, k) + rng.normal(0.0, 0.02, k),  # hits
                rng.uniform(1.0, 99.0, 3),  # below every ion: zero-width windows
                # straddling and beyond the last bucket: clipped at n_buckets
                [all_frags.max() + tol / 2, all_frags.max() + 1.0, 5000.0],
            ]
        )
        peaks = np.sort(peaks[peaks > 0])
        spectra.append(
            Spectrum(i, float(rng.uniform(350.0, 450.0)), 2, peaks, np.ones(peaks.size))
        )
    spectra.append(Spectrum(99, 400.0, 2, np.array([]), np.array([])))

    want = [index_gather_filter(index, s) for s in spectra]
    batched = index.filter_many(spectra)
    single = [index.filter(s) for s in spectra]
    for got in (batched, single):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.candidates.dtype == w.candidates.dtype == np.int32
            assert g.shared_peaks.dtype == w.shared_peaks.dtype == np.int32
            assert np.array_equal(g.candidates, w.candidates)
            assert np.array_equal(g.shared_peaks, w.shared_peaks)
            assert g.buckets_scanned == w.buckets_scanned
            assert g.ions_scanned == w.ions_scanned
