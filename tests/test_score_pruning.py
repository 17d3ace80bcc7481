"""Top-k pruning in the rank body is exact.

``run_rank_queries`` scores, for a spectrum with more than ``top_k``
candidates and a gather of at least ``_COARSE_MIN_FRAGMENTS``
fragments, only the candidates whose score bound can still reach the
k-th best exact score (``search/rank.py``, "Top-k pruning").  Two
things make that exact, and this suite pins both:

* **the bound** — ``match_bounds`` of either rank index is at least
  the matched-fragment count of the dense reference scorer
  (``tests/reference.py``) for every candidate, including fragments
  that match a peak from one bucket outside its window (the rim);
* **the result** — the pruned rank body equals a score-everything
  reference (``score_many`` plus a per-spectrum ``lexsort`` top-k)
  in ids, score bytes, shared peaks, counts and all four work
  counters.

Draws crowd a shared peak pool with fragments, plant fragments at
``peak ± tol`` and one ulp either side, duplicate entries (ties at the
cut), give spectra equal, zero or above-one intensities and NaN m/z
peaks, and take ``top_k`` from {0, 1, n - 1, n, n + 1}.  Three built
cases fail if the rim, the summation margin or the strict ``<`` of
the drop rule is removed.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings as hsettings, strategies as st

from reference import arena_of, dense_score_candidates
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search import rank
from repro.search.rank import run_rank_queries
from repro.search.scoring import _COARSE_MIN_FRAGMENTS, score_many, score_upper_bounds
from repro.spectra.model import Spectrum

PROPERTY = hsettings(max_examples=200, deadline=None, print_blob=True)

TOL = 0.05
OPEN = SLMIndexSettings(fragment_tolerance=TOL, shared_peak_threshold=1)
#: Windowed, but wide enough to keep every entry: the chunked index
#: prunes through the same rank body.
WIDE = SLMIndexSettings(
    fragment_tolerance=TOL, shared_peak_threshold=1, precursor_tolerance=1e6
)


def build(kind, arena, settings):
    if kind == "slm":
        return SLMIndex(arena, settings)
    return ChunkedIndex(arena, settings, chunk_entries=7)


# -- draws ------------------------------------------------------------


def draw_search(rng, n_entries, tol, *, intensities, nan_peaks):
    """An arena crowding a peak pool, and spectra drawn from that pool."""
    # Peaks on the 0.01 grid put ``peak ± tol`` on bucket edges.
    pool = np.sort(np.round(rng.uniform(150.0, 1500.0, 30), 2))
    arrays = []
    for _ in range(n_entries):
        if arrays and rng.random() < 0.2:
            arrays.append(arrays[int(rng.integers(len(arrays)))].copy())  # a tie
            continue
        k = int(rng.integers(1, 25))
        near = rng.choice(pool, k) + rng.normal(0.0, max(tol, 1e-3), k)
        planted = []
        for peak in rng.choice(pool, 6):
            for edge in (peak - tol, peak + tol):
                planted += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        planted = rng.permutation(planted)[: int(rng.integers(0, 16))]
        n_fill = int(rng.choice([0, 10, 150, 400, 800]))
        filler = 2000.0 + rng.uniform(0.0, 1000.0, n_fill)
        arrays.append(np.concatenate([near, planted, filler]))
    arena = arena_of(
        arrays,
        lengths=rng.integers(1, 40, n_entries).astype(np.int64),
        masses=rng.uniform(500.0, 3000.0, n_entries).astype(np.float32),
    )
    spectra = []
    for scan in range(int(rng.integers(1, 5))):
        picked = rng.choice(pool, int(rng.integers(1, 20)))
        peaks = np.unique(np.concatenate([picked, rng.uniform(150.0, 1500.0, 2)]))
        if nan_peaks:
            peaks = np.concatenate([peaks, np.full(int(rng.integers(1, 3)), np.nan)])
        if intensities == "equal":
            level = float(rng.choice([0.4, 1.0, 0.7129936309379207]))
            values = np.full(peaks.size, level)
        elif intensities == "zero":
            values = np.zeros(peaks.size)
        elif intensities == "unnormalised":
            values = rng.uniform(0.0, 1e4, peaks.size)
        else:
            values = rng.uniform(0.0, 1.0, peaks.size)
        spectra.append(Spectrum(scan, 600.0, 2, peaks, values))
    return arena, spectra


def pick_top_k(choice, n):
    return max(0, {"0": 0, "1": 1, "n-1": n - 1, "n": n, "n+1": n + 1}[choice])


# -- references -------------------------------------------------------


def score_everything(index, arena, entry_ids, spectra, top_k):
    """Filter, score every candidate, and cut each spectrum with a ``lexsort``."""
    filtered = index.filter_many(spectra)
    outcomes = score_many(
        spectra,
        [f.candidates for f in filtered],
        fragment_tolerance=index.settings.fragment_tolerance,
        arena=arena,
    )
    psms = []
    for f, o in zip(filtered, outcomes):
        best = np.lexsort((entry_ids[f.candidates], -o.scores))[:top_k]
        ids = f.candidates[best].astype(np.int64)
        psms.append((ids, o.scores[best], f.shared_peaks[best]))
    counters = {
        "buckets_scanned": [f.buckets_scanned for f in filtered],
        "ions_scanned": [f.ions_scanned for f in filtered],
        "candidates_scored": [o.candidates_scored for o in outcomes],
        "residues_scored": [o.residues_scored for o in outcomes],
    }
    return [f.candidates.size for f in filtered], psms, counters


def assert_exact(index, arena, entry_ids, spectra, top_k):
    out = run_rank_queries(index, arena, entry_ids, spectra, top_k=top_k)
    counts, psms, counters = score_everything(index, arena, entry_ids, spectra, top_k)
    assert out.counts.tolist() == counts
    assert len(out.local_psms) == len(psms)
    for got, want in zip(out.local_psms, psms):
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tolist() == want[2].tolist()
    for name, want in counters.items():
        assert getattr(out, name).tolist() == want, name
    return out


# -- the bound --------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["slm", "chunked"]),
    windowed=st.booleans(),
    n_entries=st.integers(1, 40),
    tol=st.sampled_from([0.0, 0.004, 0.02, 0.05, 0.5]),
    threshold=st.sampled_from([1, 4]),
    nan_peaks=st.booleans(),
)
def test_match_bounds_cover_every_match(
    seed, kind, windowed, n_entries, tol, threshold, nan_peaks
):
    rng = np.random.default_rng(seed)
    arena, spectra = draw_search(
        rng, n_entries, tol, intensities="uniform", nan_peaks=nan_peaks
    )
    settings = SLMIndexSettings(
        fragment_tolerance=tol,
        shared_peak_threshold=threshold,
        precursor_tolerance=float(rng.uniform(100.0, 2000.0)) if windowed else None,
    )
    index = build(kind, arena, settings)
    filtered = index.filter_many(spectra)
    bounds = index.match_bounds(spectra, filtered)
    assert bounds.dtype == np.int64
    assert bounds.size == sum(f.candidates.size for f in filtered)
    at = 0
    for spectrum, f in zip(spectra, filtered):
        outcome, _, _ = dense_score_candidates(
            spectrum, f.candidates, fragment_tolerance=tol, arena=arena
        )
        got = bounds[at : at + f.candidates.size]
        assert np.all(got >= outcome.n_matched)
        if np.any(f.shared_peaks < outcome.n_matched):
            event("shared peaks undercount a match")
        if kind == "chunked":
            assert got.tolist() == arena.counts[f.candidates].tolist()
        at += f.candidates.size


@pytest.mark.parametrize("kind", ["slm", "chunked"])
def test_rim_fragment_is_counted(kind):
    """Peak 1486.35 matches 1486.35 + 0.05 from its window's exclusive end."""
    peak, fragment = 1486.35, 1486.35 + 0.05  # 1486.3999999999999
    assert abs(fragment - peak) <= TOL
    assert np.floor(fragment * (1 / 0.01)) == np.floor((peak + TOL) / 0.01) + 1
    arena = arena_of([np.array([500.0, fragment])])
    spectrum = Spectrum(0, 600.0, 2, np.array([500.0, peak]), np.array([1.0, 1.0]))
    index = build(kind, arena, OPEN)
    filtered = index.filter_many([spectrum])
    outcome, _, _ = dense_score_candidates(
        spectrum, filtered[0].candidates, fragment_tolerance=TOL, arena=arena
    )
    assert filtered[0].candidates.tolist() == [0]
    assert outcome.n_matched.tolist() == [2]
    assert filtered[0].shared_peaks.tolist() == [1]  # shared peaks alone undercount
    assert index.match_bounds([spectrum], filtered).tolist() == [2]


# -- the pruned rank body ---------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["slm", "chunked"]),
    n_entries=st.integers(2, 80),
    tol=st.sampled_from([0.0, 0.02, 0.05, 0.5]),
    threshold=st.sampled_from([1, 4]),
    intensities=st.sampled_from(["uniform", "equal", "zero", "unnormalised"]),
    nan_peaks=st.booleans(),
    k_choice=st.sampled_from(["0", "1", "n-1", "n", "n+1"]),
)
def test_pruned_rank_body_equals_scoring_everything(
    seed, kind, n_entries, tol, threshold, intensities, nan_peaks, k_choice
):
    rng = np.random.default_rng(seed)
    arena, spectra = draw_search(
        rng, n_entries, tol, intensities=intensities, nan_peaks=nan_peaks
    )
    settings = SLMIndexSettings(
        fragment_tolerance=tol,
        shared_peak_threshold=threshold,
        precursor_tolerance=None if kind == "slm" else 1e6,
    )
    index = build(kind, arena, settings)
    filtered = index.filter_many(spectra)
    top_k = pick_top_k(k_choice, filtered[0].candidates.size)
    pruned = [
        f.candidates.size > top_k
        and arena.counts[f.candidates].sum() >= _COARSE_MIN_FRAGMENTS
        for f in filtered
    ]
    event(f"spectra pruned: {'some' if any(pruned) else 'none'}")
    entry_ids = rng.permutation(n_entries).astype(np.int64)
    assert_exact(index, arena, entry_ids, spectra, top_k)


def padded(fragments, n_fill, start):
    """``fragments`` then ``n_fill`` fillers far from every peak."""
    return np.concatenate([fragments, start + 0.5 * np.arange(n_fill)])


def spy_on_bounds(monkeypatch, index):
    """Record the spectra counts ``match_bounds`` is asked for."""
    calls = []
    real = index.match_bounds

    def spy(spectra, filtered, **kw):
        calls.append(len(spectra))
        return real(spectra, filtered, **kw)

    monkeypatch.setattr(index, "match_bounds", spy)
    return calls


@pytest.mark.parametrize("kind", ["slm", "chunked"])
@pytest.mark.parametrize("total", [_COARSE_MIN_FRAGMENTS + d for d in (-1, 0, 1)])
def test_pruning_engages_at_the_large_gather_cut(monkeypatch, kind, total):
    """64 candidates whose gather is one fragment either side of the cut."""
    rng = np.random.default_rng(total)
    sizes = np.full(64, total // 64)
    sizes[: total % 64] += 1
    peaks = np.array([300.0, 450.0, 700.0])
    arrays = [
        padded(
            np.concatenate([[300.0], rng.choice(peaks, 2) + rng.uniform(-0.06, 0.06, 2)]),
            s - 3,
            2000.0,
        )
        for s in sizes
    ]
    arena = arena_of(arrays)
    assert arena.n_ions == total
    spectrum = Spectrum(0, 600.0, 2, peaks, rng.uniform(0.0, 1.0, 3))
    index = build(kind, arena, OPEN if kind == "slm" else WIDE)
    calls = spy_on_bounds(monkeypatch, index)
    out = assert_exact(index, arena, np.arange(64)[::-1].copy(), [spectrum], 5)
    assert out.counts.tolist() == [64]
    assert calls == ([1] if total >= _COARSE_MIN_FRAGMENTS else [])


def two_candidates(x, y, peaks, intensities):
    """Entries x (global id 0) and y (global id 1), padded past the cut."""
    fill = _COARSE_MIN_FRAGMENTS // 2
    arena = arena_of([padded(x, fill, 3000.0), padded(y, fill, 3000.0)])
    spectrum = Spectrum(0, 600.0, 2, np.asarray(peaks), np.asarray(intensities))
    index = SLMIndex(arena, OPEN)
    return index, arena, spectrum


def test_rim_keeps_a_tied_candidate(monkeypatch):
    """x matches one peak from the rim; without it x's bound falls below L."""
    x = np.array([200.0, 1486.35 + 0.05])
    y = np.array([200.0, 1486.35])
    index, arena, spectrum = two_candidates(x, y, [200.0, 1486.35], [1.0, 1.0])
    filtered = index.filter_many([spectrum])
    assert filtered[0].shared_peaks.tolist() == [1, 2]
    calls = spy_on_bounds(monkeypatch, index)
    out = assert_exact(index, arena, np.arange(2), [spectrum], 1)
    assert calls == [1]
    assert out.local_psms[0][0].tolist() == [0]  # tie on score, lower global id


def test_margin_keeps_a_candidate_whose_sum_rounds_up():
    """x's bound is tight, yet its credit sum rounds one ulp above ``m * I``."""
    peaks = 200.0 + np.arange(15)
    x = peaks
    y = np.concatenate([peaks, [200.058]])  # one more windowed ion, unmatched
    index, arena, spectrum = two_candidates(x, y, peaks, np.full(15, 0.4))
    filtered = index.filter_many([spectrum])
    bounds = index.match_bounds([spectrum], filtered)
    assert bounds.tolist() == [15, 16]
    scores = score_many(
        [spectrum], [filtered[0].candidates], fragment_tolerance=TOL, arena=arena
    )[0].scores
    assert scores[0] == scores[1]
    assert scores[0] > score_upper_bounds(bounds[:1], np.array([0.4]))[0]
    out = assert_exact(index, arena, np.arange(2), [spectrum], 1)
    assert out.local_psms[0][0].tolist() == [0]


def test_a_bound_equal_to_the_kth_score_is_kept():
    """Zero intensities: x's bound and both scores are 0, and x wins the tie."""
    x = np.array([200.0])
    y = np.array([200.0, 300.058])  # one more windowed ion, unmatched
    index, arena, spectrum = two_candidates(x, y, [200.0, 300.0], [0.0, 0.0])
    filtered = index.filter_many([spectrum])
    assert index.match_bounds([spectrum], filtered).tolist() == [1, 2]
    assert score_upper_bounds(np.array([1]), np.array([0.0])).tolist() == [0.0]
    out = assert_exact(index, arena, np.arange(2), [spectrum], 1)
    assert out.local_psms[0][0].tolist() == [0]


def test_pruning_skips_exact_scores_but_not_the_counters(monkeypatch):
    """Most candidates are never scored; the counters still count them all."""
    rng = np.random.default_rng(7)
    peaks = np.sort(rng.uniform(200.0, 1200.0, 40))
    arrays = [
        padded(rng.choice(peaks, int(rng.integers(1, 30))), 60, 2000.0)
        for _ in range(200)
    ]
    arena = arena_of(arrays, lengths=rng.integers(5, 30, 200).astype(np.int64))
    spectrum = Spectrum(0, 600.0, 2, peaks, rng.uniform(0.0, 1.0, 40))
    index = SLMIndex(arena, OPEN)
    scored = []
    real = rank.score_many

    def counting(spectra, lists, **kw):
        scored.append(sum(c.size for c in lists))
        return real(spectra, lists, **kw)

    monkeypatch.setattr(rank, "score_many", counting)
    out = assert_exact(index, arena, np.arange(200), [spectrum], 5)
    assert out.candidates_scored.tolist() == [200]
    assert len(scored) == 2 and sum(scored) < 100
