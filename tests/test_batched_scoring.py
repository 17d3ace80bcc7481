"""Property suite for block scoring in ``score_many``.

``score_many`` scores runs of consecutive small-gather spectra as one
block (one gather, one exact test, one credit vector, one fold) and
sends every other spectrum through :func:`score_candidates`.  The
reference here is a plain per-spectrum loop of
:func:`score_candidates`; every outcome must equal it byte for byte —
scores, ``n_matched`` and both work counters.

Batches mix zero-candidate spectra, zero-peak spectra, gathers either
side of the block budget and of the coarse cut-off (both constants are
drawn small as well as at their real values), duplicate candidate ids,
zero-fragment candidates, and fragments at exactly ``q ± tol`` and one
ulp past it.  Spectra draw their peaks from a shared pool the
fragments crowd, so candidates match many fragments and folds of
eight or more credits (where pairwise summation rounds differently
from a running sum) are common.

The numpy seed is an explicit argument, so a falsifying example prints
it, and ``print_blob`` adds the reproduction decorator.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import event, given, settings as hsettings, strategies as st

from reference import arena_of
from repro.index.arena import Workspace
from repro.search import scoring
from repro.search.scoring import score_candidates, score_many
from repro.spectra.model import Spectrum

PROPERTY = hsettings(max_examples=300, deadline=None, print_blob=True)


def draw_batch(rng, n_spectra, n_entries, tol, *, edges):
    """An arena crowding a shared peak pool, and spectra drawn from it."""
    pool = np.sort(rng.uniform(100.0, 1500.0, 40))
    arrays = []
    for _ in range(n_entries):
        k = int(rng.choice([0, 1, 5, 20, 60]))  # zero-fragment entries included
        frags = rng.uniform(50.0, 1600.0, k)
        near = rng.random(k) < 0.6
        frags[near] = rng.choice(pool, int(near.sum())) + rng.normal(
            0.0, max(tol, 1e-3), int(near.sum())
        )
        if edges and k:
            planted = []
            for peak in rng.choice(pool, min(4, k)):
                for bound in (peak - tol, peak + tol):
                    planted += [bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)]
            take = min(k, len(planted))
            frags[:take] = rng.permutation(planted)[:take]
        arrays.append(np.sort(frags))
    arena = arena_of(
        arrays, lengths=rng.integers(1, 40, n_entries).astype(np.int64)
    )

    spectra, cands = [], []
    for scan in range(n_spectra):
        kind = rng.choice(
            ["none", "no-peaks", "small", "large", "huge"], p=[0.15, 0.1, 0.5, 0.2, 0.05]
        )
        peaks = np.sort(
            np.concatenate([rng.choice(pool, int(rng.integers(1, 25))), rng.uniform(50, 1600, 3)])
        )
        if kind == "no-peaks":
            peaks = np.empty(0)
        intensities = rng.uniform(0.0, 1000.0, peaks.size)
        intensities[rng.random(peaks.size) < 0.1] = 0.0
        spectra.append(Spectrum(scan, 600.0, 2, peaks, intensities))
        n_cands = {
            "none": 0, "no-peaks": 3, "small": int(rng.integers(1, 6)), "large": 80, "huge": 400
        }[kind]
        ids = rng.integers(0, n_entries, n_cands)  # duplicates allowed
        cands.append(ids.astype(rng.choice([np.int32, np.int64])))
    return arena, spectra, cands


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.scores.dtype == w.scores.dtype
        assert g.n_matched.dtype == w.n_matched.dtype
        assert g.scores.tobytes() == w.scores.tobytes()
        assert g.n_matched.tobytes() == w.n_matched.tobytes()
        assert g.candidates_scored == w.candidates_scored
        assert g.residues_scored == w.residues_scored


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_spectra=st.integers(0, 24),
    n_entries=st.integers(1, 50),
    tol=st.sampled_from([0.0, 0.004, 0.02, 0.05, 0.5]),
    edges=st.booleans(),
    block=st.sampled_from([1, 60, 400, scoring._BLOCK_FRAGMENTS]),
    cutoff=st.sampled_from([30, 300, scoring._COARSE_MIN_FRAGMENTS]),
)
def test_score_many_equals_a_per_spectrum_loop(
    seed, n_spectra, n_entries, tol, edges, block, cutoff
):
    rng = np.random.default_rng(seed)
    arena, spectra, cands = draw_batch(rng, n_spectra, n_entries, tol, edges=edges)
    blocks = []
    kernel = scoring._score_block

    def spy(members, *args):
        blocks.append(len(members))
        return kernel(members, *args)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(scoring, "_BLOCK_FRAGMENTS", block))
        stack.enter_context(mock.patch.object(scoring, "_COARSE_MIN_FRAGMENTS", cutoff))
        want = [
            score_candidates(s, arena, c, fragment_tolerance=tol, workspace=Workspace())
            for s, c in zip(spectra, cands)
        ]
        stack.enter_context(mock.patch.object(scoring, "_score_block", spy))
        ws = Workspace()
        got = score_many(spectra, cands, fragment_tolerance=tol, arena=arena, workspace=ws)
        again = score_many(spectra, cands, fragment_tolerance=tol, arena=arena, workspace=ws)
    event(f"a block scored several spectra: {any(n > 1 for n in blocks)}")
    event(f"some spectrum left the blocks: {sum(blocks) < n_spectra}")
    assert_identical(got, want)
    assert_identical(again, want)  # warm workspace


def test_a_narrow_batch_is_scored_in_one_block():
    """Windowed-search shape: a few candidates per spectrum, one block."""
    rng = np.random.default_rng(4)
    arena, spectra, cands = draw_batch(rng, 48, 50, 0.05, edges=False)
    cands = [c[arena.counts[c] > 0][:3] for c in cands]
    spectra = [s if s.n_peaks else Spectrum(s.scan_id, 600.0, 2, [500.0], [1.0]) for s in spectra]
    blocks = []
    kernel = scoring._score_block

    def spy(members, *args):
        blocks.append(len(members))
        return kernel(members, *args)

    with mock.patch.object(scoring, "_score_block", spy):
        got = score_many(spectra, cands, fragment_tolerance=0.05, arena=arena)
    assert blocks == [48]
    want = [score_candidates(s, arena, c, fragment_tolerance=0.05) for s, c in zip(spectra, cands)]
    assert_identical(got, want)
    assert sum(int(o.n_matched.sum()) for o in got) > 0
