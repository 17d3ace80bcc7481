"""Equivalence suite for the cross-spectrum batched filtration kernel.

``SLMIndex.filter_many`` runs one window pass over a whole batch of
spectra, then a gather + bincount per spectrum into one reused scratch,
and flat and chunked filtration share one precursor-window dtype.
Everything here pins those kernels to the per-spectrum reference
paths bit-for-bit: candidates, shared peaks, and both work counters,
across empty spectra, zero-candidate spectra, non-finite peaks,
windowed + open search, and chunked indexes under tiny gather blocks
(``repro.index.chunks.FILTER_BATCH_ION_BUDGET``) that force many
blocks per batch.  The flat kernel's scratch is bounded by one
spectrum's gather and the chunked kernel's by one block, not by the
batch's.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from reference import bruteforce_filter, index_over
from repro.chem.fragments import fragment_mzs
from repro.chem.peptide import Peptide
from repro.constants import PROTON
from repro.index.arena import FragmentArena, Workspace, concat_ranges
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import IndexedDatabase
from repro.search.scoring import score_many
from repro.spectra.model import Spectrum
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

PEPTIDES = [
    Peptide("AAAGGGK"),
    Peptide("A"),  # zero fragments
    Peptide("CCDDEEK"),
    Peptide("MMNNQQRK"),
    Peptide("WWYYFFK"),
    Peptide("GGHHIIKK"),
    Peptide("LLPPSSTK"),
    Peptide("VVMMAACR"),
]


def spectrum_of(peptide, scan=1, charge=2):
    mzs = fragment_mzs(peptide)
    return Spectrum(
        scan_id=scan,
        precursor_mz=(peptide.mass + charge * PROTON) / charge,
        charge=charge,
        mzs=mzs,
        intensities=np.ones_like(mzs),
    )


def chunked(settings, chunk_entries):
    """The chunked index over ``PEPTIDES``' arena (ids = list positions)."""
    arena = FragmentArena.from_peptides(PEPTIDES, settings.fragmentation)
    return ChunkedIndex(arena, settings, chunk_entries=chunk_entries)


def mixed_spectra():
    """Real hits, an empty spectrum, and out-of-range (zero-candidate) peaks."""
    spectra = [
        spectrum_of(p, scan=i) for i, p in enumerate(PEPTIDES) if p.length > 1
    ]
    spectra.append(Spectrum(90, 500.0, 2, np.array([]), np.array([])))
    far = np.array([9000.0, 9500.0, 9900.0])
    spectra.append(Spectrum(91, 700.0, 2, far, np.ones_like(far)))
    return spectra


def assert_results_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.candidates.dtype == e.candidates.dtype
        assert np.array_equal(g.candidates, e.candidates)
        assert np.array_equal(g.shared_peaks, e.shared_peaks)
        assert g.buckets_scanned == e.buckets_scanned
        assert g.ions_scanned == e.ions_scanned


# -- SLMIndex batched kernel -------------------------------------------


@pytest.mark.parametrize("precursor_tolerance", [None, 2.0, 0.0])
@pytest.mark.parametrize("ion_budget", [1, 37, 1 << 22])
def test_filter_many_bit_identical_to_filter(precursor_tolerance, ion_budget):
    """Flat batched == per-spectrum (the flat kernel has no budget), and
    chunked batched == per-spectrum whatever the chunked gather block:
    1 and 37 force many blocks, 1 << 22 leaves the batch one block."""
    settings = SLMIndexSettings(
        shared_peak_threshold=1, precursor_tolerance=precursor_tolerance
    )
    idx = index_over(PEPTIDES, settings)
    spectra = mixed_spectra()
    expected = [idx.filter(s) for s in spectra]
    assert_results_equal(idx.filter_many(spectra), expected)
    ci = chunked(settings, 3)
    chunked_expected = [ci.filter(s) for s in spectra]
    with mock.patch("repro.index.chunks.FILTER_BATCH_ION_BUDGET", ion_budget):
        assert_results_equal(ci.filter_many(spectra), chunked_expected)


def test_filter_many_high_threshold_zero_candidates():
    idx = index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=10_000))
    spectra = mixed_spectra()
    batched = idx.filter_many(spectra)
    for got, s in zip(batched, spectra):
        one = idx.filter(s)
        assert got.candidates.size == one.candidates.size == 0
        assert got.ions_scanned == one.ions_scanned
        assert got.buckets_scanned == one.buckets_scanned


def test_filter_many_empty_inputs_and_validation():
    idx = index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=1))
    assert idx.filter_many([]) == []
    empty_idx = index_over([], SLMIndexSettings(shared_peak_threshold=1))
    res = empty_idx.filter_many(mixed_spectra())
    assert all(r.candidates.size == 0 and r.ions_scanned == 0 for r in res)


def test_filter_many_ion_budget_split_bit_identical(monkeypatch):
    """Flat batched == per-spectrum; a tiny gather block makes the
    chunked kernel count the batch in many ranges, and its results must
    not change either (each spectrum depends only on its own slice)."""
    import repro.index.chunks as chunks_mod

    settings = SLMIndexSettings(shared_peak_threshold=1)
    idx = index_over(PEPTIDES, settings)
    spectra = mixed_spectra()
    expected = [idx.filter(s) for s in spectra]
    assert_results_equal(idx.filter_many(spectra), expected)
    ci = chunked(settings, 3)
    chunked_expected = [ci.filter(s) for s in spectra]
    with monkeypatch.context() as m:
        m.setattr(chunks_mod, "FILTER_BATCH_ION_BUDGET", 8)
        assert_results_equal(ci.filter_many(spectra), chunked_expected)


def parents_scratch(ws):
    """Bytes held by ``ws``'s flat-filtration gather scratch."""
    return ws.take("slm.filter_batch.parents", 0, np.int32).base.nbytes


@pytest.mark.parametrize("precursor_tolerance", [None, 2.0])
def test_filter_many_scratch_is_bounded_by_one_spectrum(precursor_tolerance):
    """A batch of many copies of one spectrum leaves the gather scratch
    no larger than one copy does: the kernel gathers one spectrum at a
    time, so the batch never holds more than one spectrum's ions."""
    settings = SLMIndexSettings(
        shared_peak_threshold=1, precursor_tolerance=precursor_tolerance
    )
    idx = index_over(PEPTIDES, settings)
    one = spectrum_of(PEPTIDES[3])
    ws = Workspace()
    (single,) = idx.filter_many([one], workspace=ws)
    held = parents_scratch(ws)
    assert 0 < single.ions_scanned <= held // 4
    # Enough copies to gather four times what the scratch holds.
    copies = 4 * (held // 4) // single.ions_scanned + 1
    batched = idx.filter_many([one] * copies, workspace=ws)
    assert sum(r.ions_scanned for r in batched) > held
    assert parents_scratch(ws) == held
    assert_results_equal(batched, [single] * copies)


def chunked_scratch(ws):
    """Bytes held by ``ws``'s chunked gather scratch and its iota."""
    parents = ws.take("chunks.parents", 0, np.int32).base.nbytes
    return parents, ws.iota(0).base.nbytes


@pytest.mark.parametrize("precursor_tolerance", [None, 2.0], ids=["open", "windowed"])
def test_chunked_filter_scratch_is_bounded_by_the_block(precursor_tolerance):
    """The chunked gather scratch and the iota hold one block, whatever
    the batch: a batch just past one block sizes them to the block, and
    one gathering four blocks' worth of ions leaves them there, because
    the kernel gathers and counts a block of whole spectra at a time."""
    settings = SLMIndexSettings(
        shared_peak_threshold=1, precursor_tolerance=precursor_tolerance
    )
    ci = chunked(settings, 3)
    one = spectrum_of(PEPTIDES[3])
    (single,) = ci.filter_many([one])
    block = 1 << 14
    past_one = block // single.ions_scanned + 1
    copies = 4 * block // single.ions_scanned + 1
    ws = Workspace()
    with mock.patch("repro.index.chunks.FILTER_BATCH_ION_BUDGET", block):
        first = ci.filter_many([one] * past_one, workspace=ws)
        held = chunked_scratch(ws)
        batched = ci.filter_many([one] * copies, workspace=ws)
    assert held == (4 * block, 8 * block)  # int32 parents, int64 iota
    assert sum(r.ions_scanned for r in batched) > 4 * block
    assert chunked_scratch(ws) == held
    assert_results_equal(first, [single] * past_one)
    assert_results_equal(batched, [single] * copies)


def test_non_finite_peaks_add_no_work():
    """NaN and ±inf peaks get empty windows on every platform: flat and
    chunked filtration and the flat match bounds raise no invalid-value
    error and equal the same spectra without those peaks."""
    clean = mixed_spectra()
    dirty = []
    for s in clean:
        d = Spectrum(s.scan_id, s.precursor_mz, s.charge, s.mzs, s.intensities)
        # Set after validation, which rejects -inf.
        d.mzs = np.concatenate([[-np.inf], s.mzs, [np.inf, np.nan, np.nan]])
        d.intensities = np.ones_like(d.mzs)
        dirty.append(d)
    for ptol in (None, 2.0):
        settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=ptol)
        flat = index_over(PEPTIDES, settings)
        ci = chunked(settings, 3)
        with np.errstate(invalid="raise"):
            got = flat.filter_many(dirty)
            got_chunked = ci.filter_many(dirty)
            got_bounds = flat.match_bounds(dirty, got)
            got_one = [flat.filter(d) for d in dirty]
        want = flat.filter_many(clean)
        assert_results_equal(got, want)
        assert_results_equal(got_one, want)
        assert_results_equal(got_chunked, ci.filter_many(clean))
        assert np.array_equal(got_bounds, flat.match_bounds(clean, want))


def test_filter_many_private_workspace_matches_default():
    idx = index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=1))
    spectra = mixed_spectra()
    ws = Workspace()
    assert_results_equal(
        idx.filter_many(spectra, workspace=ws), idx.filter_many(spectra)
    )


def test_filter_many_bit_identical_on_synthetic_run():
    """A realistic database + synthetic run, windowed and open."""
    db = IndexedDatabase.from_peptides(
        [
            Peptide(s)
            for s in (
                "AAAGGGKR", "CCDDEEKK", "MMNNQQRL", "WWYYFFKA", "AAAGGGRV",
                "LLPPSSTK", "GGHHIIKK", "VVMMAACR", "TTSSPPLK", "EEDDCCKR",
            )
        ],
        max_variants_per_peptide=3,
    )
    spectra = generate_run(db.entries, SyntheticRunConfig(n_spectra=10, seed=3))
    for ptol in (None, 1.5):
        settings = SLMIndexSettings(
            shared_peak_threshold=2, precursor_tolerance=ptol
        )
        idx = SLMIndex(db.arena_for(settings.fragmentation), settings)
        expected = [idx.filter(s) for s in spectra]
        assert_results_equal(idx.filter_many(spectra), expected)


# -- chunked batched path ----------------------------------------------


@pytest.mark.parametrize("precursor_tolerance", [None, 1.0])
def test_chunked_filter_many_matches_per_spectrum(precursor_tolerance, monkeypatch):
    import repro.index.chunks as chunks_mod

    settings = SLMIndexSettings(
        shared_peak_threshold=1, precursor_tolerance=precursor_tolerance
    )
    ci = chunked(settings, 3)
    spectra = mixed_spectra()
    batched = ci.filter_many(spectra)
    assert_results_equal(batched, [ci.filter(s) for s in spectra])
    # A one-ion block counts each spectrum that gathers ions on its own:
    # one bincount per range, over one spectrum's keys.
    ranges = []
    bincount = np.bincount

    def spy(keys, minlength=0):
        ranges.append(minlength)
        return bincount(keys, minlength=minlength)

    monkeypatch.setattr(chunks_mod, "FILTER_BATCH_ION_BUDGET", 1)
    monkeypatch.setattr(np, "bincount", spy)
    got = ci.filter_many(spectra)
    monkeypatch.undo()
    assert_results_equal(got, batched)
    assert len(ranges) == sum(r.ions_scanned > 0 for r in batched)
    assert len(set(ranges)) == 1  # every range is one spectrum wide


@hsettings(max_examples=40, deadline=None)
@given(
    budget=st.integers(1, 64),
    precursor_tolerance=st.one_of(st.none(), st.floats(0.0, 300.0)),
    chunk_entries=st.integers(1, 9),
    threshold=st.integers(1, 3),
    picks=st.lists(st.integers(0, 8), min_size=1, max_size=12),
)
def test_chunked_blocks_match_per_spectrum(
    budget, precursor_tolerance, chunk_entries, threshold, picks
):
    """Any gather block, windowed or open: the batched call equals
    per-spectrum filtration on candidates, shared peaks and both
    work counters."""
    settings = SLMIndexSettings(
        shared_peak_threshold=threshold, precursor_tolerance=precursor_tolerance
    )
    ci = chunked(settings, chunk_entries)
    pool = mixed_spectra()
    spectra = [pool[i] for i in picks]
    expected = [ci.filter(s) for s in spectra]
    with mock.patch("repro.index.chunks.FILTER_BATCH_ION_BUDGET", budget):
        assert_results_equal(ci.filter_many(spectra), expected)


def test_chunked_filter_many_matches_flat_index():
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=2.0)
    ci = chunked(settings, 2)
    flat = index_over(PEPTIDES, settings)
    for s, res in zip(mixed_spectra(), ci.filter_many(mixed_spectra())):
        fres = flat.filter(s)
        assert np.array_equal(res.candidates, fres.candidates)
        assert np.array_equal(res.shared_peaks, fres.shared_peaks)
        assert res.ions_scanned <= fres.ions_scanned


# -- precursor-window boundary regression ------------------------------


def test_precursor_boundary_chunked_agrees_with_flat():
    """A mass exactly at the float32-rounded window boundary must be
    kept (or dropped) identically by flat and chunked filtration.

    Before the fix, ``SLMIndex.filter`` masked with float32 masses
    while ``ChunkedIndex.chunks_for`` pruned with float64 exact masses,
    so a peptide whose float32 mass sits exactly on the window edge
    while its float64 mass lies just outside was found by the flat
    index but pruned away by the chunked one.
    """
    # A peptide whose float32 mass rounds *down* from the float64 mass.
    target = next(
        p for p in PEPTIDES if p.length > 1 and float(np.float32(p.mass)) < p.mass
    )
    m32 = float(np.float32(target.mass))
    mzs = fragment_mzs(target)
    q = Spectrum(
        scan_id=1,
        precursor_mz=m32 - 0.5 + PROTON,
        charge=1,
        mzs=mzs,
        intensities=np.ones_like(mzs),
    )
    nm = q.neutral_mass
    # Tolerance that puts the float32-rounded mass exactly on the
    # window boundary, with the exact float64 mass strictly outside:
    # the scenario where the two code paths used to disagree.
    tol = float(np.abs(np.float64(m32) - nm))
    assert target.mass - nm > tol

    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=tol)
    flat = index_over(PEPTIDES, settings)
    ci = chunked(settings, 1)
    fres = flat.filter(q)
    cres = ci.filter(q)
    # The boundary mass is inside the window (<=), so the target must
    # survive filtration on BOTH paths.
    tid = PEPTIDES.index(target)
    assert tid in fres.candidates.tolist()
    assert tid in cres.candidates.tolist()
    assert np.array_equal(cres.candidates, fres.candidates)
    # The batched kernels agree too.
    assert_results_equal(flat.filter_many([q]), [fres])
    assert_results_equal(ci.filter_many([q]), [cres])


def test_interval_slack_keeps_an_entry_at_the_window_edge():
    """An entry the difference-form predicate keeps, one ulp outside
    ``searchsorted``'s interval on the rounded ``neutral + tol``.

    The two disagree only when the window edge ``neutral ± tol`` lies
    in a finer binade than ``tol``: a negative neutral mass (a precursor
    m/z below a proton, which ``Spectrum`` accepts) or a tolerance ~2^29
    times the mass.  A search of float64 neighbourhoods of ``mass ±
    tol`` found no case outside those.  This one has an entry mass just
    below 1024 Da and a tolerance just past it; the interval's slack
    must keep the entry, as the flat index does.
    """
    base = FragmentArena.from_peptides(PEPTIDES)
    masses = base.masses.copy()
    target = 3
    masses[target] = np.nextafter(np.float32(1024), np.float32(0))
    arena = FragmentArena(base.mzs, base.offsets, lengths=base.lengths, masses=masses)
    mass = float(masses[target])
    mzs = fragment_mzs(PEPTIDES[target])

    def edge_cases():
        for precursor_mz in np.linspace(0.05, 1.0, 40):
            q = Spectrum(1, float(precursor_mz), 1, mzs, np.ones_like(mzs))
            tol = mass - q.neutral_mass
            for _ in range(4):  # the tolerances within 3 ulps above
                yield q, tol
                tol = float(np.nextafter(tol, np.inf))

    q, tol = next(
        (q, tol)
        for q, tol in edge_cases()
        if not abs(mass - q.neutral_mass) > tol and mass > q.neutral_mass + tol
    )
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=tol)
    fres = SLMIndex(arena, settings).filter(q)
    cres = ChunkedIndex(arena, settings, chunk_entries=1).filter(q)
    assert target in fres.candidates.tolist()
    assert np.array_equal(cres.candidates, fres.candidates)
    assert np.array_equal(cres.shared_peaks, fres.shared_peaks)


def test_bruteforce_uses_same_window_predicate():
    target = next(p for p in PEPTIDES if p.length > 1)
    q = spectrum_of(target)
    nm = q.neutral_mass
    tol = float(np.abs(np.float64(np.float32(target.mass)) - nm))
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=tol)
    idx = index_over(PEPTIDES, settings)
    fast, slow = idx.filter(q), bruteforce_filter(PEPTIDES, settings, q)
    assert np.array_equal(fast.candidates, slow.candidates)
    assert np.array_equal(fast.shared_peaks, slow.shared_peaks)


# -- concat_ranges property + workspace aliasing -----------------------


@hsettings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 15)), min_size=0, max_size=10
    ),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 15)), min_size=0, max_size=10
    ),
)
def test_concat_ranges_workspace_reuse_stays_correct(pairs_a, pairs_b):
    """Back-to-back workspace calls (the batched kernel's pattern) must
    each be correct even though the second reuses/aliases the first's
    scratch buffers."""

    def naive(pairs):
        return (
            np.concatenate(
                [np.arange(a, a + w, dtype=np.int64) for a, w in pairs]
            )
            if pairs
            else np.empty(0, dtype=np.int64)
        )

    def args(pairs):
        starts = np.array([a for a, _ in pairs], dtype=np.int64)
        return starts, starts + np.array([w for _, w in pairs], dtype=np.int64)

    ws = Workspace()
    got_a = concat_ranges(*args(pairs_a), workspace=ws)
    copy_a = got_a.copy()  # consume before the next call clobbers it
    got_b = concat_ranges(*args(pairs_b), workspace=ws)
    assert np.array_equal(copy_a, naive(pairs_a))
    assert np.array_equal(got_b, naive(pairs_b))


def test_workspace_iota_grows_and_stays_ascending():
    ws = Workspace()
    small = ws.iota(5, np.int64)
    assert small.tolist() == [0, 1, 2, 3, 4]
    big = ws.iota(5000, np.int64)
    assert big[0] == 0 and big[-1] == 4999
    assert np.array_equal(big, np.arange(5000))
    # Growth must not invalidate prefix values (the cached arange is
    # replaced by a longer arange, never mutated in place).
    again = ws.iota(7, np.int64)
    assert again.tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert ws.iota(7, np.int32).dtype == np.int32


def test_concat_ranges_workspace_views_alias_buffer():
    ws = Workspace()
    starts = np.array([3, 10], dtype=np.int64)
    stops = np.array([6, 12], dtype=np.int64)
    first = concat_ranges(starts, stops, workspace=ws)
    second = concat_ranges(starts, stops, workspace=ws)
    # Same request size -> the scratch view aliases the same buffer.
    assert first.base is second.base
    assert np.array_equal(second, np.array([3, 4, 5, 10, 11]))


# -- rank sub-arena index builds ---------------------------------------


def test_sub_arena_index_build_avoids_argsort(monkeypatch):
    settings = SLMIndexSettings(shared_peak_threshold=1)
    arena = FragmentArena.from_peptides(PEPTIDES)
    ids = np.array([5, 1, 3, 0, 7], dtype=np.int64)  # shuffled manifest
    sub = arena.take(ids)
    sub_entries = [PEPTIDES[int(i)] for i in ids]
    with monkeypatch.context() as m:
        m.setattr(
            np,
            "argsort",
            lambda *a, **k: pytest.fail("argsort during rank partial build"),
        )
        rank_index = SLMIndex(sub, settings)
    # Bit-identical filtration vs an index built from scratch (fresh
    # argsort) over the same entries.
    fresh_index = index_over(sub_entries, settings)
    for p in sub_entries:
        if p.length < 2:
            continue
        q = spectrum_of(p)
        assert_results_equal([rank_index.filter(q)], [fresh_index.filter(q)])
    spectra = [spectrum_of(p) for p in sub_entries if p.length > 1]
    assert_results_equal(
        rank_index.filter_many(spectra), fresh_index.filter_many(spectra)
    )


# -- workspace plumbing through scoring --------------------------------


def test_score_many_private_workspace_matches_default():
    arena = FragmentArena.from_peptides(PEPTIDES)
    spectra = [spectrum_of(p, scan=i) for i, p in enumerate(PEPTIDES[:3], 1)]
    cand_lists = [
        np.array([0, 2, 4]),
        np.empty(0, dtype=np.int64),
        np.array([1, 3, 5]),
    ]
    default = score_many(spectra, cand_lists, fragment_tolerance=0.05, arena=arena)
    private = score_many(
        spectra,
        cand_lists,
        fragment_tolerance=0.05,
        arena=arena,
        workspace=Workspace(),
    )
    for d, p in zip(default, private):
        assert np.array_equal(d.scores, p.scores)
        assert np.array_equal(d.n_matched, p.n_matched)


# -- indexes over an archived (memory-mapped) arena batch too ----------


def test_loaded_index_batched_filtration_identical(tmp_path):
    settings = SLMIndexSettings(shared_peak_threshold=1, precursor_tolerance=2.0)
    idx = index_over(PEPTIDES, settings)
    database = IndexedDatabase(list(PEPTIDES), list(PEPTIDES), np.arange(len(PEPTIDES) + 1))
    archived, _ = IndexedDatabase.load(database.save(tmp_path / "idx", settings))
    loaded = SLMIndex(archived.arena_for(settings.fragmentation), settings)
    spectra = mixed_spectra()
    assert_results_equal(
        loaded.filter_many(spectra), [idx.filter(s) for s in spectra]
    )
