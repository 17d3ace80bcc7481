"""Candidate scoring: the expensive spectrum-to-spectrum comparison.

Filtration (shared-peak counting in the index) is cheap; the paper's
"computationally expensive spectrum-to-spectrum comparison operations"
happen on the filtered survivors.  We implement a hyperscore-style
score (as in X!Tandem/MSFragger): gather the candidate's theoretical
fragments and match them against the query peaks within the fragment
tolerance::

    score = ln(n_matched!) + ln(1 + sum of matched intensities)

``ln(n!)`` is evaluated as ``lgamma(n + 1)``.  The scorer reports work
counters (candidates, residues) that the engine converts into virtual
time — scoring cost scales with peptide length, one of the two
mechanisms that make contiguous (length-sorted) Chunk partitions
imbalanced.

The kernel is **match-driven**.  Roughly nine in ten gathered candidate
fragments lie near no query peak, so matching runs in two stages:

1. a *coarse* test (:func:`_coarse_survivors`) quantises every gathered
   fragment to a 0.01 Da bucket and looks it up in a per-spectrum byte
   table marking each query peak's ``±(tolerance + 1 bucket)`` window.
   It is conservative — every fragment the exact test would match
   survives — and costs a handful of flat passes with no search;
2. the *exact* test (nearest query peak by ``searchsorted``, ``|Δ|`` to
   both neighbours, ties to the left, ``<= tolerance``) then runs on
   the survivors only.  These are the float expressions that define a
   match; the coarse stage never decides one.

Matched credits are scattered into a zeroed full-length vector and
folded per candidate with ``np.add.reduceat`` over the non-empty
candidates' starts (:func:`_fold_credits`), so each candidate sums
exactly its own fragments and the reduction tree — and the last-ulp
rounding — is that of a dense credit vector (see ROADMAP invariants).
Small gathers skip stage 1 (the table set-up would not repay) and take
the exact test directly.

Batches: :func:`score_many` scores runs of consecutive small-gather
spectra — a precursor-windowed search scores a handful of candidates
per spectrum — as one *block* (:func:`_score_block`): one gather, one
exact test, one credit vector and one fold for the whole run, so numpy
call overhead is paid per block instead of per spectrum.  Each spectrum
still binary-searches its own peaks, and each candidate's fold covers
its own credits, zeros included, as in :func:`score_candidates`, so
the outcomes are byte-identical.  Spectra with large gathers (every
open-search spectrum) keep the per-spectrum two-stage path.

Not every candidate reaches this module: for spectra with many
candidates and a large gather, the rank body scores only those whose
:func:`score_upper_bounds` can still reach the top-k ("Top-k pruning"
in :mod:`repro.search.rank`).  The serial oracle scores them all.

Candidate fragments always come from a flat
:class:`~repro.index.arena.FragmentArena`: one vectorized range
concatenation in candidate order, residues from its ``lengths``.  The
dense and per-candidate references the kernels are pinned against
live with the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma
from typing import List, Sequence

import numpy as np

from repro.chem.fragments import FragmentationSettings
from repro.errors import ConfigurationError
from repro.index.arena import FragmentArena, Workspace, thread_workspace
from repro.spectra.model import Spectrum

__all__ = ["ScoringOutcome", "score_candidates", "score_many", "score_upper_bounds"]


@dataclass(slots=True)
class ScoringOutcome:
    """Scores plus work counters for one spectrum's candidate set.

    Attributes
    ----------
    scores:
        Hyperscore per candidate (aligned with the candidate ids the
        caller supplied).
    n_matched:
        Matched-fragment count per candidate.
    candidates_scored:
        Number of candidates scored (== len(scores)).
    residues_scored:
        Total residues over scored candidates (virtual-cost basis).
    """

    scores: np.ndarray
    n_matched: np.ndarray
    candidates_scored: int
    residues_scored: int


#: Coarse-stage bucket width is ``1 / _COARSE_INV_WIDTH`` Da.
_COARSE_INV_WIDTH = 100.0

#: Gathers smaller than this skip the coarse stage: marking and
#: unmarking the table costs about as much as the exact test on this
#: many fragments (precursor-windowed searches score a handful of
#: candidates per spectrum and always land below it).
_COARSE_MIN_FRAGMENTS = 4096

#: Largest coarse table, in buckets (~42 000 Da); spectra reaching
#: beyond it take the exact test directly.
_COARSE_MAX_BUCKETS = 1 << 22

#: Bound on the fragments one :func:`score_many` block gathers
#: (512 KB of float64 m/z); a single spectrum's gather stays below
#: ``_COARSE_MIN_FRAGMENTS`` to join a block at all.
_BLOCK_FRAGMENTS = 1 << 16


def _coarse_survivors(
    theoretical: np.ndarray, query_mzs: np.ndarray, tolerance: float, ws: Workspace
) -> np.ndarray | None:
    """Ascending positions of ``theoretical`` that may match a query peak.

    A superset of the exact matches: ``|t - q| <= tolerance`` puts
    ``floor(t * 100)`` within one bucket of ``floor((q ± tolerance) *
    100)``, and every peak marks that range widened by one bucket each
    side.  Fragments below the table clamp to bucket 0 (marked only if
    a window reaches it), fragments above — and NaN — to a final bucket
    no window marks.  Marks left behind by an interrupted call could
    only add survivors.

    Returns ``None`` when the table cannot repay (small gather, windows
    marking more buckets than there are fragments) or cannot be built
    (non-finite or out-of-range query m/z): the caller then runs the
    exact test on everything.  ``query_mzs`` must be non-empty.
    """
    m = theoretical.size
    if m < _COARSE_MIN_FRAGMENTS:
        return None
    lo = np.floor((query_mzs - tolerance) * _COARSE_INV_WIDTH) - 1.0
    hi = np.floor((query_mzs + tolerance) * _COARSE_INV_WIDTH) + 1.0
    # Positive-form comparisons: NaN anywhere fails them.
    if not (lo[0] >= -_COARSE_MAX_BUCKETS and hi[-1] < _COARSE_MAX_BUCKETS):
        return None
    width = (hi - lo).max() + 1.0
    if not 0 < query_mzs.size * width <= m:
        return None
    width = int(width)
    cells = (lo.astype(np.intp)[:, None] + np.arange(width, dtype=np.intp)).ravel()
    np.maximum(cells, 0, out=cells)
    top = int(cells[-1]) + 1  # past every marked bucket (lo is ascending)
    table = ws.zeros("score.coarse.table", top + 1, np.bool_)
    table[cells] = True

    pos = ws.take("score.coarse.pos", m, np.float64)
    np.multiply(theoretical, _COARSE_INV_WIDTH, out=pos)
    np.fmax(pos, 0.0, out=pos)
    np.fmin(pos, float(top), out=pos)
    idx = ws.take("score.coarse.idx", m, np.intp)
    np.copyto(idx, pos, casting="unsafe")
    marked = ws.take("score.coarse.marked", m, np.bool_)
    # idx is already in range; "clip" only avoids mode="raise"'s buffered out=.
    np.take(table, idx, out=marked, mode="clip")
    table[cells] = False
    return np.flatnonzero(marked)


def score_candidates(
    spectrum: Spectrum,
    arena: FragmentArena,
    candidate_ids: np.ndarray,
    *,
    fragment_tolerance: float,
    workspace: Workspace | None = None,
) -> ScoringOutcome:
    """Score each candidate entry of ``arena`` against ``spectrum``.

    Parameters
    ----------
    spectrum:
        The (preprocessed) query spectrum.
    arena:
        The fragment arena ``candidate_ids`` index into; fragments come
        from one vectorized gather, residues from its ``lengths``.
    candidate_ids:
        Ids of filtration survivors (duplicates allowed).
    fragment_tolerance:
        ΔF in Da for fragment matching.
    workspace:
        Scratch-buffer workspace for the gather/credit temporaries;
        defaults to the calling thread's shared workspace.  Engines
        pass one workspace through filtration and scoring so the whole
        query phase reuses the same warm buffers.
    """
    n = int(candidate_ids.size)
    if n == 0:
        return ScoringOutcome(
            scores=np.zeros(0, dtype=np.float64),
            n_matched=np.zeros(0, dtype=np.int32),
            candidates_scored=0,
            residues_scored=0,
        )
    ws = workspace if workspace is not None else thread_workspace()
    cids = np.asarray(candidate_ids, dtype=np.int64)
    theo_all, sizes = arena.gather_flat(cids, workspace=ws)
    residues = int(arena.lengths[cids].sum())

    q_mzs = spectrum.mzs
    q_int = spectrum.intensities
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    m = theo_all.size
    intensity_sums = np.zeros(n, dtype=np.float64)
    matched = np.zeros(n, dtype=np.int32)
    if q_mzs.size and m:
        survivors = _coarse_survivors(theo_all, q_mzs, fragment_tolerance, ws)
        theo = theo_all if survivors is None else theo_all[survivors]
        # The exact test: nearest query peak on either side, ties to
        # the left.  These expressions define a match bit-for-bit.
        pos = np.searchsorted(q_mzs, theo)
        left = np.maximum(pos - 1, 0)
        right = np.minimum(pos, q_mzs.size - 1)
        d_left = np.abs(theo - q_mzs[left])
        d_right = np.abs(theo - q_mzs[right])
        hit = np.flatnonzero(np.minimum(d_left, d_right) <= fragment_tolerance)
        nearest = np.where(d_left <= d_right, left, right)[hit]
        # Matched positions in the full gather, ascending.
        at = hit if survivors is None else survivors[hit]
        matched = np.diff(np.searchsorted(at, bounds)).astype(np.int32)

        # Intensity credit: for each matched theoretical fragment, the
        # intensity of its nearest query peak.  The credit vector
        # keeps a zero at every unmatched position: the segment fold
        # below uses pairwise summation, so the reduction tree — and
        # with it the last-ulp rounding — depends on element *count*,
        # not just the nonzero values.
        credit = ws.take("score.credit", m, np.float64)
        credit.fill(0.0)
        credit[at] = q_int[nearest]
        _fold_credits(credit, bounds, sizes, out=intensity_sums)

    scores = np.where(
        matched > 0,
        _lgamma_counts(matched) + np.log1p(intensity_sums),
        0.0,
    )
    return ScoringOutcome(
        scores=scores,
        n_matched=matched,
        candidates_scored=n,
        residues_scored=residues,
    )


def score_upper_bounds(matched: np.ndarray, max_intensity: np.ndarray) -> np.ndarray:
    """``lgamma(m + 1) + log1p(m * max_intensity)``: a cap on each score.

    A candidate with at most ``m`` matched fragments against peaks of
    intensity at most ``max_intensity`` (both arrays, aligned) scores
    no higher, up to the rounding of its credit sum: each matched
    fragment credits one peak's intensity, and both terms rise with
    ``m``.  The rank body prunes with it (``search/rank.py``, "Top-k
    pruning").
    """
    return _lgamma_counts(matched) + np.log1p(matched * max_intensity)


def _fold_credits(
    credit: np.ndarray, bounds: np.ndarray, sizes: np.ndarray, *, out: np.ndarray
) -> None:
    """Sum each candidate's own credits into ``out`` (empty ones stay 0).

    ``reduceat`` folds over the starts of the non-empty candidates
    only: a zero-fragment candidate occupies no credits, so each
    non-empty candidate's segment runs exactly to the next non-empty
    start (or the end) and covers its own fragments, zeros included.
    Every segment is folded independently, so a candidate's sum does
    not depend on its neighbours — scores stay bit-identical whichever
    rank scores which subset.
    """
    nonempty = sizes > 0
    out[nonempty] = np.add.reduceat(credit, bounds[:-1][nonempty])


def score_many(
    spectra: Sequence[Spectrum],
    candidate_lists: Sequence[np.ndarray],
    *,
    fragment_tolerance: float,
    arena: FragmentArena,
    # Unused (the arena holds the fragments); kept because the benchmark spine passes it.
    fragmentation: FragmentationSettings | None = None,
    workspace: Workspace | None = None,
) -> List[ScoringOutcome]:
    """Score many spectra's candidate sets in one batched call.

    ``candidate_lists[i]`` holds the candidate ids of ``spectra[i]``;
    outcomes align with the inputs and are byte-identical to
    per-spectrum :func:`score_candidates` calls.

    Consecutive spectra whose gathers are small (fewer than
    ``_COARSE_MIN_FRAGMENTS`` fragments, so :func:`score_candidates`
    would skip the coarse stage) are scored in blocks of up to
    :data:`_BLOCK_FRAGMENTS` fragments — one gather, one exact test,
    one credit vector and one fold per block instead of per spectrum
    (:func:`_score_block`).  Every other spectrum — a large gather, or
    candidates but nothing to match — goes through
    :func:`score_candidates` itself.
    """
    if len(spectra) != len(candidate_lists):
        raise ConfigurationError(
            f"{len(spectra)} spectra for {len(candidate_lists)} candidate lists"
        )

    def one(i: int) -> ScoringOutcome:
        return score_candidates(
            spectra[i],
            arena,
            candidate_lists[i],
            fragment_tolerance=fragment_tolerance,
            workspace=workspace,
        )

    n_spectra = len(spectra)
    if not n_spectra:
        return []
    ws = workspace if workspace is not None else thread_workspace()

    n_cands = np.fromiter((c.size for c in candidate_lists), np.int64, n_spectra)
    cand_bounds = np.zeros(n_spectra + 1, dtype=np.int64)
    np.cumsum(n_cands, out=cand_bounds[1:])
    cids = np.concatenate(candidate_lists).astype(np.int64, copy=False)
    frag_cum = np.zeros(cids.size + 1, dtype=np.int64)
    np.cumsum(arena.counts[cids], out=frag_cum[1:])
    gathered = np.diff(frag_cum[cand_bounds]).tolist()
    scored = (n_cands > 0).tolist()
    cand_bounds_list = cand_bounds.tolist()

    outcomes: List[ScoringOutcome] = [None] * n_spectra  # type: ignore[list-item]

    def flush(block: List[int]) -> None:
        # A block's set-up costs more than it saves for one spectrum.
        if sum(scored[i] for i in block) > 1:
            _score_block(
                block, spectra, cids, cand_bounds_list, frag_cum,
                arena, fragment_tolerance, ws, outcomes,
            )
        else:
            for i in block:
                outcomes[i] = one(i)

    block: List[int] = []
    block_fragments = 0
    for i, m in enumerate(gathered):
        small = not scored[i] or (spectra[i].n_peaks and 0 < m < _COARSE_MIN_FRAGMENTS)
        if block and (not small or block_fragments + m > _BLOCK_FRAGMENTS):
            flush(block)
            block, block_fragments = [], 0
        if small:
            block.append(i)
            block_fragments += m
        else:
            outcomes[i] = one(i)
    flush(block)
    return outcomes


def _score_block(
    block: List[int],
    spectra: Sequence[Spectrum],
    cids: np.ndarray,
    cand_bounds: List[int],
    frag_cum: np.ndarray,
    arena: FragmentArena,
    tolerance: float,
    ws: Workspace,
    outcomes: List[ScoringOutcome],
) -> None:
    """Score consecutive small-gather spectra as one block, in place.

    ``block`` lists consecutive spectrum positions, each with no
    candidates or with peaks and a gather below the coarse cut-off, at
    least two of them with candidates.  The block's candidates are one
    slice of ``cids``, so one gather covers them.  Each spectrum keeps its own ``searchsorted`` against
    its own peaks; the rest of the exact test runs once over the
    block, against every member's peaks laid end to end with its first
    and last peak repeated, so ``pos`` and ``pos + 1`` index exactly
    the ``max(pos - 1, 0)`` / ``min(pos, n - 1)`` neighbours
    :func:`score_candidates` compares.  The credit vector keeps every
    zero and :func:`_fold_credits` sums each candidate's own fragments,
    exactly the segment the per-spectrum fold sums, in the same order:
    the scores are byte-identical (ROADMAP invariant on ``reduceat``).
    """
    c0, c1 = cand_bounds[block[0]], cand_bounds[block[-1] + 1]
    members = [i for i in block if cand_bounds[i + 1] > cand_bounds[i]]
    theo, sizes = arena.gather_flat(cids[c0:c1], workspace=ws)
    first = [cand_bounds[i] for i in members]
    stop = [cand_bounds[i + 1] for i in members]
    frag_lo = (frag_cum[first] - frag_cum[c0]).tolist()
    frag_hi = (frag_cum[stop] - frag_cum[c0]).tolist()
    n_peaks = np.fromiter(
        (spectra[i].n_peaks for i in members), np.int64, len(members)
    )
    # Peaks end to end, each member's first and last repeated.
    peak_end = np.cumsum(n_peaks)
    repeats = np.ones(int(peak_end[-1]), dtype=np.int64)
    repeats[peak_end - n_peaks] += 1
    repeats[peak_end - 1] += 1
    layout = np.repeat(np.arange(repeats.size), repeats)
    q_mzs = np.concatenate([spectra[i].mzs for i in members])[layout]
    q_int = np.concatenate([spectra[i].intensities for i in members])[layout]
    q_start = (peak_end - n_peaks + 2 * np.arange(len(members))).tolist()

    pos = ws.take("score.block.pos", theo.size, np.intp)
    for k, (i, a, b) in enumerate(zip(members, frag_lo, frag_hi)):
        np.add(np.searchsorted(spectra[i].mzs, theo[a:b]), q_start[k], out=pos[a:b])

    d_left = np.abs(theo - q_mzs[pos])
    d_right = np.abs(theo - q_mzs[pos + 1])
    hit = np.flatnonzero(np.minimum(d_left, d_right) <= tolerance)
    left = pos[hit]
    nearest = np.where(d_left[hit] <= d_right[hit], left, left + 1)
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    matched = np.diff(np.searchsorted(hit, bounds)).astype(np.int32)

    credit = ws.take("score.credit", theo.size, np.float64)
    credit.fill(0.0)
    credit[hit] = q_int[nearest]
    intensity_sums = np.zeros(sizes.size, dtype=np.float64)
    _fold_credits(credit, bounds, sizes, out=intensity_sums)
    scores = np.where(
        matched > 0, _lgamma_counts(matched) + np.log1p(intensity_sums), 0.0
    )
    res_cum = np.zeros(c1 - c0 + 1, dtype=np.int64)
    np.cumsum(arena.lengths[cids[c0:c1]], out=res_cum[1:])
    res_cum = res_cum.tolist()
    for i in block:
        a, b = cand_bounds[i] - c0, cand_bounds[i + 1] - c0
        outcomes[i] = ScoringOutcome(
            scores=scores[a:b],
            n_matched=matched[a:b],
            candidates_scored=b - a,
            residues_scored=res_cum[b] - res_cum[a],
        )


#: Vectorized ln(Γ(x)); scipy-free (math.lgamma broadcast by numpy).
_lgamma_vec = np.vectorize(lgamma, otypes=[np.float64])

#: Growable table of ``lgamma(k + 1)`` for k = 0, 1, … — matched
#: counts are small integers, so a lookup replaces the per-element
#: ``np.vectorize`` Python overhead.  Entries are produced by the same
#: ``_lgamma_vec`` the direct evaluation used, so scores stay
#: bit-identical.  Replaced atomically on growth (thread-safe: stale
#: readers just use the old, equally-correct table).
_LGAMMA_TABLE = _lgamma_vec(np.arange(64, dtype=np.float64) + 1.0)


def _lgamma_counts(counts: np.ndarray) -> np.ndarray:
    """``lgamma(counts + 1.0)`` for a non-negative int array, via table."""
    global _LGAMMA_TABLE
    table = _LGAMMA_TABLE
    top = int(counts.max(initial=0))
    if top >= table.size:
        table = _lgamma_vec(
            np.arange(max(top + 1, 2 * table.size), dtype=np.float64) + 1.0
        )
        _LGAMMA_TABLE = table
    return table[counts]
