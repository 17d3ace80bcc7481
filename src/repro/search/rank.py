"""Backend-agnostic rank-side execution of the distributed search.

Every execution backend runs the same per-rank body: carve the rank's
sub-arena from the shared fragment arena, build the partial index,
filter and score every query spectrum through the batched kernels, and
keep each spectrum's top-k tie-broken by *global* entry id so per-rank
lists merge into exactly the serial engine's ordering.  This module is
that body, factored out of :class:`~repro.search.engine.DistributedSearchEngine`
so that

* the **simulated** engine (ranks run in turn in one thread) calls it
  and charges virtual time from the returned work counters,
* the **process** backend (:mod:`repro.parallel`) calls it inside real
  OS workers over a memmap-shared arena and reports real seconds,
* serial baselines can call it inline with a whole-database manifest.

One implementation is what makes the engines bit-identical by
construction rather than by parallel maintenance: the float operand
sequences, the candidate ordering, and the tie-breaking live here and
nowhere else.

Who builds which index
----------------------
:func:`build_rank_index` picks on ``settings.is_open_search`` and on
nothing else:

* **open search** → one flat :class:`~repro.index.slm.SLMIndex` over
  the sub-arena.  Every entry is a potential candidate, so there is
  nothing to prune.
* **windowed search** → a precursor-major
  :class:`~repro.index.chunks.ChunkedIndex` over the same sub-arena
  (the paper's Fig. 1 scheme): entries ranked by mass, cut into chunks,
  and a spectrum filtered only against the chunks its ``±ΔM`` window
  reaches.

Either index is built over the rank's sub-arena, a local of the build;
the rank scores from an :class:`~repro.index.arena.ArenaView` that
reads the arena the sub-arena was carved from in place.
:class:`~repro.search.serial.SerialSearchEngine` builds its own flat
index either way — it is the oracle the rank body is checked against.

Both indexes return candidates as **manifest positions, ascending**
(the chunked one maps its mass ranks back and sorts), which
is the id space everything after filtration lives in: scoring gathers
fragments through the manifest-ordered view, top-k tie-breaks through
``entry_ids[candidates]``, and the master's mapping table translates
manifest positions to global ids.  None of them can tell which index
ran.

The work counters can: ``ions_scanned`` / ``buckets_scanned`` report
what was actually gathered, so a windowed rank reports a few chunks'
worth instead of the whole rank's (and the simulated engine charges
virtual time accordingly).  ``counts``, ``candidates_scored``,
``residues_scored`` and the PSMs are the same to the last digit.

Top-k pruning
-------------
A rank keeps ``top_k`` of each spectrum's candidates — in open search
5 of several hundred — and scoring is the expensive step.  So a
spectrum with more than ``top_k`` candidates and a gather of at least
``_COARSE_MIN_FRAGMENTS`` fragments (the cut above which ``score_many``
takes its large-gather path) scores only the candidates that can still
enter its top-k.  Every other spectrum takes one ``score_many`` pass
over all its candidates, and the serial oracle always does.

* **The bound.**  ``score = lgamma(n + 1) + log1p(credits)``, and each
  of the ``n`` matched fragments credits one peak's intensity.  With
  ``m >= n`` and the spectrum's largest intensity ``I``, ``score <=
  lgamma(m + 1) + log1p(m * I)``
  (:func:`~repro.search.scoring.score_upper_bounds`), where ``m =
  min(match_bound, fragments)``.
* **The rim.**  ``index.match_bounds`` gives ``match_bound``: for the
  flat index, a candidate's shared peaks plus its ions in the one
  bucket on either side of every peak window.  The rim is needed.  Peak
  1486.35 and fragment 1486.35 + 0.05 (= 1486.3999999999999) pass the
  scorer's ``|Δ| <= 0.05``, yet the fragment's bucket 148640 is the
  window's exclusive end, so shared peaks alone can undercount.  The
  chunked index answers with the fragment count, a loose but valid
  bound; a windowed search scores a handful of candidates per
  spectrum, so its gathers rarely reach the pruning cut.
* **The margin.**  The scorer sums credits pairwise, which can round
  above ``m * I`` by a relative ``n * ε``, and the logarithms round
  too.  A bound is therefore widened by the relative
  :data:`_BOUND_MARGIN` before it is compared (1e-9, against ``n * ε``
  ≈ 1.1e-10 for a million fragments).
* **The steps.**  (1) Score exactly the ``top_k`` candidates with the
  highest bounds, ties pooled.  (2) Take ``L``, the ``top_k``-th best
  of those scores.  (3) Drop every other candidate whose widened bound
  is ``< L``.  (4) Score the rest.  :func:`top_k_block` then runs over
  the scored candidates only.
* **Why it is exact.**  A dropped candidate scores strictly below
  ``L``, and the pool already holds ``top_k`` candidates scoring at
  least ``L``, so it would rank behind all of them whatever its global
  id.  The drop is strict because a bound equal to ``L`` may belong to
  a candidate that ties ``L`` and wins on global id.  A score depends
  only on its own candidate (each folds its own credits), so scoring a
  subset gives the same bytes as scoring everything.

The work counters do not see pruning: ``candidates_scored`` and
``residues_scored`` count every filtration survivor, as the paper's
virtual-time cost basis charges them (see :class:`RankQueryOutput`).

Results are columnar end to end.  A rank returns its top-k of every
spectrum as one CSR block, :class:`RankPsms` (bounds, local ids,
scores, shared peaks), filled by one segmented top-k over the batch;
it pickles as four arrays however many spectra the batch holds, which
is what the process backend ships across a pipe.  The master's
:func:`merge_rank_payloads` maps each block to global ids in one call
and merges every rank with one ``lexsort``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import numpy as np

from repro.index.arena import (
    ArenaView,
    FragmentArena,
    Workspace,
    concat_ranges,
    segment_kth,
    thread_workspace,
)
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.psm import PSM, RankStats, SpectrumResult
from repro.search.scoring import _COARSE_MIN_FRAGMENTS, score_many, score_upper_bounds
from repro.spectra.model import Spectrum

if TYPE_CHECKING:
    from repro.core.mapping import MappingTable

__all__ = [
    "RankPayload",
    "RankPsms",
    "RankQueryOutput",
    "build_rank_index",
    "run_rank_queries",
    "top_k_block",
    "merge_rank_payloads",
    "merge_top_k",
    "observed_rank_speeds",
    "summarize_rank_output",
    "rank_stats_from_report",
    "worker_spans_from_report",
]


@dataclass(frozen=True, slots=True)
class RankPsms:
    """One rank's top-k of every spectrum in a batch, as one CSR block.

    Spectrum ``i`` owns ``bounds[i]:bounds[i + 1]`` of ``ids`` (int64
    local ids), ``scores`` (float64) and ``shared`` (int64 shared-peak
    counts), best first.  Indexing or iterating yields each spectrum's
    ``(ids, scores, shared)`` as slice views.
    """

    bounds: np.ndarray
    ids: np.ndarray
    scores: np.ndarray
    shared: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, i: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        i = range(len(self))[i]  # negative indices count from the end
        lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
        return self.ids[lo:hi], self.scores[lo:hi], self.shared[lo:hi]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        bounds = self.bounds.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield self.ids[lo:hi], self.scores[lo:hi], self.shared[lo:hi]


#: Relative widening of a score bound before it is compared with the
#: k-th best exact score (see "Top-k pruning" in the module docstring).
_BOUND_MARGIN = 1e-9


#: Per-rank payload the master merges: (scan-order candidate counts,
#: the rank's top-k block).
RankPayload = Tuple[np.ndarray, RankPsms]


@dataclass(slots=True)
class RankQueryOutput:
    """One rank's query-phase product plus per-spectrum work counters.

    Attributes
    ----------
    counts:
        int64, candidates that passed filtration per query spectrum.
    local_psms:
        The rank's top-k of every spectrum (local candidate ids,
        scores, shared-peak counts), already globally tie-broken.
    buckets_scanned / ions_scanned:
        int64 per-spectrum filtration work counters.
    candidates_scored / residues_scored:
        int64 per-spectrum scoring work counters.  They count every
        filtration survivor and its residues, whether or not top-k
        pruning skipped its exact score: they are the paper's
        virtual-time cost basis, not a trace of the kernel.

    The counters are arrays rather than totals so the simulated engine
    can charge virtual time spectrum-by-spectrum, exactly as it did
    when the loop lived inside its rank program.
    """

    counts: np.ndarray
    local_psms: RankPsms
    buckets_scanned: np.ndarray
    ions_scanned: np.ndarray
    candidates_scored: np.ndarray
    residues_scored: np.ndarray

    @property
    def payload(self) -> RankPayload:
        """The (counts, psms) pair the master-side merge consumes."""
        return self.counts, self.local_psms


def build_rank_index(
    arena: FragmentArena,
    entry_ids: np.ndarray,
    settings: SLMIndexSettings,
) -> Tuple[ArenaView, SLMIndex | ChunkedIndex]:
    """Build ``entry_ids``'s partial index; return its scoring view too.

    The build gathers the rank's sub-arena in C from the (possibly
    memmap-backed) master arena and quantizes and sorts that slice once
    (:meth:`~repro.index.arena.FragmentArena.quantize`), so it scales
    with the rank's share, not the master's.  Local ids are manifest
    positions; the index is flat for open search, precursor-major for a
    windowed one (see the module docstring).  The gathered m/z is a
    local of the build: the rank scores from an
    :class:`~repro.index.arena.ArenaView` that reads ``arena.mzs`` in
    place and shares the sub-arena's per-entry counts and lengths.
    """
    ids = np.asarray(entry_ids, dtype=np.int64)
    starts = arena.offsets[ids]
    sub = arena.take(ids)
    index = (SLMIndex if settings.is_open_search else ChunkedIndex)(sub, settings)
    return ArenaView(arena.mzs, starts, sub.counts, sub.lengths), index


def run_rank_queries(
    index: SLMIndex | ChunkedIndex,
    sub_arena: ArenaView | FragmentArena,
    entry_ids: np.ndarray,
    spectra: Sequence[Spectrum],
    *,
    top_k: int,
    workspace: Workspace | None = None,
) -> RankQueryOutput:
    """Filter + score every (preprocessed) spectrum against ``index``.

    ``entry_ids`` maps the index's local ids back to global entry ids;
    the per-spectrum top-k is tie-broken by (score desc, **global** id
    asc) so the per-rank lists agree with the serial engine's global
    ordering (local-id order is grouped-order, not global order).
    Spectra with more than ``top_k`` candidates and a gather of at
    least ``_COARSE_MIN_FRAGMENTS`` fragments score only the
    candidates that can still reach their top-k ("Top-k pruning" in
    the module docstring); every other spectrum scores all of them.
    """
    entry_ids = np.asarray(entry_ids, dtype=np.int64)
    ws = workspace if workspace is not None else thread_workspace()
    filtered = index.filter_many(spectra, workspace=ws)
    counts = np.array([f.candidates.size for f in filtered], np.int64)
    offsets = np.zeros(counts.size + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = lambda parts, dtype: np.concatenate([*parts, np.empty(0, dtype)])  # noqa: E731
    candidates = flat((f.candidates for f in filtered), np.int64)
    fragments = sub_arena.counts[candidates]
    residues = np.zeros(candidates.size + 1, np.int64)
    np.cumsum(sub_arena.lengths[candidates], out=residues[1:])
    gathered = np.zeros(candidates.size + 1, np.int64)
    np.cumsum(fragments, out=gathered[1:])
    pruned = np.flatnonzero(
        (counts > top_k) & (np.diff(gathered[offsets]) >= _COARSE_MIN_FRAGMENTS)
    )

    scores = np.zeros(candidates.size)

    def score(mask: np.ndarray) -> None:
        """Score the candidates ``mask`` marks: one ``score_many`` call."""
        marked = np.zeros(mask.size + 1, np.int64)
        np.cumsum(mask, out=marked[1:])
        edges = marked[offsets].tolist()
        picked = candidates[mask]
        outcomes = score_many(
            spectra,
            [picked[a:b] for a, b in zip(edges, edges[1:])],
            fragment_tolerance=index.settings.fragment_tolerance,
            arena=sub_arena,
            workspace=ws,
        )
        scores[mask] = flat((o.scores for o in outcomes), np.float64)

    scored = np.ones(candidates.size, bool)
    bound = None
    if pruned.size:
        # Pruned spectra's candidates, spectrum-major, and their rows.
        at = concat_ranges(offsets[pruned], offsets[pruned + 1])
        rows = np.repeat(np.arange(pruned.size), counts[pruned])
        scored[at] = False
        if top_k > 0:
            matched = np.minimum(
                index.match_bounds(
                    [spectra[i] for i in pruned],
                    [filtered[i] for i in pruned],
                    workspace=ws,
                ),
                fragments[at],
            )
            peak_max = np.array([spectra[i].intensities.max() for i in pruned])
            bound = score_upper_bounds(matched, peak_max[rows])
            # 1. The top_k best bounds of each pruned spectrum, ties pooled.
            pruned_offsets = np.zeros(pruned.size + 1, np.int64)
            np.cumsum(counts[pruned], out=pruned_offsets[1:])
            first = -bound <= segment_kth(-bound, pruned_offsets, top_k)[rows]
            scored[at[first]] = True
    score(scored)
    if bound is not None:
        # 2. The k-th best exact score of the pool; 3. drop the bounds
        # below it, widened for summation rounding; 4. score the rest.
        kth = _kth_best(scores[at[first]], rows[first], pruned.size, top_k)
        rest = np.zeros(candidates.size, bool)
        rest[at] = ~first & ~(bound * (1.0 + _BOUND_MARGIN) < kth[rows])
        score(rest)
        scored |= rest

    kept = np.flatnonzero(scored)
    return RankQueryOutput(
        counts=counts,
        local_psms=top_k_block(
            entry_ids,
            np.searchsorted(kept, offsets),
            candidates[kept],
            scores[kept],
            flat((f.shared_peaks for f in filtered), np.int64)[kept],
            top_k,
        ),
        buckets_scanned=np.array([f.buckets_scanned for f in filtered], np.int64),
        ions_scanned=np.array([f.ions_scanned for f in filtered], np.int64),
        candidates_scored=counts.copy(),
        residues_scored=np.diff(residues[offsets]),
    )


def _kth_best(scores: np.ndarray, rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """The ``k``-th highest of each row's ``scores``; every row holds ``k``.

    ``rows`` is ascending and names each of the ``n`` rows.
    """
    order = np.lexsort((-scores, rows))
    return scores[order[np.searchsorted(rows, np.arange(n)) + (k - 1)]]


def _best_first(
    rows: np.ndarray, neg: np.ndarray, gids: np.ndarray, n: int, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of each row's ``k`` best by (−score asc, global id asc).

    Returns the positions row by row, best first, and their CSR bounds
    over the ``n`` rows.  NaN scores sort last, as in ``np.lexsort``.
    """
    order = np.lexsort((gids, neg, rows))
    ranked = rows[order]
    keep = np.arange(ranked.size) - np.searchsorted(ranked, ranked) < k
    bounds = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(ranked[keep], minlength=n), out=bounds[1:])
    return order[keep], bounds


def top_k_block(
    entry_ids: np.ndarray,
    offsets: np.ndarray,
    candidates: np.ndarray,
    scores: np.ndarray,
    shared: np.ndarray,
    top_k: int,
) -> RankPsms:
    """Every spectrum's ``top_k`` candidates as one :class:`RankPsms`.

    Spectrum ``i`` owns ``offsets[i]:offsets[i + 1]`` of the flat
    candidate columns.  Spectrum by spectrum this equals
    ``np.lexsort((entry_ids[candidates], -scores))[:top_k]``.  A
    :func:`~repro.index.arena.segment_kth` threshold pools each
    spectrum's ``top_k`` best scores with every tie at the cut (or the
    whole spectrum, when it holds at most ``top_k`` candidates or a NaN
    sits at the cut), and one ``lexsort`` orders only that pool.
    """
    n = offsets.size - 1
    neg = -scores
    rows = np.repeat(np.arange(n), np.diff(offsets))
    if top_k > 0:
        cut = segment_kth(neg, offsets, top_k)[rows]
        pool = np.flatnonzero(np.isnan(cut) | (neg <= cut))
    else:
        pool = np.empty(0, np.int64)
    best, bounds = _best_first(
        rows[pool], neg[pool], entry_ids[candidates[pool]], n, top_k
    )
    keep = pool[best]
    return RankPsms(
        bounds=bounds,
        ids=candidates[keep].astype(np.int64),
        scores=scores[keep],
        shared=shared[keep].astype(np.int64),
    )


def merge_rank_payloads(
    gathered: Sequence[RankPayload | None],
    spectra: Sequence[Spectrum],
    mapping: MappingTable,
    top_k: int,
) -> Tuple[List[SpectrumResult], int]:
    """Combine per-rank payloads into global results (master side).

    Each rank's block is translated to global ids in one mapping-table
    access (the paper's Fig. 4); candidate counts add up; every rank's
    lists merge through :func:`merge_top_k`.  Returns the per-spectrum
    results and the total PSM count (the merge-cost basis).

    A ``None`` entry in ``gathered`` is a **degraded rank** (the
    service's ``degraded_ok`` mode after retries exhausted): it
    contributes no candidates and no PSMs — the caller carries the
    coverage mask (:attr:`~repro.search.psm.SearchResults.degraded_ranks`)
    so partial results are always explicit, never silent.
    """
    n = len(spectra)
    n_candidates = np.zeros(n, np.int64)
    parts = []
    for rank, payload in enumerate(gathered):
        if payload is None:
            continue
        counts, block = payload
        n_candidates += counts
        gids = mapping.to_global_batch(rank, block.ids)
        rows = np.repeat(np.arange(n), np.diff(block.bounds))
        parts.append((gids, block.scores, block.shared, rows))
    return merge_top_k(parts, n_candidates, [s.scan_id for s in spectra], top_k)


#: The zero-PSM block every merge starts from, so an all-empty merge
#: still concatenates to typed columns.
_NO_PSMS = (
    np.empty(0, np.int64),
    np.empty(0, np.float64),
    np.empty(0, np.int64),
    np.empty(0, np.int64),
)


def merge_top_k(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    n_candidates: np.ndarray,
    scan_ids: Sequence[int],
    top_k: int,
) -> Tuple[List[SpectrumResult], int]:
    """Merge columnar PSM blocks into each spectrum's ``top_k`` results.

    Each part is ``(global ids, scores, shared peaks, batch rows)``:
    one block of PSMs, each tagged with the batch position of its
    spectrum.  All parts merge in one ``lexsort`` by (row, score desc,
    global id asc), cut at ``top_k`` per row — per spectrum, exactly
    :func:`~repro.search.serial.top_k_psms` over the union.  This is
    the one product top-k merge: the session merges its ranks' blocks
    through it and the sharded fleet its shards'.  Returns the
    per-spectrum results (``n_candidates[i]`` candidates for
    ``scan_ids[i]``) and the total PSM count.
    """
    gids, scores, shared, rows = map(np.concatenate, zip(_NO_PSMS, *parts))
    best, bounds = _best_first(rows, -scores, gids, len(scan_ids), top_k)
    psms = list(
        map(
            PSM,
            [scan_ids[r] for r in rows[best].tolist()],
            gids[best].tolist(),
            scores[best].tolist(),
            shared[best].tolist(),
        )
    )
    edges = bounds.tolist()
    results = [
        SpectrumResult(scan_id=scan_id, n_candidates=count, psms=psms[lo:hi])
        for scan_id, count, lo, hi in zip(
            scan_ids, n_candidates.tolist(), edges, edges[1:]
        )
    ]
    return results, len(psms)


def observed_rank_speeds(
    work_shares: Sequence[float],
    wall_s: Sequence[float],
    *,
    floor: float = 0.05,
) -> np.ndarray:
    """Infer relative rank speeds from observed per-rank wall times.

    ``work_shares`` is each rank's predicted work under the plan that
    produced the observation (see :meth:`~repro.core.planner.LBEPlan.rank_loads`);
    ``wall_s`` the per-rank query wall times (typically window means).
    A rank's speed is work-per-wall-second — dividing out the shares is
    what separates "slow because overloaded" (which re-planning at
    equal speeds already fixes) from "slow because the *host* is slow"
    (which needs a smaller share).  Speeds are normalized to unit mean
    (only ratios matter to weighted LPT) and clamped to ``floor`` so a
    stalled rank keeps a nonzero share — it must keep receiving work,
    or its recovery could never be observed.  Ranks with no signal
    (zero wall or zero share, e.g. freshly grown or degraded) report
    the mean speed 1.0.
    """
    shares = np.asarray(work_shares, dtype=np.float64)
    walls = np.asarray(wall_s, dtype=np.float64)
    if shares.shape != walls.shape or shares.ndim != 1 or not shares.size:
        raise ValueError(
            f"work_shares {shares.shape} and wall_s {walls.shape} must be "
            f"equal-length non-empty vectors"
        )
    if not 0.0 < floor <= 1.0:
        raise ValueError(f"floor must be in (0, 1], got {floor}")
    valid = (walls > 0.0) & (shares > 0.0)
    speeds = np.ones(shares.size, dtype=np.float64)
    if valid.any():
        speeds[valid] = shares[valid] / walls[valid]
        speeds[~valid] = speeds[valid].mean()
    mean = speeds.mean()
    if mean > 0:
        speeds = speeds / mean
    return np.maximum(speeds, floor)


def summarize_rank_output(out: RankQueryOutput) -> dict:
    """Flatten a :class:`RankQueryOutput` into a picklable report dict.

    This is the merge payload plus summed work counters — the common
    core of every worker-side report (the process workers add their
    own timing keys on top).  Keeping the dict shape in one place is
    what keeps the master-side merge and :func:`rank_stats_from_report`
    in lockstep across backends.
    """
    return {
        "counts": out.counts,
        "local_psms": out.local_psms,
        "buckets_scanned": int(out.buckets_scanned.sum()),
        "ions_scanned": int(out.ions_scanned.sum()),
        "candidates_scored": int(out.candidates_scored.sum()),
        "residues_scored": int(out.residues_scored.sum()),
    }


def rank_stats_from_report(rank: int, report: dict) -> RankStats:
    """Build one rank's :class:`RankStats` from a worker report dict.

    A resident worker's query report carries everything, its index
    size and resident build seconds included, with every batch.
    Absent keys default to 0, so a degraded rank's missing reply
    (``{}``) yields ``RankStats(rank=rank)``.
    """
    return RankStats(
        rank=rank,
        n_entries=int(report.get("n_entries", 0)),
        n_ions=int(report.get("n_ions", 0)),
        buckets_scanned=int(report.get("buckets_scanned", 0)),
        ions_scanned=int(report.get("ions_scanned", 0)),
        candidates_scored=int(report.get("candidates_scored", 0)),
        residues_scored=int(report.get("residues_scored", 0)),
        build_time=float(report.get("build_s", 0.0)),
        query_time=float(report.get("query_s", 0.0)),
        comm_time=float(report.get("open_s", 0.0)),
        query_cpu_time=float(report.get("query_cpu_s", 0.0)),
    )


def worker_spans_from_report(
    report: dict, anchor: float
) -> List[Tuple[str, float, float]]:
    """Re-anchor a worker report's relative spans on the master clock.

    Workers ship spans as ``(name, start, dur)`` with ``start``
    relative to their own command start — ``perf_counter`` readings
    are not comparable across processes.  ``anchor`` is the
    master-clock instant that command went out (the round's dispatch
    plus the pool's ``sent_s`` for the rank), so the returned absolute
    spans nest (modulo pipe latency) under the master's ``collect``
    span.
    Reports without a ``spans`` key (attach reports, older workers)
    yield an empty list.
    """
    out: List[Tuple[str, float, float]] = []
    for entry in report.get("spans", ()):
        name, rel_start, dur = entry
        out.append((str(name), anchor + float(rel_start), float(dur)))
    return out
