"""Wall-clock hot-path benchmark: pre-arena vs flat-CSR-arena kernels.

Times the three operations that dominate real search wall-clock —
index build, shared-peak filtration, candidate scoring — on one
synthetic workload, comparing

* **legacy**: faithful copies of the pre-arena implementations
  (per-peptide quantization loop in the index build, per-candidate
  Python assembly in scoring, per-call allocations in filtration),
  fed precomputed per-peptide fragment arrays (copies of the arena's
  per-entry slices, the list-of-arrays shape the pre-arena cache
  held), and
* **arena**: the current kernels through the public API
  (:class:`~repro.index.slm.SLMIndex` over a
  :class:`~repro.index.arena.FragmentArena`, ``filter_many`` /
  ``score_many``).

The filtration stage is additionally timed against a faithful
**per-spectrum** baseline (the PR-1 ``filter`` loop) so the
cross-spectrum batched kernel's speedup is recorded separately
(``speedup.filter_batch_vs_per_spectrum``).

Both paths must produce identical candidates and scores (checked every
run); the point of the arena is speed, not different answers.  Results
land in ``BENCH_hotpath.json`` at the repo root so future perf PRs
have a trajectory to beat.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.db.proteome import ProteomeConfig
from repro.index.arena import FragmentArena
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.scoring import ScoringOutcome, _lgamma_vec, score_many
from repro.spectra.model import Spectrum
from repro.spectra.preprocess import PreprocessConfig, preprocess_spectrum
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_hotpath.json"


# -- legacy (pre-arena) implementations --------------------------------
# Faithful copies of the seed hot path, kept here as the benchmark
# baseline so the speedup claim stays reproducible.


def legacy_build(peptides, settings: SLMIndexSettings, fragments) -> tuple:
    """Pre-arena SLMIndex construction: per-peptide quantization loop."""
    ion_buckets: List[np.ndarray] = []
    ion_parents: List[np.ndarray] = []
    inv_r = 1.0 / settings.resolution
    for local_id, _pep in enumerate(peptides):
        mzs = fragments[local_id]
        if mzs.size == 0:
            continue
        buckets = np.floor(mzs * inv_r).astype(np.int64)
        ion_buckets.append(buckets)
        ion_parents.append(np.full(buckets.size, local_id, dtype=np.int32))
    if ion_buckets:
        all_buckets = np.concatenate(ion_buckets)
        all_parents = np.concatenate(ion_parents)
    else:
        all_buckets = np.empty(0, dtype=np.int64)
        all_parents = np.empty(0, dtype=np.int32)
    order = np.argsort(all_buckets, kind="stable")
    all_buckets = all_buckets[order]
    parents = all_parents[order]
    n_buckets = int(all_buckets[-1]) + 1 if all_buckets.size else 0
    counts = (
        np.bincount(all_buckets, minlength=n_buckets)
        if all_buckets.size
        else np.zeros(0, dtype=np.int64)
    )
    bucket_offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    if n_buckets:
        np.cumsum(counts, out=bucket_offsets[1:])
    return parents, bucket_offsets


def legacy_filter(index: SLMIndex, spectrum: Spectrum):
    """Pre-arena filtration: fresh steps/counts allocations per call."""
    n = index.n_peptides
    settings = index.settings
    if n == 0 or index.n_ions == 0 or spectrum.n_peaks == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    r = settings.resolution
    tol = settings.fragment_tolerance
    lo = np.floor((spectrum.mzs - tol) / r).astype(np.int64)
    hi = np.floor((spectrum.mzs + tol) / r).astype(np.int64) + 1
    np.clip(lo, 0, index.n_buckets, out=lo)
    np.clip(hi, 0, index.n_buckets, out=hi)
    valid = hi > lo
    lo, hi = lo[valid], hi[valid]
    offsets = index.bucket_offsets
    starts = offsets[lo]
    stops = offsets[hi]
    spans = stops - starts
    nonempty = spans > 0
    starts, spans = starts[nonempty], spans[nonempty]
    total = int(spans.sum())
    if total:
        steps = np.ones(total, dtype=np.int64)
        steps[0] = starts[0]
        seg_heads = np.cumsum(spans)[:-1]
        steps[seg_heads] = starts[1:] - (starts[:-1] + spans[:-1] - 1)
        gather = np.cumsum(steps)
        counts = np.bincount(index.ion_parents[gather], minlength=n).astype(np.int32)
    else:
        counts = np.zeros(n, dtype=np.int32)
    cands = np.flatnonzero(counts >= settings.shared_peak_threshold).astype(np.int32)
    return cands, counts[cands]


def _matched_mask(
    theoretical: np.ndarray, query_mzs: np.ndarray, tolerance: float
) -> np.ndarray:
    """Boolean mask over ``theoretical``: within ``tolerance`` of any query peak."""
    if theoretical.size == 0 or query_mzs.size == 0:
        return np.zeros(theoretical.shape, dtype=bool)
    pos = np.searchsorted(query_mzs, theoretical)
    left = np.clip(pos - 1, 0, query_mzs.size - 1)
    right = np.clip(pos, 0, query_mzs.size - 1)
    d_left = np.abs(theoretical - query_mzs[left])
    d_right = np.abs(theoretical - query_mzs[right])
    return np.minimum(d_left, d_right) <= tolerance


def legacy_score(
    spectrum: Spectrum,
    peptides,
    candidate_ids: np.ndarray,
    *,
    fragment_tolerance: float,
    fragments: Sequence[np.ndarray],
) -> ScoringOutcome:
    """Pre-arena scoring: per-candidate Python assembly loop."""
    n = int(candidate_ids.size)
    if n == 0:
        return ScoringOutcome(
            scores=np.zeros(0, dtype=np.float64),
            n_matched=np.zeros(0, dtype=np.int32),
            candidates_scored=0,
            residues_scored=0,
        )
    q_mzs = spectrum.mzs
    q_int = spectrum.intensities
    residues = 0
    theo_parts: List[np.ndarray] = []
    sizes = np.zeros(n, dtype=np.int64)
    for i, cid in enumerate(candidate_ids):
        pep = peptides[int(cid)]
        residues += pep.length
        theo = fragments[int(cid)]
        theo_parts.append(theo)
        sizes[i] = theo.size
    theo_all = (
        np.concatenate(theo_parts) if theo_parts else np.empty(0, dtype=np.float64)
    )
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    mask = _matched_mask(theo_all, q_mzs, fragment_tolerance)
    mask_cum = np.zeros(theo_all.size + 1, dtype=np.int64)
    np.cumsum(mask, out=mask_cum[1:])
    matched = (mask_cum[bounds[1:]] - mask_cum[bounds[:-1]]).astype(np.int32)
    credit = np.zeros(theo_all.size, dtype=np.float64)
    if q_mzs.size and theo_all.size:
        pos = np.searchsorted(q_mzs, theo_all)
        left = np.clip(pos - 1, 0, q_mzs.size - 1)
        right = np.clip(pos, 0, q_mzs.size - 1)
        use_left = np.abs(theo_all - q_mzs[left]) <= np.abs(theo_all - q_mzs[right])
        nearest = np.where(use_left, left, right)
        credit = np.where(mask, q_int[nearest], 0.0)
    intensity_sums = np.zeros(n, dtype=np.float64)
    if theo_all.size:
        starts = np.minimum(bounds[:-1], theo_all.size - 1)
        seg = np.add.reduceat(credit, starts)
        nonempty = sizes > 0
        intensity_sums[nonempty] = seg[nonempty]
    scores = np.where(
        matched > 0,
        _lgamma_vec(matched + 1.0) + np.log1p(intensity_sums),
        0.0,
    )
    return ScoringOutcome(
        scores=scores,
        n_matched=matched,
        candidates_scored=n,
        residues_scored=residues,
    )


# -- benchmark ---------------------------------------------------------


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(quick: bool = False, threshold: int = 4) -> dict:
    n_families = 6 if quick else 22
    n_spectra = 12 if quick else 48
    repeats = 2 if quick else 3
    settings = SLMIndexSettings(shared_peak_threshold=threshold)

    db = IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=n_families, seed=4242),
            max_variants_per_peptide=8,
        )
    )
    spectra = generate_run(
        db.entries, SyntheticRunConfig(n_spectra=n_spectra, seed=777)
    )
    processed = [preprocess_spectrum(s, PreprocessConfig()) for s in spectra]

    # Both paths start from precomputed fragment storage, as in real
    # runs: the legacy path gets the old list-of-arrays cache shape,
    # the arena path gets the database's flat arena.
    arena = db.arena_for(settings.fragmentation)
    bounds = arena.offsets.tolist()
    fragments = [arena.mzs[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])]

    t_legacy_build, _ = _best_of(
        repeats, lambda: legacy_build(db.entries, settings, fragments)
    )
    # Warm build = rebuild over the shared database arena, which
    # quantizes and sorts every time, as every product build does (the
    # arena holds no quantization state).  Cold build = fresh arena
    # from the same precomputed fragment arrays, paying the flatten
    # too, the apples-to-apples match for legacy_build.
    t_arena_build, index = _best_of(repeats, lambda: SLMIndex(arena, settings))
    t_arena_build_cold, _ = _best_of(
        repeats,
        lambda: SLMIndex(
            FragmentArena(
                np.concatenate(fragments),
                arena.offsets.copy(),
                lengths=arena.lengths,
                masses=arena.masses,
            ),
            settings,
        ),
    )

    t_legacy_filter, legacy_filtered = _best_of(
        repeats, lambda: [legacy_filter(index, s) for s in processed]
    )
    # Faithful per-spectrum baseline: the PR-1 kernel, one spectrum at
    # a time through the same workspace-backed gather (this was what
    # filter_many did before the cross-spectrum batch kernel).
    t_filter_per_spectrum, per_spectrum_filtered = _best_of(
        repeats, lambda: [index.filter(s) for s in processed]
    )
    t_arena_filter, arena_filtered = _best_of(
        repeats, lambda: index.filter_many(processed)
    )

    cand_lists = [f.candidates for f in arena_filtered]
    t_legacy_score, legacy_scored = _best_of(
        repeats,
        lambda: [
            legacy_score(
                s,
                db.entries,
                c,
                fragment_tolerance=settings.fragment_tolerance,
                fragments=fragments,
            )
            for s, c in zip(processed, cand_lists)
        ],
    )
    t_arena_score, arena_scored = _best_of(
        repeats,
        lambda: score_many(
            processed,
            cand_lists,
            fragment_tolerance=settings.fragment_tolerance,
            fragmentation=settings.fragmentation,
            arena=arena,
        ),
    )

    identical = all(
        np.array_equal(lf[0], af.candidates)
        and np.array_equal(lf[1], af.shared_peaks)
        for lf, af in zip(legacy_filtered, arena_filtered)
    ) and all(
        np.array_equal(pf.candidates, af.candidates)
        and np.array_equal(pf.shared_peaks, af.shared_peaks)
        and pf.buckets_scanned == af.buckets_scanned
        and pf.ions_scanned == af.ions_scanned
        for pf, af in zip(per_spectrum_filtered, arena_filtered)
    ) and all(
        np.array_equal(lo.scores, ao.scores)
        and np.array_equal(lo.n_matched, ao.n_matched)
        and lo.residues_scored == ao.residues_scored
        for lo, ao in zip(legacy_scored, arena_scored)
    )

    legacy_total = t_legacy_build + t_legacy_filter + t_legacy_score
    arena_total = t_arena_build + t_arena_filter + t_arena_score
    report = {
        "benchmark": "wallclock_hotpath",
        "quick": quick,
        "repeats": repeats,
        "workload": {
            "n_entries": db.n_entries,
            "n_ions": int(arena.n_ions),
            "n_spectra": len(spectra),
            "n_candidates_total": int(sum(c.size for c in cand_lists)),
            "shared_peak_threshold": settings.shared_peak_threshold,
        },
        "legacy_s": {
            "build": t_legacy_build,
            "filter": t_legacy_filter,
            "score": t_legacy_score,
            "total": legacy_total,
        },
        "arena_s": {
            "build": t_arena_build,
            "build_cold": t_arena_build_cold,
            "filter": t_arena_filter,
            "filter_per_spectrum": t_filter_per_spectrum,
            "score": t_arena_score,
            "total": arena_total,
        },
        "speedup": {
            "build": t_legacy_build / t_arena_build if t_arena_build else float("inf"),
            "build_cold": t_legacy_build / t_arena_build_cold
            if t_arena_build_cold
            else float("inf"),
            "filter": t_legacy_filter / t_arena_filter
            if t_arena_filter
            else float("inf"),
            "filter_batch_vs_per_spectrum": t_filter_per_spectrum / t_arena_filter
            if t_arena_filter
            else float("inf"),
            "score": t_legacy_score / t_arena_score if t_arena_score else float("inf"),
            "combined": legacy_total / arena_total if arena_total else float("inf"),
        },
        "identical_results": bool(identical),
    }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke)"
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=4,
        help="shared-peak threshold (default: the paper's Shpeak = 4; "
        "lower it for a candidate-rich, scoring-dominated workload)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH, help="output JSON path"
    )
    args = parser.parse_args()
    report = run(quick=args.quick, threshold=args.threshold)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    sp = report["speedup"]
    print(
        f"entries={report['workload']['n_entries']} "
        f"spectra={report['workload']['n_spectra']} "
        f"candidates={report['workload']['n_candidates_total']}"
    )
    for phase in ("build", "build_cold", "filter", "score", "combined"):
        legacy = report["legacy_s"].get(
            phase, report["legacy_s"].get(phase.split("_")[0], report["legacy_s"]["total"])
        )
        arena = report["arena_s"].get(phase, report["arena_s"]["total"])
        print(f"{phase:>9}: legacy {legacy * 1e3:8.1f} ms  "
              f"arena {arena * 1e3:8.1f} ms  speedup {sp[phase]:6.2f}x")
    print(
        f"   filter: per-spectrum {report['arena_s']['filter_per_spectrum'] * 1e3:8.1f} ms  "
        f"batch {report['arena_s']['filter'] * 1e3:8.1f} ms  "
        f"speedup {sp['filter_batch_vs_per_spectrum']:6.2f}x"
    )
    print(f"identical_results={report['identical_results']}")
    print(f"wrote {args.out}")
    if not report["identical_results"]:
        raise SystemExit("legacy and arena paths disagree — refusing to report")


if __name__ == "__main__":
    main()
