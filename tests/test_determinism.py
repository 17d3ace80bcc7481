"""Cross-component determinism: same seeds — same artifacts, bit for bit.

The reproduction's claims rest on determinism; these tests pin it
end-to-end, including through file serialization, so a regression
anywhere in the seed plumbing fails loudly.
"""

import io

import numpy as np

from repro.bench.workloads import WorkloadConfig, make_workload
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.report import write_psm_report


def _report_text(workload, config):
    engine = DistributedSearchEngine(workload.database, config)
    results = engine.run(workload.spectra)
    buf = io.StringIO()
    write_psm_report(buf, results, workload.database.entries)
    return buf.getvalue(), results


def test_full_pipeline_bitwise_deterministic():
    cfg = EngineConfig(n_ranks=4, policy="random", policy_seed=5)
    wl_a = make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=3))
    wl_b = make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=3))
    text_a, res_a = _report_text(wl_a, cfg)
    text_b, res_b = _report_text(wl_b, cfg)
    assert text_a == text_b
    assert res_a.query_times == res_b.query_times
    assert res_a.phase_times == res_b.phase_times


def test_seed_isolation_between_components():
    """Changing only the spectra seed must not change the database."""
    wl_a = make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=3))
    wl_b = make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=4))
    # different master seed -> different db (sanity that seed matters)
    assert wl_a.n_entries != wl_b.n_entries or [
        p.sequence for p in wl_a.database.base_peptides
    ] != [p.sequence for p in wl_b.database.base_peptides]


def test_policy_seed_isolated_from_results():
    """The Random policy's seed changes placement and timing, never
    the merged PSMs."""
    wl = make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=3))
    runs = [
        DistributedSearchEngine(
            wl.database,
            EngineConfig(n_ranks=4, policy="random", policy_seed=s),
        ).run(wl.spectra)
        for s in (1, 2)
    ]
    placements = [
        tuple(rs.n_entries for rs in run.rank_stats) for run in runs
    ]
    assert placements[0] != placements[1]
    for a, b in zip(runs[0].spectra, runs[1].spectra):
        assert a.n_candidates == b.n_candidates
        assert [(p.entry_id, p.score) for p in a.psms] == [
            (p.entry_id, p.score) for p in b.psms
        ]


def test_repeated_runs_have_identical_virtual_time():
    """Virtual clocks are bit-identical across repeated runs (5
    repetitions)."""
    wl = make_workload(WorkloadConfig(size_m=0.8, n_spectra=8, seed=6))
    cfg = EngineConfig(n_ranks=6, policy="cyclic")
    baseline = None
    for _ in range(5):
        res = DistributedSearchEngine(wl.database, cfg).run(wl.spectra)
        times = tuple(res.query_times) + (res.execution_time,)
        if baseline is None:
            baseline = times
        else:
            assert times == baseline


def test_mapping_tables_identical_across_runs():
    wl = make_workload(WorkloadConfig(size_m=0.8, n_spectra=8, seed=6))
    a = DistributedSearchEngine(
        wl.database, EngineConfig(n_ranks=5, policy="random", policy_seed=9)
    ).plan.mapping
    b = DistributedSearchEngine(
        wl.database, EngineConfig(n_ranks=5, policy="random", policy_seed=9)
    ).plan.mapping
    assert np.array_equal(a.table, b.table)
    assert np.array_equal(a.offsets, b.offsets)
