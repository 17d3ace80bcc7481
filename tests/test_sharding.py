"""Sharded serving tier: plan cuts, routing safety, fleet bit-identity.

Acceptance bar from the issue: the sharded session's merged results
are bit-identical to the serial engine and to the unsharded
:class:`~repro.service.service.SearchService` for every policy × shard
count × worker count tested — including batches whose precursor
windows straddle shard boundaries — routing provably skips shards no
window can reach (dispatch-count assertions), and a dead shard
degrades coverage (``degraded_shards``) instead of killing the
session.
"""

import dataclasses
from concurrent.futures import Future

import numpy as np
import pytest

from reference import assert_same_results
from repro.errors import ConfigurationError, ServiceError, ShardError
from repro.index.slm import SLMIndexSettings
from repro.parallel import FaultPlan, FaultSpec
from repro.search.report import read_psm_report, write_psm_report
from repro.search.serial import SerialSearchEngine
from repro.service import (
    BatchStats,
    SearchService,
    ServiceConfig,
    ShardPlan,
    ShardedBatchStats,
    ShardedSearchService,
    aggregate_batch_stats,
)


@pytest.fixture(scope="module")
def batches(tiny_spectra):
    return [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]


@pytest.fixture(scope="module")
def serial_refs(tiny_db, batches):
    engine = SerialSearchEngine(tiny_db)
    return [engine.run(batch) for batch in batches]


# -- the plan ----------------------------------------------------------


def test_plan_is_disjoint_cover_with_monotone_id_maps(tiny_db):
    for n_shards in (1, 2, 3, 5):
        plan = ShardPlan.from_database(tiny_db, n_shards)
        assert plan.n_shards == n_shards
        covered = np.sort(np.concatenate([s.entry_ids for s in plan.shards]))
        assert np.array_equal(
            covered, np.arange(tiny_db.n_entries, dtype=np.int64)
        )
        for shard in plan.shards:
            # Strictly increasing local -> global map: the property
            # the merge's tie-break fidelity rests on.
            assert np.all(np.diff(shard.entry_ids) > 0)
            assert shard.n_bases >= 1 and shard.n_entries >= 1
            assert shard.mass_min <= shard.mass_max
            assert shard.database.n_entries == shard.n_entries
        # Mass ranges ascend with shard id (contiguous runs of the
        # mass-sorted base sequence).
        mins = [s.mass_min for s in plan.shards]
        assert mins == sorted(mins)


def test_plan_balances_entry_counts(tiny_db):
    plan = ShardPlan.from_database(tiny_db, 3)
    counts = [s.n_entries for s in plan.shards]
    # Balanced to within the granularity of one base peptide's variants.
    assert max(counts) - min(counts) < tiny_db.n_entries // 3


def test_plan_explicit_boundaries(tiny_db):
    masses = np.array([p.mass for p in tiny_db.base_peptides])
    lo, hi = float(np.quantile(masses, 0.3)), float(np.quantile(masses, 0.7))
    plan = ShardPlan.from_database(tiny_db, 3, boundaries=[lo, hi])
    for shard in plan.shards:
        base_masses = masses[shard.base_ids]
        if shard.shard_id == 0:
            assert base_masses.max() < lo
        elif shard.shard_id == 1:
            assert base_masses.min() >= lo and base_masses.max() < hi
        else:
            assert base_masses.min() >= hi


def test_plan_validation_errors(tiny_db):
    with pytest.raises(ConfigurationError):
        ShardPlan.from_database(tiny_db, 0)
    with pytest.raises(ConfigurationError):
        ShardPlan.from_database(tiny_db, len(tiny_db.base_peptides) + 1)
    with pytest.raises(ConfigurationError):  # wrong boundary count
        ShardPlan.from_database(tiny_db, 3, boundaries=[1000.0])
    with pytest.raises(ConfigurationError):  # not ascending
        ShardPlan.from_database(tiny_db, 3, boundaries=[2000.0, 1000.0])
    with pytest.raises(ConfigurationError):  # empty shard
        ShardPlan.from_database(tiny_db, 2, boundaries=[1.0])


def test_routing_agrees_with_flat_filtration(tiny_db, tiny_spectra):
    """A shard skipped by routing holds no entry the flat precursor
    filter would keep — checked entry-by-entry at tight tolerances,
    including windows straddling shard boundaries."""
    plan = ShardPlan.from_database(tiny_db, 3)
    entry_masses = np.array(
        [p.mass for p in tiny_db.entries], dtype=np.float32
    ).astype(np.float64)
    # Probe real precursors plus synthetic ones sitting exactly on the
    # shard boundary masses (the adversarial window placement).
    probes = [s.neutral_mass for s in tiny_spectra]
    probes += [s.mass_min for s in plan.shards[1:]]
    probes += [s.mass_max for s in plan.shards[:-1]]
    for tol in (0.01, 0.5, 2.0):
        for nm in probes:
            keep = np.abs(entry_masses - nm) <= tol
            routed = plan.shards_for(nm, tol)
            skipped = set(range(plan.n_shards)) - set(routed)
            for sid in skipped:
                assert not keep[plan.shards[sid].entry_ids].any()


def test_open_search_routes_everywhere(tiny_db, tiny_spectra):
    plan = ShardPlan.from_database(tiny_db, 3)
    assert plan.shards_for(1000.0, None) == [0, 1, 2]
    routed = plan.route(list(tiny_spectra), SLMIndexSettings())
    for positions in routed:
        assert positions == list(range(len(tiny_spectra)))


# -- bit-identity: sharded == unsharded == serial ----------------------


@pytest.mark.parametrize("policy", ["cyclic", "chunk"])
@pytest.mark.parametrize("n_shards", [2, 3])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_sharded_session_bit_identical_to_serial(
    tiny_db, batches, serial_refs, policy, n_shards, n_workers
):
    config = ServiceConfig(n_workers=n_workers, policy=policy)
    with ShardedSearchService(tiny_db, config, n_shards=n_shards) as svc:
        outcomes = [svc.submit(batch) for batch in batches]
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
        assert not results.is_degraded
        assert results.n_ranks == n_shards * n_workers
        assert isinstance(stats, ShardedBatchStats)
        assert stats.shards_dispatched + stats.shards_skipped == n_shards


def test_sharded_matches_unsharded_service_windowed(tiny_db, batches):
    """Windowed search (boundary-straddling precursor windows): the
    sharded fleet and the flat session agree PSM-for-PSM."""
    config = ServiceConfig(
        n_workers=2, index=SLMIndexSettings(precursor_tolerance=3.0)
    )
    with SearchService(tiny_db, config) as flat:
        flat_outcomes = [flat.submit(batch) for batch in batches]
    with ShardedSearchService(tiny_db, config, n_shards=3) as svc:
        sharded_outcomes = [svc.submit(batch) for batch in batches]
    for (ref, _), (results, _) in zip(flat_outcomes, sharded_outcomes):
        assert_same_results(ref, results)


def test_pipelined_stream_matches_serial(tiny_db, batches, serial_refs):
    config = ServiceConfig(n_workers=2, max_pending=3)
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        outcomes = list(svc.stream(iter(batches)))
    assert len(outcomes) == len(batches)
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
    # The stream admitted batches ahead of results: depth beyond 1.
    assert max(s.pipeline_depth for _, s in outcomes) > 1


# -- routing selectivity -----------------------------------------------


def test_mass_sorted_batches_skip_shards(tiny_db, tiny_spectra):
    """Batches clustered in precursor mass must not broadcast: the
    router skips shards whose range no window in the batch reaches."""
    config = ServiceConfig(
        n_workers=2, index=SLMIndexSettings(precursor_tolerance=2.0)
    )
    ordered = sorted(tiny_spectra, key=lambda s: s.neutral_mass)
    third = len(ordered) // 3
    clustered = [ordered[:third], ordered[third:2 * third], ordered[2 * third:]]
    serial = SerialSearchEngine(
        tiny_db, SLMIndexSettings(precursor_tolerance=2.0)
    )
    with ShardedSearchService(tiny_db, config, n_shards=3) as svc:
        outcomes = [svc.submit(batch) for batch in clustered]
        skips = svc.shard_skip_total
        dispatches = svc.shard_dispatch_total
    assert skips > 0, "mass-clustered batches must skip some shards"
    assert dispatches + skips == 3 * len(clustered)
    for (results, stats), batch in zip(outcomes, clustered):
        assert_same_results(serial.run(batch), results)
        assert stats.shards_dispatched < 3 or stats.shards_skipped == 0


def test_spectrum_routed_nowhere_reports_zero_candidates(tiny_db, tiny_spectra):
    """A precursor window beyond every shard's range yields an
    explicit zero-candidate result — the flat filter's verdict."""
    config = ServiceConfig(
        n_workers=2, index=SLMIndexSettings(precursor_tolerance=0.5)
    )
    outlier = dataclasses.replace(
        tiny_spectra[0], scan_id=999_999, precursor_mz=90_000.0, charge=1
    )
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        results, stats = svc.submit([tiny_spectra[0], outlier])
    by_scan = {sr.scan_id: sr for sr in results.spectra}
    assert by_scan[999_999].n_candidates == 0
    assert by_scan[999_999].psms == []


# -- failure isolation -------------------------------------------------


def test_shard_worker_crash_heals_bit_identical(tiny_db, batches, serial_refs):
    """One rank of one shard crashes mid-batch: the shard's pool
    retries only that rank; merged results stay bit-identical."""
    plans = [
        None,
        FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=1, batch=0)
        ),
    ]
    config = ServiceConfig(n_workers=2, max_retries=2, retry_backoff_s=0.01)
    with ShardedSearchService(
        tiny_db, config, n_shards=2, shard_fault_plans=plans
    ) as svc:
        outcomes = [svc.submit(batch) for batch in batches]
    for (results, stats), reference in zip(outcomes, serial_refs):
        assert_same_results(reference, results)
        assert not results.is_degraded
    assert outcomes[0][1].retries >= 1
    assert outcomes[0][1].respawned >= 1


def test_dead_shard_degrades_coverage_not_session(tiny_db, batches):
    """Every rank of shard 1 crashes persistently with retries
    exhausted under ``degraded_ok``: the batch reports the exact
    ``degraded_shards`` mask (and its flattened rank mask), covers the
    surviving shard, and the TSV annotation round-trips."""
    plans = [
        None,
        FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=0, once=False),
            FaultSpec(kind="crash", stage="query", rank=1, once=False),
        ),
    ]
    config = ServiceConfig(
        n_workers=2, max_retries=0, retry_backoff_s=0.01, degraded_ok=True
    )
    with ShardedSearchService(
        tiny_db, config, n_shards=2, shard_fault_plans=plans
    ) as svc:
        results, stats = svc.submit(batches[0])
        surviving = svc.plan.shards[0]
    assert results.is_degraded
    assert results.degraded_shards == (1,)
    assert stats.degraded_shards == (1,)
    assert results.degraded_ranks == (2, 3)  # shard 1's ranks, flattened
    # Coverage of the surviving shard is intact and exact.
    serial = SerialSearchEngine(surviving.database)
    reference = serial.run(batches[0])
    gid = surviving.entry_ids
    for a, b in zip(reference.spectra, results.spectra):
        assert a.n_candidates == b.n_candidates
        assert [(int(gid[p.entry_id]), p.score) for p in a.psms] == [
            (p.entry_id, p.score) for p in b.psms
        ]
    # The report annotates partial coverage and still parses.
    import io

    buffer = io.StringIO()
    write_psm_report(buffer, results, tiny_db.entries)
    text = buffer.getvalue()
    assert "# degraded_shards: 1\n" in text
    assert "# degraded_ranks: 2,3\n" in text
    buffer.seek(0)
    assert read_psm_report(buffer)


def test_shard_failure_fails_loud_without_degraded_ok(tiny_db, batches, serial_refs):
    """Retries exhausted without ``degraded_ok``: the batch's future
    raises :class:`ShardError` naming the shard; the session survives
    and the next batch heals on respawned workers."""
    plans = [
        None,
        FaultPlan.scoped(
            FaultSpec(kind="crash", stage="query", rank=1, batch=0,
                      once=False)
        ),
    ]
    config = ServiceConfig(n_workers=2, max_retries=0, retry_backoff_s=0.01)
    with ShardedSearchService(
        tiny_db, config, n_shards=2, shard_fault_plans=plans
    ) as svc:
        with pytest.raises(ShardError) as excinfo:
            svc.submit(batches[0])
        assert excinfo.value.shard == 1
        assert "shard 1" in excinfo.value.brief
        results, _ = svc.submit(batches[1])
    assert_same_results(serial_refs[1], results)


def test_demux_rejects_results_misaligned_with_routed_scans(
    tiny_db, batches, serial_refs, monkeypatch
):
    """A shard whose results do not line up with the scan ids routed
    to it fails the batch with :class:`ShardError` naming that shard;
    the session survives."""
    config = ServiceConfig(n_workers=1)
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        assert len(svc.plan.route(batches[0], config.index)[1]) >= 2
        inner = svc.services[1]
        real_submit = inner.submit_async

        def reversed_results(spectra):
            relayed = Future()

            def relay(done):
                results, stats = done.result()
                results.spectra.reverse()
                relayed.set_result((results, stats))

            real_submit(spectra).add_done_callback(relay)
            return relayed

        monkeypatch.setattr(inner, "submit_async", reversed_results)
        with pytest.raises(ShardError) as excinfo:
            svc.submit(batches[0])
        assert excinfo.value.shard == 1
        assert "shard 1" in str(excinfo.value)
        monkeypatch.undo()
        results, _ = svc.submit(batches[0])
    assert_same_results(serial_refs[0], results)


# -- live pool sizes ---------------------------------------------------


def test_fleet_rank_space_follows_resized_shard_pools(
    tiny_db, batches, serial_refs
):
    """Shard 0 grows from 1 to 2 workers: the next batch numbers 3
    fleet ranks, covers every entry once, and stays bit-identical."""
    with ShardedSearchService(
        tiny_db, ServiceConfig(n_workers=1), n_shards=2
    ) as svc:
        svc.services[0].rebalance(n_workers=2)
        results, stats = svc.submit(batches[0])
        assert (
            len(results.rank_stats)
            == len(stats.query_wall_s)
            == results.n_ranks
            == svc.n_workers_total
            == 3
        )
    assert [s.rank for s in results.rank_stats] == [0, 1, 2]
    assert sum(s.n_entries for s in results.rank_stats) == tiny_db.n_entries
    assert_same_results(serial_refs[0], results)


# -- session contract --------------------------------------------------


def test_session_lifecycle_errors(tiny_db, tiny_spectra):
    svc = ShardedSearchService(tiny_db, ServiceConfig(n_workers=2), n_shards=2)
    with pytest.raises(ServiceError):  # not open
        svc.submit_async([tiny_spectra[0]])
    with svc:
        with pytest.raises(ConfigurationError):  # empty batch
            svc.submit_async([])
    with pytest.raises(ServiceError):  # closed
        svc.submit_async([tiny_spectra[0]])
    svc.close()  # idempotent
    with pytest.raises(ConfigurationError):  # fault-plan arity
        ShardedSearchService(
            tiny_db, ServiceConfig(), n_shards=3, shard_fault_plans=[None]
        )


def test_admission_bound(tiny_db, tiny_spectra):
    config = ServiceConfig(n_workers=2, max_pending=1)
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        futures = [svc.submit_async(list(tiny_spectra))]
        with pytest.raises(ServiceError, match="admission queue full"):
            while True:  # the first may drain before the second submit
                futures.append(svc.submit_async(list(tiny_spectra[:3])))
        for future in futures:
            future.result()


def test_fleet_introspection(tiny_db, batches):
    config = ServiceConfig(n_workers=2)
    with ShardedSearchService(tiny_db, config, n_shards=2) as svc:
        assert svc.is_open
        assert len(svc.worker_pids()) == 4
        assert all(pid for pid in svc.worker_pids())
        svc.submit(batches[0])
        assert svc.n_batches == 1
        assert len(svc.batch_stats) == 1
        assert svc.open_s > 0 and svc.attach_s > 0
    assert not svc.is_open


# -- stats aggregation (shared with the bench harness) -----------------


def test_aggregate_batch_stats():
    def stats(i, total, **kw):
        base = dict(
            batch_index=i, n_spectra=4, preprocess_s=0.0,
            parallel_s=0.0, merge_s=0.0, total_s=total,
            query_wall_s=(), query_cpu_s=(), scatter_bytes=10 * i,
            peak_bytes=0, respawned=0,
        )
        base.update(kw)
        return BatchStats(**base)

    empty = aggregate_batch_stats([])
    assert empty.n_batches == 0 and empty.steady_batch_s == 0.0
    assert empty.p50_batch_s == 0.0 and empty.p95_batch_s == 0.0
    assert empty.query_li_mean == 0.0 and empty.query_li_max == 0.0

    session = aggregate_batch_stats([
        stats(0, 9.0, retries=1, overlap_s=0.5),
        stats(1, 2.0, pipeline_depth=2),
        stats(2, 3.0, hedged=1, degraded_ranks=(1,),
              query_wall_s=(1.0, 3.0)),
    ])
    assert session.n_batches == 3
    assert session.first_batch_s == 9.0
    assert session.steady_batch_s == 2.0  # min over batches 1..n
    assert session.mean_batch_s == pytest.approx(14.0 / 3)
    # Percentiles over the steady-state population [2.0, 3.0].
    assert session.p50_batch_s == pytest.approx(2.5)
    assert session.p95_batch_s == pytest.approx(2.95)
    # LI (Eq. 1) per batch: 0, 0, then (3 - 2) / 2 = 0.5.
    assert session.query_li_mean == pytest.approx(0.5 / 3)
    assert session.query_li_max == pytest.approx(0.5)
    assert session.retries == 1 and session.hedged == 1
    assert session.pipeline_depth_max == 2
    assert session.scatter_bytes_max == 20
    assert session.overlap_s_total == 0.5
    assert session.degraded_batches == 1

    # Max fields are derived from the per-rank vectors now.
    vec = stats(3, 1.0, query_wall_s=(0.5, 2.0), query_cpu_s=(0.25, 1.0))
    assert vec.query_wall_max_s == 2.0
    assert vec.query_cpu_max_s == 1.0
    assert vec.query_li == pytest.approx((2.0 - 1.25) / 1.25)

    sharded = aggregate_batch_stats([
        ShardedBatchStats(**{
            **dict(batch_index=0, n_spectra=4, preprocess_s=0.0,
                   parallel_s=0.0, merge_s=0.0, total_s=1.0,
                   query_wall_s=(), query_cpu_s=(),
                   scatter_bytes=0, peak_bytes=0, respawned=0),
            "degraded_shards": (0,),
        })
    ])
    assert sharded.degraded_batches == 1
