"""Integration tests: the distributed engine vs the serial reference.

The central correctness claim of the reproduction: for every policy
and rank count, LBE-distributed search returns *exactly* the serial
engine's results (candidate counts, PSM identities, scores), because
partitioning must never change search semantics — only load placement.
"""

import threading
import weakref

import numpy as np
import pytest

from reference import assert_same_results
import repro.search.engine as engine_module
from repro.errors import ConfigurationError
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.metrics import load_imbalance
from repro.search.serial import SerialSearchEngine


@pytest.fixture(scope="module")
def serial_reference(small_db, small_spectra):
    return SerialSearchEngine(small_db).run(small_spectra)


@pytest.mark.parametrize("policy", ["chunk", "cyclic", "random"])
@pytest.mark.parametrize("n_ranks", [1, 2, 5, 8])
def test_distributed_equals_serial(small_db, small_spectra, serial_reference,
                                   policy, n_ranks):
    engine = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=n_ranks, policy=policy)
    )
    res = engine.run(small_spectra)
    assert_same_results(serial_reference, res)


def test_plan_partitions_all_entries(small_db):
    engine = DistributedSearchEngine(small_db, EngineConfig(n_ranks=4))
    plan = engine.plan
    assert int(plan.partition_sizes().sum()) == small_db.n_entries


def test_rank_stats_cover_all_work(small_db, small_spectra, serial_reference):
    res = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=4, policy="cyclic")
    ).run(small_spectra)
    assert sum(s.n_entries for s in res.rank_stats) == small_db.n_entries
    assert (
        sum(s.candidates_scored for s in res.rank_stats)
        == serial_reference.total_cpsms
    )


def test_chunk_more_imbalanced_than_cyclic(small_db, small_spectra):
    li = {}
    for policy in ("chunk", "cyclic"):
        res = DistributedSearchEngine(
            small_db, EngineConfig(n_ranks=8, policy=policy)
        ).run(small_spectra)
        li[policy] = load_imbalance(res.query_times)
    assert li["chunk"] > 2 * li["cyclic"]


def test_more_ranks_reduce_query_time(small_db, small_spectra):
    times = {}
    for p in (2, 8):
        res = DistributedSearchEngine(
            small_db, EngineConfig(n_ranks=p, policy="cyclic")
        ).run(small_spectra)
        times[p] = res.query_time
    assert times[8] < times[2]


def test_execution_time_exceeds_query_time(small_db, small_spectra):
    res = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=4, policy="cyclic")
    ).run(small_spectra)
    assert res.execution_time > res.phase_times["query"]
    assert res.phase_times["serial_prep"] > 0


def test_deterministic_timing(small_db, small_spectra):
    """Virtual times are bit-identical across repeated runs."""
    cfg = EngineConfig(n_ranks=4, policy="random", policy_seed=3)
    a = DistributedSearchEngine(small_db, cfg).run(small_spectra)
    b = DistributedSearchEngine(small_db, cfg).run(small_spectra)
    assert a.query_times == b.query_times
    assert a.execution_time == b.execution_time


def test_machine_jitter_zero_balances_cyclic(small_db, small_spectra):
    """Without machine jitter, cyclic imbalance comes only from
    residual per-base candidate-load variance — small in absolute
    terms and far below chunk's on the same workload."""
    cyclic = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=4, policy="cyclic", machine_jitter=0.0)
    ).run(small_spectra)
    chunk = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=4, policy="chunk", machine_jitter=0.0)
    ).run(small_spectra)
    li_cyclic = load_imbalance(cyclic.query_times)
    li_chunk = load_imbalance(chunk.query_times)
    assert li_cyclic < 0.3
    assert li_chunk > 3 * li_cyclic


def test_machine_speed_deterministic():
    cfg = EngineConfig(n_ranks=4, machine_jitter=0.1, machine_seed=5)
    speeds = [cfg.machine_speed(r) for r in range(4)]
    assert speeds == [cfg.machine_speed(r) for r in range(4)]
    assert all(s >= 0.5 for s in speeds)
    assert len(set(speeds)) > 1


def test_machine_jitter_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(machine_jitter=-0.1)


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        EngineConfig(n_ranks=0)
    with pytest.raises(ConfigurationError):
        EngineConfig(top_k=0)
    with pytest.raises(ConfigurationError, match="unknown policy"):
        EngineConfig(policy="bogus")


def test_policy_affects_placement_not_results(small_db, small_spectra):
    runs = {
        policy: DistributedSearchEngine(
            small_db, EngineConfig(n_ranks=4, policy=policy)
        ).run(small_spectra)
        for policy in ("chunk", "cyclic")
    }
    assert_same_results(runs["chunk"], runs["cyclic"])
    # but the per-rank entry counts differ in distribution of work
    chunk_ions = [s.ions_scanned for s in runs["chunk"].rank_stats]
    cyclic_ions = [s.ions_scanned for s in runs["cyclic"].rank_stats]
    assert np.std(chunk_ions) > np.std(cyclic_ions)


def test_rank_body_exception_propagates(small_db, small_spectra, monkeypatch):
    """A rank body that raises surfaces its own exception, unwrapped."""
    engine = DistributedSearchEngine(small_db, EngineConfig(n_ranks=4))
    rank2_ids = engine.plan.rank_global_ids(2)
    real = engine_module.run_rank_queries

    def failing_on_rank2(index, sub_arena, entry_ids, *args, **kwargs):
        if np.array_equal(entry_ids, rank2_ids):
            raise ValueError("boom on rank 2")
        return real(index, sub_arena, entry_ids, *args, **kwargs)

    monkeypatch.setattr(engine_module, "run_rank_queries", failing_on_rank2)
    with pytest.raises(ValueError, match="boom on rank 2"):
        engine.run(small_spectra)


def test_virtual_run_starts_no_thread(small_db, small_spectra, monkeypatch):
    def no_threads(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    res = DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=16, policy="cyclic")
    ).run(small_spectra)
    assert len(res.rank_stats) == 16


def test_virtual_run_holds_one_rank_index_at_a_time(
    small_db, small_spectra, monkeypatch
):
    """Each rank's index is freed before the next rank builds its own."""
    real = engine_module.build_rank_index
    live = set()
    peak = 0

    def tracked(*args, **kwargs):
        nonlocal peak
        sub_arena, index = real(*args, **kwargs)
        token = object()
        live.add(token)
        weakref.finalize(index, live.discard, token)
        peak = max(peak, len(live))
        return sub_arena, index

    monkeypatch.setattr(engine_module, "build_rank_index", tracked)
    DistributedSearchEngine(
        small_db, EngineConfig(n_ranks=16, policy="cyclic")
    ).run(small_spectra)
    assert peak == 1
    assert not live
