"""Tests for virtual clocks, the communication cost model and the
ledger collectives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mpi.simtime import (
    CommCostModel,
    VirtualClock,
    barrier,
    gather,
    payload_nbytes,
    scatter,
)


def test_clock_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_clock_advance():
    c = VirtualClock()
    assert c.advance(1.5) == 1.5
    assert c.advance(0.5) == 2.0
    assert c.now == 2.0


def test_clock_negative_advance_rejected():
    with pytest.raises(ConfigurationError):
        VirtualClock().advance(-1.0)


def test_clock_negative_start_rejected():
    with pytest.raises(ConfigurationError):
        VirtualClock(-1.0)


def test_sync_only_moves_forward():
    c = VirtualClock(5.0)
    c.sync_to(3.0)
    assert c.now == 5.0
    c.sync_to(7.0)
    assert c.now == 7.0


def test_payload_numpy_counts_buffer():
    arr = np.zeros(1000, dtype=np.float64)
    assert payload_nbytes(arr) == 8000 + 96


def test_payload_bytes():
    assert payload_nbytes(b"12345") == 5


def test_payload_list_of_arrays():
    arrs = [np.zeros(10, dtype=np.int64), np.zeros(5, dtype=np.int64)]
    assert payload_nbytes(arrs) == (80 + 96) + (40 + 96)


def test_payload_generic_object_uses_pickle():
    n = payload_nbytes({"a": 1, "b": [1, 2, 3]})
    assert n > 10  # pickled size, deterministic
    assert n == payload_nbytes({"a": 1, "b": [1, 2, 3]})


def test_p2p_cost():
    m = CommCostModel(latency=1e-3, seconds_per_byte=1e-6)
    assert m.p2p(1000) == pytest.approx(1e-3 + 1e-3)


def test_collective_cost_log_rounds():
    m = CommCostModel(latency=1.0, seconds_per_byte=0.0)
    assert m.collective(0, 1) == 0.0
    assert m.collective(0, 2) == 1.0
    assert m.collective(0, 4) == 2.0
    assert m.collective(0, 8) == 3.0
    assert m.collective(0, 5) == 3.0  # ceil(log2 5)


def test_negative_costs_rejected():
    with pytest.raises(ConfigurationError):
        CommCostModel(latency=-1.0)


def clocks_at(*times):
    return [VirtualClock(t) for t in times]


def test_barrier_synchronizes_clocks():
    clocks = clocks_at(0.0, 1.0, 2.0, 3.0)  # rank r worked r seconds
    barrier(clocks)
    assert [c.now for c in clocks] == [3.0] * 4


def test_scatter_syncs_receivers_to_root_departure():
    model = CommCostModel(latency=1.0, seconds_per_byte=0.0)
    clocks = clocks_at(10.0, 0.0)  # root computed 10 s first
    scatter(clocks, 64, model)
    assert clocks[0].now == 11.0  # 10 compute + one round
    assert clocks[1].now == 11.0  # synced to the arrival


def test_scatter_costs_log2_tree_rounds_over_total_bytes():
    model = CommCostModel(latency=1.0, seconds_per_byte=0.5)
    single = clocks_at(2.0)
    scatter(single, 100, model)
    assert single[0].now == 2.0  # p = 1: nothing to send
    clocks = clocks_at(0.0, 0.0, 500.0, 0.0, 0.0)
    scatter(clocks, 100, model)
    assert clocks[0].now == 3 * (1.0 + 50.0)  # ceil(log2 5) rounds
    assert [c.now for c in clocks[1:]] == [153.0, 500.0, 153.0, 153.0]


def test_gather_root_waits_for_latest_departure_then_pays_latency():
    model = CommCostModel(latency=1.0, seconds_per_byte=0.01)
    clocks = clocks_at(5.0, 2.0, 30.0, 4.0)
    gather(clocks, [999, 100, 200, 300], model)
    # Non-roots pay one send each; the root's own bytes cost nothing.
    assert [c.now for c in clocks[1:]] == [4.0, 33.0, 8.0]
    assert clocks[0].now == 33.0 + 1.0 * 3  # latest departure + (p-1) latencies


def test_gather_on_one_rank_is_free():
    clocks = clocks_at(7.0)
    gather(clocks, [10**6], CommCostModel(latency=1.0, seconds_per_byte=1.0))
    assert clocks[0].now == 7.0
