"""Distributed-memory substrate: virtual time for the simulated cluster.

The paper runs on MPICH/OpenMPI over 4 machines.  Offline, the
simulated engine (:class:`~repro.search.engine.DistributedSearchEngine`)
runs its ranks one after another in one thread and keeps their time in
a ledger: every rank owns a :class:`~repro.mpi.simtime.VirtualClock`
advanced by explicit compute charges, and the three collectives it
uses (scatter, barrier, gather) are closed-form updates of the clock
list under a latency/bandwidth communication cost model.  Rank code
executes for real; only the clock is simulated, which makes
load-imbalance and speedup experiments deterministic.

Public API:

* :class:`~repro.mpi.simtime.VirtualClock`,
  :class:`~repro.mpi.simtime.CommCostModel`,
  :func:`~repro.mpi.simtime.payload_nbytes`
* :func:`~repro.mpi.simtime.scatter`, :func:`~repro.mpi.simtime.barrier`,
  :func:`~repro.mpi.simtime.gather` — the ledger collectives
"""

from repro.mpi.simtime import (
    CommCostModel,
    VirtualClock,
    barrier,
    gather,
    payload_nbytes,
    scatter,
)

__all__ = [
    "CommCostModel",
    "VirtualClock",
    "payload_nbytes",
    "scatter",
    "barrier",
    "gather",
]
