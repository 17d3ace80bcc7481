"""Distributed-memory substrate: a simulated MPI runtime.

The paper runs on MPICH/OpenMPI over 4 machines.  Offline we provide a
message-passing runtime with an mpi4py-like API whose *timing* is
virtual: every rank owns a :class:`~repro.mpi.simtime.VirtualClock`
advanced by explicit compute charges and by a latency/bandwidth
communication cost model.  Rank code executes for real (in threads);
only the clock is simulated, which makes load-imbalance and speedup
experiments deterministic.

Public API:

* :class:`~repro.mpi.simtime.VirtualClock`,
  :class:`~repro.mpi.simtime.CommCostModel`,
  :func:`~repro.mpi.simtime.payload_nbytes`
* :class:`~repro.mpi.comm.Communicator` — p2p and collectives
* :func:`~repro.mpi.launcher.run_spmd` — SPMD program launcher
"""

from repro.mpi.simtime import CommCostModel, VirtualClock, payload_nbytes
from repro.mpi.comm import Communicator
from repro.mpi.launcher import SpmdResult, run_spmd

__all__ = [
    "CommCostModel",
    "VirtualClock",
    "payload_nbytes",
    "Communicator",
    "SpmdResult",
    "run_spmd",
]
