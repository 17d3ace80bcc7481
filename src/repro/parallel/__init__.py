"""Real multi-process execution backend with a memmap-shared arena.

The simulated cluster (:mod:`repro.mpi`) runs ranks as threads over
virtual clocks — ideal for deterministic load-imbalance experiments,
useless for measuring the paper's actual claim: wall-clock speedup
from load-balanced parallel peptide search.  This package executes the
same rank program (:mod:`repro.search.rank`) on real OS processes:

* :mod:`repro.parallel.shared_arena` — spill a
  :class:`~repro.index.arena.FragmentArena` to a directory of raw
  ``.npy`` files and reopen it read-only with ``np.memmap`` in any
  process: N workers share **one** physical copy of the fragment data
  through the OS page cache instead of N pickled clones,
* :mod:`repro.parallel.pool` — a :class:`~repro.parallel.pool.ProcessBackend`
  mirroring :func:`~repro.mpi.launcher.run_spmd`'s contract (per-rank
  callable, rank/size, gathered results and real timings) on
  ``multiprocessing`` spawn workers, with crash → clean exception,
* :mod:`repro.parallel.engine` — a
  :class:`~repro.parallel.engine.ParallelSearchEngine` that is
  bit-identical to the serial and simulated-distributed engines for
  every partition policy and worker count, but whose phase times are
  real seconds,
* :mod:`repro.parallel.persistent` — a
  :class:`~repro.parallel.persistent.PersistentPool` of *resident*
  spawn workers looping on a command pipe (ATTACH once, QUERY per
  batch, SHUTDOWN), with automatic respawn + re-attach on worker
  death — the substrate of :mod:`repro.service`.  Its blocking
  ``run_batch`` splits into non-blocking
  :meth:`~repro.parallel.persistent.PersistentPool.dispatch` →
  :class:`~repro.parallel.persistent.RoundHandle` ``.collect()``
  halves, the primitive the service's pipelined session overlaps
  master-side work with,
* :mod:`repro.parallel.faults` — deterministic fault injection
  (crash / raise / hang / slow at any worker stage, once-only across
  respawns via an on-disk ledger), the substrate of the chaos suite
  that proves the supervision layer heals every fault class
  bit-identically,
* :mod:`repro.parallel.shared_spectra` — the
  :class:`~repro.parallel.shared_spectra.SharedSpectraStore`, a file
  carrier for a :class:`~repro.spectra.packed.PackedSpectra` batch
  (library use; the service ships the same columns in-band),
* :mod:`repro.parallel.transport` — the pluggable
  :class:`~repro.parallel.transport.Transport` registry behind both
  pools' worker bootstrap: the pools speak only the
  :class:`~repro.parallel.transport.WorkerChannel` API, so swapping
  local spawn pipes for a socket transport never touches supervision.
"""

from repro.parallel.engine import ParallelEngineConfig, ParallelSearchEngine
from repro.parallel.faults import FaultInjected, FaultPlan, FaultSpec, maybe_inject
from repro.parallel.persistent import PersistentPool, PoolBatchResult, RoundHandle
from repro.parallel.pool import ProcessBackend, ProcessResult
from repro.parallel.transport import (
    TRANSPORTS,
    PipeTransport,
    Transport,
    WorkerChannel,
    make_transport,
    register_transport,
)
from repro.parallel.shared_arena import (
    SharedArenaStore,
    SharedSpill,
    shared_spill_for,
    sweep_stale_stores,
    write_owner_marker,
)
from repro.parallel.shared_spectra import SharedSpectraStore

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "maybe_inject",
    "ParallelEngineConfig",
    "ParallelSearchEngine",
    "PersistentPool",
    "PipeTransport",
    "PoolBatchResult",
    "ProcessBackend",
    "RoundHandle",
    "ProcessResult",
    "Transport",
    "TRANSPORTS",
    "WorkerChannel",
    "make_transport",
    "register_transport",
    "SharedArenaStore",
    "SharedSpectraStore",
    "SharedSpill",
    "shared_spill_for",
    "sweep_stale_stores",
    "write_owner_marker",
]
