"""Real multi-process execution backend with a memmap-shared arena.

The simulated cluster (:mod:`repro.mpi`) runs ranks one after another
and charges a ledger of virtual clocks — ideal for deterministic
load-imbalance experiments, useless for measuring the paper's actual
claim: wall-clock speedup from load-balanced parallel peptide search.  This package executes the
same rank program (:mod:`repro.search.rank`) on real OS processes, for
:mod:`repro.service` (the resident session and the sharded fleet built
from it) to drive:

* :mod:`repro.parallel.shared_arena` — spill a
  :class:`~repro.index.arena.FragmentArena` to a directory of raw
  ``.npy`` files and reopen it read-only with ``np.memmap`` in any
  process: N workers share **one** physical copy of the fragment data
  through the OS page cache instead of N pickled clones,
* :mod:`repro.parallel.persistent` — the one pool: a
  :class:`~repro.parallel.persistent.PersistentPool` of *resident*
  spawn workers looping on a command pipe (ATTACH once, QUERY per
  batch, SHUTDOWN), with automatic respawn + re-attach on worker
  death.  Its blocking ``run_batch`` splits into non-blocking
  :meth:`~repro.parallel.persistent.PersistentPool.dispatch` →
  :class:`~repro.parallel.persistent.RoundHandle` ``.collect()``
  halves, the primitive the service's pipelined session overlaps
  master-side work with,
* :mod:`repro.parallel.worker` — the rank programs the pool runs
  (:func:`~repro.parallel.worker.service_attach_worker` /
  :func:`~repro.parallel.worker.service_query_worker`) plus tiny
  diagnostic programs for its tests,
* :mod:`repro.parallel.faults` — deterministic fault injection
  (crash / raise / hang / slow at any worker stage, once-only across
  respawns via an on-disk ledger), the substrate of the chaos suite
  that proves the supervision layer heals every fault class
  bit-identically,
* :mod:`repro.parallel.shared_spectra` — the
  :class:`~repro.parallel.shared_spectra.SharedSpectraStore`, a file
  carrier for a :class:`~repro.spectra.packed.PackedSpectra` batch
  (library use; the service ships the same columns in-band),
* :mod:`repro.parallel.transport` — how the pool starts and reaches a
  worker: :func:`~repro.parallel.transport.spawn_worker` (a spawn
  process on an OS pipe) and the
  :class:`~repro.parallel.transport.WorkerChannel` API the pool speaks
  to it through, the seam a second transport would implement.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.parallel.faults": ("FaultInjected", "FaultPlan", "FaultSpec", "maybe_inject"),
    "repro.parallel.persistent": ("PersistentPool", "PoolBatchResult", "RoundHandle"),
    "repro.parallel.transport": ("WorkerChannel", "spawn_worker"),
    "repro.parallel.shared_arena": (
        "SharedArenaStore",
        "SharedSpill",
        "shared_spill_for",
        "sweep_stale_stores",
        "write_owner_marker",
    ),
    "repro.parallel.shared_spectra": ("SharedSpectraStore",),
})
