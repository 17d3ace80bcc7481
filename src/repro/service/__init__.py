"""Persistent search service: resident workers, streaming query batches.

Worker spawn + interpreter import + arena attach cost the same whether
a session then serves one batch or a million.  This package pays them
once per session:

* :class:`~repro.service.service.SearchService` — the session API:
  ``open()`` spawns a :class:`~repro.parallel.persistent.PersistentPool`,
  spills the arena once (through the process-wide spill cache) and
  attaches every worker; ``submit(spectra)`` preprocesses a batch,
  packs it into flat :class:`~repro.spectra.packed.PackedSpectra`
  columns and sends them inside the round's one command;
  ``close()`` drains the pipeline and shuts the pool down.  The
  session is a **software pipeline** over the batch stream:
  ``submit_async(spectra)`` returns a future, ``stream(batches)``
  drives an iterable with up to ``max_pending`` batches in flight, and
  the master preprocesses/packs batch N+1 and merges batch N while
  the workers query — ``submit()`` is the blocking wrapper.  Results
  are bit-identical to the serial engine for every policy × worker
  count — the workers run the same :mod:`repro.search.rank` body as
  every other backend, and the pipeline reorders when stages run,
  never what they compute.
* :class:`~repro.service.engine.ParallelSearchEngine` — the one-shot
  form: ``run(spectra)`` opens a session, submits the one batch, and
  closes it, reporting the whole open-through-close cost as its
  ``total`` phase time (``repro search --backend process``).
* Per-batch :class:`~repro.service.service.BatchStats` record real
  wall/CPU phase seconds and the actual pickled scatter bytes, so the
  amortization claim is measurable, not aspirational
  (``benchmarks/bench_service_throughput.py`` records it).

* :class:`~repro.service.sharding.ShardedSearchService` — the tier
  above a single session: :class:`~repro.service.sharding.ShardPlan`
  cuts the database into contiguous precursor-mass shards, each shard
  runs its own inner session (own pool + arena spill), and the router
  fans each batch out only to the shards whose mass range intersects
  its spectra's precursor windows, merging per-spectrum top-K across
  shards bit-identical to the unsharded engine.  A dead shard degrades
  coverage (``degraded_shards``) instead of killing the session.

* :class:`~repro.service.rebalance.RebalancePolicy` — elastic
  self-rebalancing: with ``rebalance_li`` set, a session watches its
  live Eq.-1 LI over a sliding window of batches, re-plans with
  per-rank speed weights inferred from observed walls, migrates
  between rounds (re-attaching only the changed ranks) and can grow
  the pool within ``min_workers``/``max_workers`` — results stay
  bit-identical across every migration.
  :meth:`~repro.service.service.SearchService.rebalance` requests the
  same migration explicitly.

``repro serve`` on the CLI drives a session over MS2 batch files or a
stdin manifest of paths (``--shards N`` selects the sharded tier;
``--rebalance-li`` arms elastic rebalancing).
"""

from repro.service.engine import ParallelSearchEngine
from repro.service.rebalance import (
    RebalanceConfig,
    RebalanceDecision,
    RebalancePolicy,
)
from repro.service.service import (
    BatchStats,
    SearchService,
    ServiceConfig,
    SessionStats,
    aggregate_batch_stats,
)
from repro.service.sharding import (
    DatabaseShard,
    ShardedBatchStats,
    ShardedSearchService,
    ShardPlan,
)

__all__ = [
    "BatchStats",
    "DatabaseShard",
    "ParallelSearchEngine",
    "RebalanceConfig",
    "RebalanceDecision",
    "RebalancePolicy",
    "SearchService",
    "ServiceConfig",
    "SessionStats",
    "ShardedBatchStats",
    "ShardedSearchService",
    "ShardPlan",
    "aggregate_batch_stats",
]
