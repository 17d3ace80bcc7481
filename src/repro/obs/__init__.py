"""Observability: structured tracing + live metrics for the serving stack.

The LBE paper's central quantity — per-rank load imbalance during the
query phase (Eq. 1) — was previously visible only in offline
benchmarks, and the supervision layer's transitions (retries, hedges,
respawns, degraded ranks/shards) evaporated when a batch completed.
This package makes both observable in live sessions:

* :mod:`repro.obs.trace` — span/event tracer with explicit clock
  injection; :class:`JsonlTracer` writes one JSON object per line
  (``repro serve --trace FILE``), :data:`NULL_TRACER` is the free
  default.
* :mod:`repro.obs.metrics` — process-wide registry of counters,
  gauges, and fixed-bucket latency histograms (p50/p95/p99),
  including the live per-batch **load-imbalance gauge** computed
  from the full per-rank query wall/CPU vectors on ``BatchStats``.
* :mod:`repro.obs.ring` — the flight recorder: :class:`RingTracer`
  keeps the last N records in a bounded in-memory ring (installed by
  default when no file tracer is configured) and dumps a schema-valid
  JSONL black box on ``WorkerError``/``ShardError``/degraded batches.
* :mod:`repro.obs.schema` — the executable taxonomy below;
  ``python -m repro.obs.schema FILE`` validates a trace in CI, and
  ``--stats`` / ``--require NAME>=N`` turn CI greps into structured
  assertions.
* :mod:`repro.obs.analyze` — the consume side: reconstructs per-batch
  timelines, stage breakdown, per-rank utilization, overlap
  efficiency, the critical path, and a recomputed Eq.-1 LI from a
  trace (``repro trace analyze | gantt | diff``).

Event taxonomy
==============

Spans (``{"type": "span", "name": ..., "ts": ..., "dur": ...}``; all
timestamps are seconds on the injected master clock):

==============  ======================  ==================================
span name       required attrs          emitted by / meaning
==============  ======================  ==================================
``prepare``     ``batch``               master: preprocess + pack one batch
``dispatch``    ``batch``               master: scatter commands to ranks
``collect``     ``batch``               master: wait for worker replies
``merge``       ``batch``               master: merge rank payloads
``worker.open`` ``batch, rank``         worker: per-rank batch unpack
                                        (re-anchored from reply payload)
``worker.query``  ``batch, rank,        worker: per-rank query phase —
                  cpu_s``               the LI vector's wall entries;
                                        ``cpu_s`` is the CPU-time twin
``route``       ``batch, dispatched,    shard router: precursor-window
                ``skipped``             routing predicate over shards
``demux``       ``batch``               shard router: scan-id demux +
                                        fleet merge
==============  ======================  ==================================

Events (``{"type": "event", "kind": ..., "ts": ...}``):

===================  ====================  ==============================
event kind           required attrs        emitted when
===================  ====================  ==============================
``session.open``     ``n_workers``         pool attached, session ready
``session.close``    —                     session closed
``batch``            ``batch, n_spectra,   per-batch summary: the live
                     total_s, li_wall,     LI gauge (Eq. 1 over the
                     li_cpu, retries,      per-rank wall/CPU vectors)
                     hedged, respawned``   plus supervision totals
``retry``            ``rank, attempt``     rank failed, will re-dispatch
``backoff``          ``rank, delay_s``     sleeping before the retry
``respawn``          ``rank``              dead worker replaced
``hedge.launch``     ``rank``              speculative duplicate started
``hedge.win``        ``rank``              hedge answered first, promoted
``hedge.loss``       ``rank``              hedge (or original) discarded
``degraded.rank``    ``rank``              retries exhausted, rank masked
``degraded.shard``   ``shard``             whole shard degraded in fleet
``flight.dump``      ``reason``            flight recorder cut a black
                                           box (last record before dump)
===================  ====================  ==============================

Extra attributes are always allowed (bound views add e.g.
``shard=<id>`` to every record of an inner service); the schema
checks required keys only.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.trace": (
        "Clock",
        "default_clock",
        "Tracer",
        "NULL_TRACER",
        "JsonlTracer",
    ),
    "repro.obs.ring": ("RingTracer", "DEFAULT_CAPACITY", "flight_dump"),
    "repro.obs.analyze": (
        "TraceAnalysis",
        "TraceDiff",
        "load_trace",
        "analyze_trace",
        "analyze_trace_file",
        "diff_traces",
        "render_analysis",
        "render_gantt",
        "render_diff",
    ),
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "global_registry",
        "quantile",
        "DEFAULT_LATENCY_BUCKETS_S",
    ),
    "repro.obs.schema": (
        "SPAN_ATTRS",
        "EVENT_ATTRS",
        "validate_record",
        "validate_trace_lines",
        "validate_trace_file",
        "trace_stats",
    ),
})
