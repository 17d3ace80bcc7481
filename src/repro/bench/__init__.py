"""Experiment harness for the paper's evaluation (Figures 5–11).

* :mod:`~repro.bench.workloads` — scaled standard workloads: the
  paper's four index sizes (18 M / 30 M / 41 M / 49.45 M entries)
  mapped ratio-preserving onto laptop-scale synthetic databases.
* :mod:`~repro.bench.experiments` — :class:`ExperimentSuite`, one
  method per paper figure, with run caching so the pytest-benchmark
  files can share expensive searches.
* :mod:`~repro.bench.reporting` — table/CSV rendering of the series.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.workloads": ("Workload", "WorkloadConfig", "make_workload"),
    "repro.bench.experiments": ("ExperimentConfig", "ExperimentSuite", "default_suite"),
    "repro.bench.reporting": ("rows_to_csv", "series_table"),
})
