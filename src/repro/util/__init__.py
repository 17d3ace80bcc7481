"""Shared utilities: deterministic RNG handling, text tables and plots.

These helpers are intentionally tiny and dependency-free so that every
other subpackage can import them without cycles.
"""

from repro.util.ascii_plot import bar_chart, line_plot
from repro.util.rng import derive_seed, rng_from
from repro.util.tables import format_table

__all__ = [
    "bar_chart",
    "line_plot",
    "derive_seed",
    "rng_from",
    "format_table",
]
