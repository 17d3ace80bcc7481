"""Shared utilities: deterministic RNG handling, text tables and plots.

These helpers are intentionally tiny and dependency-free so that every
other subpackage can import them without cycles.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.util.ascii_plot": ("bar_chart", "line_plot"),
    "repro.util.rng": ("derive_seed", "rng_from"),
    "repro.util.tables": ("format_table",),
})
