"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` states each public name once, grouped under the
module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.chem.peptide": ("Peptide", "peptide_mass"),
    })

Importing the package then runs nothing but its ``__init__``: a name's
module is imported on the name's first use, and the value is cached on
the package so later lookups are plain attribute reads.  Spawned workers
import only the rank body they run, not every package they pass through.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its
    defining-module → public-names ``table``."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, list(home)
