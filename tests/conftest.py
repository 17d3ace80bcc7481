"""Shared fixtures: small deterministic workloads reused across tests.

Session scope keeps the suite fast: building a database and its
fragment cache once is enough because everything downstream is
read-only with respect to these objects.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest

from repro.db.proteome import ProteomeConfig
from repro.parallel.shared_arena import _OWNER_MARKER, _STORE_PREFIXES
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.spectra.synthetic import SyntheticRunConfig, generate_run


@pytest.fixture(scope="session")
def small_db() -> IndexedDatabase:
    """~8k-entry database: big enough for realistic candidate sets."""
    return IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=8, seed=101),
            max_variants_per_peptide=6,
        )
    )


@pytest.fixture(scope="session")
def tiny_db() -> IndexedDatabase:
    """~1k-entry database for the heavier equivalence tests."""
    return IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=2, seed=77),
            max_variants_per_peptide=3,
        )
    )


@pytest.fixture(scope="session")
def small_spectra(small_db):
    """25 synthetic query spectra drawn from ``small_db``."""
    return generate_run(
        small_db.entries, SyntheticRunConfig(n_spectra=25, seed=55)
    )


@pytest.fixture(scope="session")
def tiny_spectra(tiny_db):
    """12 synthetic query spectra drawn from ``tiny_db``."""
    return generate_run(
        tiny_db.entries, SyntheticRunConfig(n_spectra=12, seed=56)
    )


def _owned_tmpdirs() -> set:
    """Package tmpdirs (arena spills, spectra stores, fault-plan ledgers)
    whose ``owner.pid`` marker names this process.

    Other processes' directories (a parallel run on a shared host, a
    spawned worker's) are never counted.
    """
    me = str(os.getpid())
    owned = set()
    for path in Path(tempfile.gettempdir()).iterdir():
        if path.name.startswith(_STORE_PREFIXES):
            try:
                if (path / _OWNER_MARKER).read_text(encoding="ascii").strip() == me:
                    owned.add(path.name)
            except OSError:
                continue
    return owned


@pytest.fixture
def owned_tmpdirs():
    """:func:`_owned_tmpdirs`, for tests that count their own spills."""
    return _owned_tmpdirs


@pytest.fixture(scope="module", autouse=True)
def resource_fence():
    """Fail a module that leaves a package tmpdir of this process, or a
    child process, behind."""
    tmpdirs = _owned_tmpdirs()
    children = set(multiprocessing.active_children())
    yield
    gc.collect()
    leaked = sorted(_owned_tmpdirs() - tmpdirs)
    if leaked:
        pytest.fail(f"module left {len(leaked)} tmpdir(s) behind: {leaked}", pytrace=False)
    alive = [p for p in multiprocessing.active_children() if p not in children]
    if alive:
        pytest.fail(f"module left {len(alive)} child process(es) alive: {alive}", pytrace=False)
