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
from repro.obs.ring import RingTracer
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


@pytest.fixture(scope="session")
def flight_dumps():
    """Paths of the flight records this process writes.

    Dump names carry no owner, so the fence counts what this process's
    :meth:`RingTracer.dump_to_dir` returns rather than globbing the
    shared temp dir, where another suite or a spine run may dump.
    """
    written = []
    dump_to_dir = RingTracer.dump_to_dir

    def recording_dump_to_dir(self, *args, **kwargs):
        path = dump_to_dir(self, *args, **kwargs)
        written.append(Path(path))
        return path

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RingTracer, "dump_to_dir", recording_dump_to_dir)
        yield written


@pytest.fixture
def owned_tmpdirs():
    """:func:`_owned_tmpdirs`, for tests that count their own spills."""
    return _owned_tmpdirs


@pytest.fixture(scope="module", autouse=True)
def resource_fence(flight_dumps):
    """Fail a module that leaves a package tmpdir of this process, a
    flight dump of this process in the system temp dir, or a child
    process behind."""
    tmpdirs = _owned_tmpdirs()
    n_dumps = len(flight_dumps)
    children = set(multiprocessing.active_children())
    yield
    gc.collect()
    leaked = sorted(_owned_tmpdirs() - tmpdirs)
    if leaked:
        pytest.fail(f"module left {len(leaked)} tmpdir(s) behind: {leaked}", pytrace=False)
    system_tmp = Path(tempfile.gettempdir()).resolve()
    dumped = [str(p) for p in flight_dumps[n_dumps:] if p.parent.resolve() == system_tmp]
    if dumped:
        pytest.fail(
            f"module dumped {len(dumped)} flight record(s) into the system temp dir: {dumped}",
            pytrace=False,
        )
    alive = [p for p in multiprocessing.active_children() if p not in children]
    if alive:
        pytest.fail(f"module left {len(alive)} child process(es) alive: {alive}", pytrace=False)
