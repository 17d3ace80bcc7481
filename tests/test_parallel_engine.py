"""One-shot process engine vs serial reference, and the spill it shares.

``ParallelSearchEngine.run`` is a :class:`SearchService` opened for one
batch, so it carries the same acceptance bar as the session: for every
partition policy and worker count, search results — candidate counts,
PSM identities, scores, tie-breaking — are *bit-identical* to the
serial engine's.  Real parallelism must change where the work runs,
never what it computes.  The arena spill behind every session is one
refcounted tmpdir per database, shared by concurrent sessions.
"""

import gc
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from reference import assert_same_results
from repro.search.serial import SerialSearchEngine
from repro.service import ParallelSearchEngine, SearchService, ServiceConfig

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def serial_reference(tiny_db, tiny_spectra):
    return SerialSearchEngine(tiny_db).run(tiny_spectra)


@pytest.mark.parametrize("policy", ["cyclic", "chunk"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_process_backend_equals_serial(
    tiny_db, tiny_spectra, serial_reference, policy, n_workers
):
    engine = ParallelSearchEngine(
        tiny_db, ServiceConfig(n_workers=n_workers, policy=policy)
    )
    res = engine.run(tiny_spectra)
    assert_same_results(serial_reference, res)
    assert res.n_ranks == n_workers
    assert res.policy_name == policy


def test_rank_stats_cover_all_work(tiny_db, tiny_spectra, serial_reference):
    res = ParallelSearchEngine(
        tiny_db, ServiceConfig(n_workers=2, policy="cyclic")
    ).run(tiny_spectra)
    assert sum(s.n_entries for s in res.rank_stats) == tiny_db.n_entries
    assert (
        sum(s.candidates_scored for s in res.rank_stats)
        == serial_reference.total_cpsms
    )


def test_phase_times_are_real_and_positive(tiny_db, tiny_spectra):
    t0 = time.perf_counter()
    res = ParallelSearchEngine(
        tiny_db, ServiceConfig(n_workers=2, policy="cyclic")
    ).run(tiny_spectra)
    elapsed = time.perf_counter() - t0
    phases = res.phase_times
    for key in ("open", "build", "query", "query_cpu", "parallel_wall", "total"):
        assert phases[key] > 0.0
    # Worker phases are bounded by the master-observed parallel section.
    assert phases["query"] <= phases["parallel_wall"]
    # build is the slowest rank's attach-time index build ...
    assert phases["build"] == max(s.build_time for s in res.rank_stats)
    # ... and total spans open through close: the session's open and
    # the batch's round both fall inside it, and it inside the call.
    assert phases["open"] + phases["parallel_wall"] <= phases["total"] <= elapsed
    for stats in res.rank_stats:
        assert stats.query_time > 0.0
        assert stats.query_cpu_time > 0.0


def test_empty_input_returns_empty_results(tiny_db):
    res = ParallelSearchEngine(tiny_db, ServiceConfig(n_workers=3)).run([])
    assert res.spectra == [] and res.n_ranks == 3
    assert [s.rank for s in res.rank_stats] == [0, 1, 2]
    assert res.execution_time == 0.0


def test_plan_partitions_all_entries(tiny_db):
    plan = SearchService(tiny_db, ServiceConfig(n_workers=3)).plan
    assert int(plan.partition_sizes().sum()) == tiny_db.n_entries


def test_workers_see_only_their_partition(tiny_db, tiny_spectra):
    """Per-worker index sizes match the plan (no replicated database)."""
    with SearchService(tiny_db, ServiceConfig(n_workers=3)) as service:
        res, _ = service.submit(tiny_spectra)
        expected = service.plan.partition_sizes()
    got = np.array([s.n_entries for s in res.rank_stats], dtype=np.int64)
    assert np.array_equal(expected, got)


# -- a worker that dies while bootstrapping ----------------------------

# Deliberately no ``if __name__ == "__main__":`` guard: every spawned
# worker re-runs this body while bootstrapping and dies in it.  With
# 1 worker its manifest is the whole database — over 64 KB of entry
# ids, more than a pipe buffer holds — so a master that shipped it
# in the spawn arguments would block in ``spawn`` forever.
_UNGUARDED_SCRIPT = textwrap.dedent(
    """
    from repro.db.proteome import ProteomeConfig
    from repro.search.database import DatabaseConfig, IndexedDatabase
    from repro.service import ParallelSearchEngine, ServiceConfig
    from repro.spectra.synthetic import SyntheticRunConfig, generate_run

    db = IndexedDatabase.build(
        DatabaseConfig(
            proteome=ProteomeConfig(n_families=10, seed=4242),
            max_variants_per_peptide=8,
        )
    )
    assert db.n_entries * 8 > 64 * 1024, db.n_entries
    spectra = generate_run(db.entries, SyntheticRunConfig(n_spectra=8, seed=7))
    ParallelSearchEngine(db, ServiceConfig(n_workers=1, timeout=30)).run(spectra)
    """
)


def test_worker_dying_in_bootstrap_raises_never_hangs(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT, encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "WorkerError" in proc.stderr, proc.stderr[-2000:]


# -- shared spill cache (one tmpdir spill per arena) -------------------


def test_sessions_over_same_database_share_one_spill(
    tiny_db, tiny_spectra, serial_reference
):
    """Two sessions over one database attach to the same tmpdir spill
    (no second spill), and results stay bit-identical."""
    with SearchService(tiny_db, ServiceConfig(n_workers=2)) as a:
        directory = a._spill.store.directory
        mtime = (directory / "mzs.npy").stat().st_mtime_ns
        with SearchService(
            tiny_db, ServiceConfig(n_workers=3, policy="chunk")
        ) as b:
            assert b._spill.store.directory == directory
            # Attached, not re-spilled (rewriting could tear live memmaps).
            assert (directory / "mzs.npy").stat().st_mtime_ns == mtime
            res_b, _ = b.submit(tiny_spectra)
        res_a, _ = a.submit(tiny_spectra)
    assert_same_results(serial_reference, res_a)
    assert_same_results(serial_reference, res_b)


def test_first_session_close_does_not_remove_shared_spill(
    tiny_db, tiny_spectra, serial_reference
):
    """The spill is refcounted: it outlives the first session's
    ``close()`` and is removed when the last holder is collected."""
    a = SearchService(tiny_db, ServiceConfig(n_workers=2)).open()
    b = SearchService(tiny_db, ServiceConfig(n_workers=2)).open()
    directory = a._spill.store.directory
    a.close()
    del a
    gc.collect()
    assert directory.is_dir()  # b still maps it
    res, _ = b.submit(tiny_spectra)
    assert_same_results(serial_reference, res)
    b.close()
    gc.collect()
    assert not directory.exists()  # last holder gone -> tmpdir gone
