"""Distributed == serial under non-default index settings.

The main equivalence tests run the paper's open-search defaults; these
cover the other corners of the settings space: precursor-windowed
("closed") search, multi-charge fragmentation, b-only indexes, and
coarser resolutions — partitioning must stay semantics-free in all of
them.
"""

import numpy as np
import pytest

from reference import assert_same_results as assert_equals_serial
from repro.chem.fragments import FragmentationSettings
from repro.index import chunks
from repro.index.slm import SLMIndexSettings
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.rank import build_rank_index
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig

SETTINGS_MATRIX = {
    "windowed": SLMIndexSettings(precursor_tolerance=3.0),
    "charges12": SLMIndexSettings(
        fragmentation=FragmentationSettings(charges=(1, 2))
    ),
    "b_only": SLMIndexSettings(
        fragmentation=FragmentationSettings(include_y=False),
        shared_peak_threshold=2,
    ),
    "coarse": SLMIndexSettings(resolution=0.1, fragment_tolerance=0.2),
}


@pytest.mark.parametrize("name", sorted(SETTINGS_MATRIX))
def test_distributed_equals_serial_under_settings(tiny_db, tiny_spectra, name):
    settings = SETTINGS_MATRIX[name]
    serial = SerialSearchEngine(tiny_db, settings).run(tiny_spectra)
    dist = DistributedSearchEngine(
        tiny_db, EngineConfig(n_ranks=3, policy="cyclic", index=settings)
    ).run(tiny_spectra)
    assert_equals_serial(serial, dist)


@pytest.mark.parametrize("policy", ["chunk", "cyclic", "random", "lpt"])
@pytest.mark.parametrize("tolerance", [0.5, 3.0])
def test_windowed_equals_serial_with_many_chunks_per_rank(
    tiny_db, tiny_spectra, monkeypatch, policy, tolerance
):
    """The precursor-major rank index, cut into ~20 chunks per rank,
    under every partition policy: the (flat) serial engine's answer."""
    monkeypatch.setattr(chunks, "CHUNK_ENTRIES", 16)
    settings = SLMIndexSettings(precursor_tolerance=tolerance)
    arena = tiny_db.arena_for(settings.fragmentation)
    _, index = build_rank_index(
        arena, np.arange(0, len(tiny_db.entries), 3), settings
    )
    assert index.n_chunks > 10
    serial = SerialSearchEngine(tiny_db, settings).run(tiny_spectra)
    dist = DistributedSearchEngine(
        tiny_db, EngineConfig(n_ranks=3, policy=policy, index=settings)
    ).run(tiny_spectra)
    assert_equals_serial(serial, dist)
    # The windows reach few chunks, and the work counters say so.
    assert sum(r.ions_scanned for r in dist.rank_stats) < sum(
        r.ions_scanned for r in serial.rank_stats
    )


def test_windowed_service_equals_serial_across_a_migration(tiny_db, tiny_spectra):
    """``rebalance()`` re-attaches every rank: the chunked index is
    rebuilt over the new manifests and the answer does not move."""
    settings = SLMIndexSettings(precursor_tolerance=3.0)
    serial = SerialSearchEngine(tiny_db, settings).run(tiny_spectra)
    with SearchService(tiny_db, ServiceConfig(n_workers=2, index=settings)) as service:
        results, _ = service.submit(tiny_spectra)
        assert_equals_serial(serial, results)
        summary = service.rebalance(n_workers=3)
        assert summary["migrated"] is True and service.n_workers == 3
        results, _ = service.submit(tiny_spectra)
        assert_equals_serial(serial, results)
        assert results.n_ranks == 3
        service.rebalance(n_workers=2, speeds=[1.0, 3.0])
        results, _ = service.submit(tiny_spectra)
        assert_equals_serial(serial, results)


def test_windowed_distributed_fewer_candidates(tiny_db, tiny_spectra):
    open_res = DistributedSearchEngine(
        tiny_db, EngineConfig(n_ranks=3)
    ).run(tiny_spectra)
    win_res = DistributedSearchEngine(
        tiny_db,
        EngineConfig(n_ranks=3, index=SLMIndexSettings(precursor_tolerance=3.0)),
    ).run(tiny_spectra)
    assert win_res.total_cpsms < open_res.total_cpsms


def test_charge2_index_has_more_ions(tiny_db):
    from reference import index_over

    s1 = index_over(tiny_db.entries[:50], SLMIndexSettings())
    s2 = index_over(
        tiny_db.entries[:50],
        SLMIndexSettings(fragmentation=FragmentationSettings(charges=(1, 2))),
    )
    assert s2.n_ions == 2 * s1.n_ions


def test_top_k_one(tiny_db, tiny_spectra):
    """top_k=1 keeps only the best PSM and it matches the default
    run's best PSM."""
    default = DistributedSearchEngine(
        tiny_db, EngineConfig(n_ranks=2, top_k=5)
    ).run(tiny_spectra)
    top1 = DistributedSearchEngine(
        tiny_db, EngineConfig(n_ranks=2, top_k=1)
    ).run(tiny_spectra)
    for a, b in zip(default.spectra, top1.spectra):
        assert len(b.psms) <= 1
        if a.psms:
            assert b.psms[0].entry_id == a.psms[0].entry_id
