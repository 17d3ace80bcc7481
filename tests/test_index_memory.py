"""Tests for the index memory model (Fig. 5 substrate)."""

import numpy as np
import pytest

from reference import index_over
from repro.chem.peptide import Peptide
from repro.errors import ConfigurationError
from repro.index import chunks
from repro.index.chunks import ChunkedIndex
from repro.index.memory import IndexMemoryModel, MemoryBreakdown
from repro.index.slm import SLMIndex, SLMIndexSettings


def test_shared_scales_linearly_in_entries():
    m = IndexMemoryModel()
    a = m.shared(1_000_000)
    b = m.shared(2_000_000)
    # Ion + peptide terms double; offsets constant.
    assert b.ion_bytes == 2 * a.ion_bytes
    assert b.peptide_bytes == 2 * a.peptide_bytes
    assert b.offsets_bytes == a.offsets_bytes


def test_distributed_offsets_replicated_per_rank():
    m = IndexMemoryModel()
    d4 = m.distributed(1_000_000, 4)
    d8 = m.distributed(1_000_000, 8)
    assert d8.offsets_bytes == 2 * d4.offsets_bytes


def test_distributed_overhead_shrinks_with_partition_size():
    """Paper: 'extra memory overhead varies inversely with the size of
    data partition per MPI CPU'."""
    m = IndexMemoryModel()
    p = 16

    def rel_overhead(n):
        s, d = m.shared(n), m.distributed(n, p)
        return (d.steady_bytes - s.steady_bytes) / s.steady_bytes

    assert rel_overhead(50_000_000) < rel_overhead(10_000_000)


def test_paper_scale_overhead_single_digit_percent():
    """At the paper's scale the distributed overhead is ~6 %."""
    m = IndexMemoryModel()
    n = 30_000_000
    s, d = m.shared(n), m.distributed(n, 16)
    overhead = (d.steady_bytes - s.steady_bytes) / s.steady_bytes
    assert 0.0 < overhead < 0.15


def test_gb_per_million_near_paper_values():
    """Paper: 0.346 GB/M shared, 0.366 GB/M distributed."""
    m = IndexMemoryModel()
    shared = m.gb_per_million(30_000_000)
    dist = m.gb_per_million(30_000_000, 16)
    assert shared == pytest.approx(0.346, abs=0.1)
    assert dist == pytest.approx(0.366, abs=0.1)
    assert dist > shared


def test_transient_doubles_ion_bytes():
    m = IndexMemoryModel()
    bd = m.shared(1_000_000)
    assert bd.transient_bytes == bd.ion_bytes
    assert bd.peak_bytes == bd.steady_bytes + bd.ion_bytes


def test_internal_chunking_removes_transient():
    m = IndexMemoryModel()
    bd = m.shared(1_000_000, internal_chunking=True)
    assert bd.transient_bytes == 0
    bd_d = m.distributed(1_000_000, 4, internal_chunking=True)
    assert bd_d.transient_bytes == 0


def test_internal_chunking_charges_per_chunk_offsets_and_position_maps(monkeypatch):
    m = IndexMemoryModel()
    n, p = 1_000_000, 4
    flat, chunked = m.distributed(n, p), m.distributed(n, p, internal_chunking=True)
    chunks_per_rank = -(-(n // p) // chunks.CHUNK_ENTRIES)
    assert chunked.offsets_bytes == 4 * m.n_buckets * chunks_per_rank * p
    assert chunked.mapping_bytes == flat.mapping_bytes + 4 * n
    assert chunked.ion_bytes == flat.ion_bytes
    # One chunk per rank: half the flat index's int64 offsets.
    monkeypatch.setattr(chunks, "CHUNK_ENTRIES", n)
    assert 2 * m.distributed(n, p, internal_chunking=True).offsets_bytes == (
        flat.offsets_bytes
    )


def test_internal_chunking_tracks_the_live_chunked_rank_index(tiny_db, monkeypatch):
    """The model's chunked terms against a live index's array bytes."""
    monkeypatch.setattr(chunks, "CHUNK_ENTRIES", 64)
    settings = SLMIndexSettings(precursor_tolerance=2.0)
    arena = tiny_db.arena_for(settings.fragmentation)
    n_ranks = 2
    n = arena.n_entries - arena.n_entries % n_ranks
    ranks = [
        ChunkedIndex(arena.take(np.arange(r, n, n_ranks)), settings)
        for r in range(n_ranks)
    ]
    buckets = [int(b) for index in ranks for b in index.chunk_buckets]
    assert len(buckets) > 2 * n_ranks
    top_bucket = max(buckets) - 1
    m = IndexMemoryModel(
        ions_per_entry=sum(index.n_ions for index in ranks) / n,
        max_mz=(top_bucket + 0.5) * settings.resolution,
        resolution=settings.resolution,
    )
    assert m.n_buckets == top_bucket + 1
    flat = m.distributed(n, n_ranks)
    chunked = m.distributed(n, n_ranks, internal_chunking=True)

    assert chunked.mapping_bytes - flat.mapping_bytes == sum(
        index.positions.nbytes for index in ranks
    )
    assert chunked.ion_bytes == pytest.approx(
        sum(index.ion_parents.nbytes for index in ranks), abs=4
    )
    # Offsets: the model charges every chunk the full bucket extent;
    # the live runs (one more slot each) stop at the chunk's own top
    # bucket, so the heaviest is charged exactly and the sum is bounded.
    assert chunked.offsets_bytes == 4 * m.n_buckets * len(buckets)
    live = [4 * b for b in buckets]
    assert sum(index.bucket_offsets.nbytes for index in ranks) == sum(live) + 4 * len(
        buckets
    )
    assert max(live) == 4 * m.n_buckets
    assert 0.25 * chunked.offsets_bytes < sum(live) <= chunked.offsets_bytes


def test_breakdown_properties():
    bd = MemoryBreakdown(
        ion_bytes=100, offsets_bytes=10, peptide_bytes=20,
        mapping_bytes=5, transient_bytes=100,
    )
    assert bd.steady_bytes == 135
    assert bd.peak_bytes == 235
    assert bd.steady_gb == pytest.approx(135 / 1024**3)


def test_invalid_model_rejected():
    with pytest.raises(ConfigurationError):
        IndexMemoryModel(ions_per_entry=0)
    with pytest.raises(ConfigurationError):
        IndexMemoryModel(resolution=0)


def test_invalid_ranks_rejected():
    with pytest.raises(ConfigurationError):
        IndexMemoryModel().distributed(100, 0)


def test_measure_actual_tracks_model_proportionally():
    """The live numpy index's ion bytes must scale like the model."""
    peptides = [Peptide("ACDEFGHIK"), Peptide("LMNPQRSTVWYK"), Peptide("GGGGGGK")]
    idx = index_over(peptides, SLMIndexSettings())
    m = IndexMemoryModel()
    actual = m.measure_actual(idx, peptides)
    assert actual.ion_bytes == 4 * idx.n_ions  # int32 parents
    assert actual.offsets_bytes == 4 * (idx.n_buckets + 1)  # int32 offsets


def test_arena_bytes_tracks_live_arena():
    """The arena model must match a live arena's flat-array bytes."""
    from repro.index.arena import FragmentArena

    peptides = [Peptide("ACDEFGHIK"), Peptide("LMNPQRSTVWYK"), Peptide("GGGGGGK")]
    arena = FragmentArena.from_peptides(peptides)
    SLMIndex(arena, SLMIndexSettings())  # a build leaves nothing on the arena
    m = IndexMemoryModel()
    measured = m.measure_arena(arena)
    # Flat m/z + offsets; the live arena adds only small per-entry
    # metadata on top.
    structural = 8 * arena.n_ions + 8 * (arena.n_entries + 1)
    assert measured >= structural
    assert measured - structural <= 16 * arena.n_entries  # lengths + masses


def test_arena_bytes_model_scales():
    m = IndexMemoryModel()
    base = m.arena_bytes(1_000_000)
    assert base == int(8 * 1_000_000 * m.ions_per_entry) + 8 * 1_000_001
    assert m.arena_bytes(2_000_000) == pytest.approx(2 * base, rel=1e-5)
