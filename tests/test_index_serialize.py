"""Round trip of the one on-disk form: an index archive is a database's
arena store plus its entry table (``IndexedDatabase.save`` / ``load``)."""

import numpy as np
import pytest

from repro.chem.fragments import FragmentationSettings, fragment_mzs
from repro.chem.peptide import Peptide
from repro.errors import FormatError
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import IndexedDatabase
from repro.spectra.model import Spectrum

BASES = [
    Peptide("AAAGGGK", protein_id=3),
    Peptide("MMNNQQR", protein_id=4),
    Peptide("CCDDEEK"),
]
PEPTIDES = [
    BASES[0],
    BASES[1],
    Peptide("MMNNQQR", ((0, 15.995),), protein_id=4),
    BASES[2],
]
SETTINGS = SLMIndexSettings(shared_peak_threshold=2)


def _database():
    return IndexedDatabase(list(BASES), list(PEPTIDES), np.array([0, 1, 3, 4]))


@pytest.fixture()
def loaded(tmp_path):
    return IndexedDatabase.load(_database().save(tmp_path / "idx", SETTINGS))


def _query(peptide):
    mzs = fragment_mzs(peptide)
    return Spectrum(1, 500.0, 2, mzs, np.ones_like(mzs))


def test_roundtrip_structures(loaded):
    """The loaded arena, and what it quantizes to, equals the one that was saved."""
    database, _ = loaded
    built = _database().arena_for(SETTINGS.fragmentation)
    arena = database.arena_for(SETTINGS.fragmentation)
    for name in ("mzs", "offsets", "lengths", "masses"):
        assert np.array_equal(getattr(arena, name), getattr(built, name)), name
    for a, b in zip(arena.quantize(SETTINGS.resolution), built.quantize(SETTINGS.resolution)):
        assert np.array_equal(a, b)
    a, b = SLMIndex(arena, SETTINGS), SLMIndex(built, SETTINGS)
    assert np.array_equal(a.ion_parents, b.ion_parents)
    assert np.array_equal(a.bucket_offsets, b.bucket_offsets)
    assert np.array_equal(a.ion_counts, b.ion_counts)


def test_roundtrip_peptides(loaded):
    database, _ = loaded
    assert database.entries == PEPTIDES
    assert database.base_peptides == BASES
    assert np.array_equal(database.entry_offsets, [0, 1, 3, 4])
    assert database.entries[2].mods == ((0, 15.995),)
    assert database.entries[0].protein_id == 3
    assert [p.mass for p in database.entries] == [p.mass for p in PEPTIDES]


def test_roundtrip_settings_path(tmp_path):
    settings = SLMIndexSettings(
        resolution=0.02,
        fragment_tolerance=0.1,
        shared_peak_threshold=3,
        precursor_tolerance=5.0,
        fragmentation=FragmentationSettings(charges=(1, 2), include_b=False),
    )
    _, loaded_settings = IndexedDatabase.load(_database().save(tmp_path / "s", settings))
    assert loaded_settings == settings


def test_loaded_filters_identically(loaded):
    database, settings = loaded
    index = SLMIndex(database.arena_for(settings.fragmentation), settings)
    reference = SLMIndex(_database().arena_for(SETTINGS.fragmentation), SETTINGS)
    for peptide in PEPTIDES:
        a, b = reference.filter(_query(peptide)), index.filter(_query(peptide))
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.shared_peaks, b.shared_peaks)
        assert (a.ions_scanned, a.buckets_scanned) == (b.ions_scanned, b.buckets_scanned)


def test_empty_index_roundtrip(tmp_path):
    empty = IndexedDatabase([], [], np.zeros(1, dtype=np.int64))
    database, _ = IndexedDatabase.load(empty.save(tmp_path / "e"))
    assert database.entries == [] and database.n_bases == 0
    assert database.arena_for(FragmentationSettings()).n_ions == 0


def test_missing_field_rejected(tmp_path):
    directory = _database().save(tmp_path / "idx", SETTINGS)
    (directory / "mod_deltas.npy").unlink()
    with pytest.raises(FormatError, match="mod_deltas"):
        IndexedDatabase.load(directory)


def test_bad_version_rejected(tmp_path):
    import json

    directory = _database().save(tmp_path / "idx", SETTINGS)
    table = json.loads((directory / "database.json").read_text())
    table["version"] = 99
    (directory / "database.json").write_text(json.dumps(table))
    with pytest.raises(FormatError, match="version"):
        IndexedDatabase.load(directory)


# -- zero-copy (memmap) loading ----------------------------------------


def test_mmap_roundtrip_bit_identical(loaded, tmp_path):
    """The loaded arena maps the archive's files; nothing is copied."""
    database, settings = loaded
    arena = database.arena_for(settings.fragmentation)
    for array in (
        arena.mzs,
        arena.offsets,
        arena.masses,
    ):
        assert isinstance(array, np.memmap) or isinstance(array.base, np.memmap)
    # Nothing quantized is stored: a build quantizes and sorts.
    assert not list((tmp_path / "idx").glob("buckets_*.npy"))


def test_mmap_views_reject_writes(loaded):
    database, settings = loaded
    arena = database.arena_for(settings.fragmentation)
    with pytest.raises(ValueError):
        arena.mzs[0] = 1.0
    with pytest.raises(ValueError):
        arena.masses[0] = 1.0


def test_mmap_loaded_filters_identically(loaded):
    """The batched kernel over the mapped arena equals the built index's."""
    database, settings = loaded
    index = SLMIndex(database.arena_for(settings.fragmentation), settings)
    reference = SLMIndex(_database().arena_for(SETTINGS.fragmentation), SETTINGS)
    spectra = [_query(p) for p in PEPTIDES]
    for a, b in zip(reference.filter_many(spectra), index.filter_many(spectra)):
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.shared_peaks, b.shared_peaks)
