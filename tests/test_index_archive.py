"""Index archives as a session starts from them, and hostile archives.

An archive (``repro index --out DIR``) is the database's arena store
plus its entry table.  A session over ``IndexedDatabase.load(DIR)``
builds no arena and spills nothing: its workers attach ``DIR`` itself,
which outlives the session.  Every malformed archive is a
:class:`~repro.errors.FormatError`.
"""

import gc
import json
import shutil
import tempfile

import numpy as np
import pytest

from reference import assert_same_results
from repro.chem.peptide import Peptide
from repro.errors import FormatError
from repro.index.arena import FragmentArena
from repro.index.slm import SLMIndexSettings
from repro.parallel.shared_arena import SharedArenaStore, shared_spill_for
from repro.search.database import IndexedDatabase
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig

SETTINGS = SLMIndexSettings()


@pytest.fixture(scope="module")
def archive(tiny_db, tmp_path_factory):
    return tiny_db.save(tmp_path_factory.mktemp("archive") / "index", SETTINGS)


def _copy(archive, tmp_path):
    return shutil.copytree(archive, tmp_path / "copy")


def test_long_entry_round_trips_at_full_length(tmp_path):
    """An 80-residue entry keeps every residue and its mass."""
    long_peptide = Peptide("ACDEFGHIKLMNPQRSTVWY" * 4, protein_id=9)
    database = IndexedDatabase.from_peptides([long_peptide], max_variants_per_peptide=2)
    loaded, _ = IndexedDatabase.load(database.save(tmp_path / "long"))
    assert loaded.entries == database.entries
    assert loaded.entries[0].length == 80
    assert [p.mass for p in loaded.entries] == [p.mass for p in database.entries]


def test_session_from_archive_builds_and_spills_nothing(
    archive, tiny_db, tiny_spectra, monkeypatch
):
    """No arena build, no ``repro-arena-*`` tmpdir: the workers attach
    the archive, which is intact after close() and collection."""
    before = {p.name: p.read_bytes() for p in archive.iterdir()}

    def no_build(cls, *args, **kwargs):
        raise AssertionError("an archive start must not build an arena")

    monkeypatch.setattr(FragmentArena, "from_peptides", classmethod(no_build))
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def spy_mkdtemp(*args, **kwargs):
        path = real_mkdtemp(*args, **kwargs)
        made.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", spy_mkdtemp)
    database, settings = IndexedDatabase.load(archive)
    service = SearchService(database, ServiceConfig(n_workers=2, index=settings)).open()
    assert service._spill.store.directory == archive
    results, _ = service.submit(tiny_spectra)
    service.close()
    del service, database
    gc.collect()
    assert not [p for p in made if "repro-arena-" in p]
    assert {p.name: p.read_bytes() for p in archive.iterdir()} == before
    monkeypatch.undo()
    expected = SerialSearchEngine(tiny_db).run(tiny_spectra)
    for a, b in zip(expected.spectra, results.spectra):
        assert [(p.entry_id, p.score, p.shared_peaks) for p in a.psms] == [
            (p.entry_id, p.score, p.shared_peaks) for p in b.psms
        ]


def test_archive_with_a_stored_order_loads_and_serves_identically(
    archive, tiny_db, tiny_spectra, tmp_path
):
    """An archive written when stores still carried bucket ids and a
    sort order: both files are left unmapped and uncounted, and the
    session serves bit-identically to the serial engine."""
    directory = _copy(archive, tmp_path)
    manifest_path = directory / "arena_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    buckets, order = FragmentArena(
        np.load(directory / "mzs.npy"), np.load(directory / "offsets.npy"),
        lengths=np.load(directory / "lengths.npy"), masses=np.load(directory / "masses.npy"),
    ).quantize(SETTINGS.resolution)
    np.save(directory / "buckets_0.npy", buckets)
    np.save(directory / "order_0.npy", order)
    manifest["resolutions"] = [
        {"hex": SETTINGS.resolution.hex(), "buckets": "buckets_0.npy", "order": "order_0.npy"}
    ]
    manifest_path.write_text(json.dumps(manifest))
    database, settings = IndexedDatabase.load(directory)
    assert SharedArenaStore.open(directory).nbytes() == SharedArenaStore.open(archive).nbytes()
    with SearchService(database, ServiceConfig(n_workers=2, index=settings)) as service:
        assert service._spill.store.directory == directory
        results, _ = service.submit(tiny_spectra)
    assert_same_results(SerialSearchEngine(tiny_db).run(tiny_spectra), results)


def test_archive_footprint_counts_the_arena_files_alone(archive):
    """The entry table beside the arena store is not the shared copy."""
    store = SharedArenaStore.open(archive)
    arena_files = ("mzs.npy", "offsets.npy", "lengths.npy", "masses.npy")
    assert store.file_bytes() == {
        name: (archive / name).stat().st_size for name in arena_files
    }
    every_npy = sum(p.stat().st_size for p in archive.glob("*.npy"))
    assert store.nbytes() < every_npy
    assert store.nbytes() - 8 * store.n_ions <= 24 * store.n_entries + 1024


def test_spill_of_an_archived_arena_borrows_it_at_every_resolution(archive):
    """The archive stores m/z only, which serves every resolution: no
    resolution spills the archived arena again."""
    database, settings = IndexedDatabase.load(archive)
    arena = database.arena_for(settings.fragmentation)
    borrowed = shared_spill_for(arena, settings.resolution)
    other = shared_spill_for(arena, settings.resolution * 2)
    assert borrowed.store.directory == other.store.directory == archive
    assert borrowed.alive and other.alive
    del borrowed, other
    gc.collect()
    assert (archive / "mzs.npy").is_file()


# -- hostile archives ----------------------------------------------------


def _set_json(path, key, value):
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


HOSTILE = {
    "missing store file": lambda d: (d / "mzs.npy").unlink(),
    "missing entry table": lambda d: (d / "database.json").unlink(),
    "missing table file": lambda d: (d / "protein_ids.npy").unlink(),
    "store version": lambda d: _set_json(d / "arena_manifest.json", "version", 2),
    "settings version": lambda d: _set_json(d / "database.json", "version", 0),
    "malformed settings": lambda d: _set_json(d / "database.json", "settings", {}),
    "truncated store npy": lambda d: _truncate(d / "lengths.npy"),
    "truncated table npy": lambda d: _truncate(d / "residues.npy"),
    "torn manifest": lambda d: _truncate(d / "arena_manifest.json"),
    "manifest not an object": lambda d: (d / "arena_manifest.json").write_text("[3]"),
    "table not an object": lambda d: (d / "database.json").write_text("[1]"),
    "bad residue": lambda d: np.save(
        d / "residues.npy", np.full(np.load(d / "residues.npy").size, ord("B"), np.uint8)
    ),
}


@pytest.mark.parametrize("damage", sorted(HOSTILE))
def test_hostile_archive_raises_format_error(archive, tmp_path, damage):
    directory = _copy(archive, tmp_path)
    HOSTILE[damage](directory)
    with pytest.raises(FormatError):
        IndexedDatabase.load(directory)


def test_entry_table_of_another_size_raises_format_error(archive, tmp_path):
    """A table whose length differs from the store's ``n_entries``."""
    directory = _copy(archive, tmp_path)
    other = IndexedDatabase.from_peptides([Peptide("PEPTIDEK")]).save(tmp_path / "other")
    for name in ("database.json", "entry_offsets.npy", "residues.npy", "protein_ids.npy",
                 "mod_offsets.npy", "mod_positions.npy", "mod_deltas.npy"):
        shutil.copy(other / name, directory / name)
    with pytest.raises(FormatError, match="entries"):
        IndexedDatabase.load(directory)
