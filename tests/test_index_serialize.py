"""Tests for SLM index persistence."""

import numpy as np
import pytest

from repro.chem.fragments import FragmentationSettings
from repro.chem.peptide import Peptide
from reference import index_over
from repro.errors import ConfigurationError, FormatError
from repro.index.serialize import load_index, save_index
from repro.index.slm import SLMIndexSettings

PEPTIDES = [
    Peptide("AAAGGGK", protein_id=3),
    Peptide("MMNNQQR", ((0, 15.995),), protein_id=4),
    Peptide("CCDDEEK"),
]


@pytest.fixture()
def index():
    return index_over(PEPTIDES, SLMIndexSettings(shared_peak_threshold=2))


def test_roundtrip_structures(tmp_path, index):
    path = save_index(tmp_path / "idx.npz", index, PEPTIDES)
    _, loaded = load_index(path)
    assert np.array_equal(loaded.ion_parents, index.ion_parents)
    assert np.array_equal(loaded.bucket_offsets, index.bucket_offsets)
    assert np.array_equal(loaded.masses, index.masses)
    assert loaded.n_buckets == index.n_buckets


def test_roundtrip_peptides(tmp_path, index):
    peptides, _ = load_index(save_index(tmp_path / "idx.npz", index, PEPTIDES))
    assert peptides == PEPTIDES
    assert peptides[1].mods == ((0, 15.995),)
    assert peptides[0].protein_id == 3


def test_roundtrip_settings_path(tmp_path):
    settings = SLMIndexSettings(
        resolution=0.02,
        fragment_tolerance=0.1,
        shared_peak_threshold=3,
        precursor_tolerance=5.0,
        fragmentation=FragmentationSettings(charges=(1, 2), include_b=False),
    )
    idx = index_over(PEPTIDES, settings)
    _, loaded = load_index(save_index(tmp_path / "s.npz", idx, PEPTIDES))
    assert loaded.settings == settings


def test_loaded_filters_identically(tmp_path, index):
    from repro.chem.fragments import fragment_mzs
    from repro.spectra.model import Spectrum

    _, loaded = load_index(save_index(tmp_path / "idx.npz", index, PEPTIDES))
    mzs = fragment_mzs(PEPTIDES[0])
    q = Spectrum(1, 500.0, 2, mzs, np.ones_like(mzs))
    a, b = index.filter(q), loaded.filter(q)
    assert np.array_equal(a.candidates, b.candidates)
    assert np.array_equal(a.shared_peaks, b.shared_peaks)
    assert a.ions_scanned == b.ions_scanned


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_archive_with_int64_offsets_still_loads(tmp_path, index, mmap_mode):
    """Archives written before the offsets became int32 filter identically."""
    from repro.chem.fragments import fragment_mzs
    from repro.spectra.model import Spectrum

    assert index.bucket_offsets.dtype == np.int32
    path = save_index(tmp_path / "idx.npz", index, PEPTIDES, compress=False)
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    fields["bucket_offsets"] = fields["bucket_offsets"].astype(np.int64)
    np.savez(tmp_path / "old.npz", **fields)
    _, loaded = load_index(tmp_path / "old.npz", mmap_mode=mmap_mode)
    assert loaded.bucket_offsets.dtype == np.int64
    for peptide in PEPTIDES:
        mzs = fragment_mzs(peptide)
        q = Spectrum(1, 500.0, 2, mzs, np.ones_like(mzs))
        a, b = index.filter(q), loaded.filter(q)
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.shared_peaks, b.shared_peaks)
        assert (a.ions_scanned, a.buckets_scanned) == (b.ions_scanned, b.buckets_scanned)


def test_empty_index_roundtrip(tmp_path):
    idx = index_over([], SLMIndexSettings())
    peptides, loaded = load_index(save_index(tmp_path / "e.npz", idx, []))
    assert peptides == []
    assert len(loaded) == 0
    assert loaded.n_ions == 0


def test_missing_field_rejected(tmp_path):
    np.savez(tmp_path / "bad.npz", settings=np.array("{}"))
    with pytest.raises((FormatError, Exception)):
        load_index(tmp_path / "bad.npz")


def test_bad_version_rejected(tmp_path, index):
    import json

    path = save_index(tmp_path / "idx.npz", index, PEPTIDES)
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    payload = json.loads(str(fields["settings"]))
    payload["version"] = 99
    fields["settings"] = np.array(json.dumps(payload))
    np.savez(tmp_path / "v99.npz", **fields)
    with pytest.raises(FormatError, match="version"):
        load_index(tmp_path / "v99.npz")


# -- zero-copy (memmap) loading ----------------------------------------


def test_mmap_roundtrip_bit_identical(tmp_path, index):
    path = save_index(tmp_path / "flat.npz", index, PEPTIDES, compress=False)
    _, loaded = load_index(path, mmap_mode="r")
    assert isinstance(loaded.ion_parents, np.memmap)
    assert isinstance(loaded.bucket_offsets, np.memmap)
    assert isinstance(loaded.masses, np.memmap)
    assert np.array_equal(loaded.ion_parents, index.ion_parents)
    assert np.array_equal(loaded.bucket_offsets, index.bucket_offsets)
    assert np.array_equal(loaded.masses, index.masses)
    assert loaded.ion_parents.dtype == index.ion_parents.dtype


def test_mmap_views_reject_writes(tmp_path, index):
    path = save_index(tmp_path / "flat.npz", index, PEPTIDES, compress=False)
    _, loaded = load_index(path, mmap_mode="r")
    with pytest.raises(ValueError):
        loaded.ion_parents[0] = 1


def test_mmap_loaded_filters_identically(tmp_path, index):
    from repro.chem.fragments import fragment_mzs
    from repro.spectra.model import Spectrum

    path = save_index(tmp_path / "flat.npz", index, PEPTIDES, compress=False)
    _, loaded = load_index(path, mmap_mode="r")
    mzs = fragment_mzs(PEPTIDES[0])
    q = Spectrum(1, 500.0, 2, mzs, np.ones_like(mzs))
    a, b = index.filter(q), loaded.filter(q)
    assert np.array_equal(a.candidates, b.candidates)
    assert np.array_equal(a.shared_peaks, b.shared_peaks)


def test_mmap_of_compressed_archive_rejected(tmp_path, index):
    path = save_index(tmp_path / "packed.npz", index, PEPTIDES, compress=True)
    with pytest.raises(FormatError, match="compress"):
        load_index(path, mmap_mode="r")


def test_mmap_mode_validated(tmp_path, index):
    path = save_index(tmp_path / "flat.npz", index, PEPTIDES, compress=False)
    with pytest.raises(ConfigurationError):
        load_index(path, mmap_mode="r+")


def test_save_rejects_a_peptide_table_of_the_wrong_length(tmp_path, index):
    with pytest.raises(ConfigurationError, match="peptide table"):
        save_index(tmp_path / "short.npz", index, PEPTIDES[:2])
    with pytest.raises(ConfigurationError, match="peptide table"):
        save_index(tmp_path / "long.npz", index, PEPTIDES + PEPTIDES[:1])
    assert not (tmp_path / "short.npz").exists()
