"""SharedSpectraStore: spill → reopen bit-identity and safety rails.

A spilled query batch must reopen as exactly the spectra that went in
(scan ids, precursors, charges, peaks, ground-truth labels), with the
peak arrays backed read-only by the store's files — that is what lets
N resident workers share one physical copy per batch.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FormatError
from repro.parallel import SharedSpectraStore
from repro.spectra.preprocess import preprocess_batch


@pytest.fixture(scope="module")
def spilled(tiny_spectra, tmp_path_factory):
    directory = tmp_path_factory.mktemp("spectra") / "batch"
    processed = preprocess_batch(tiny_spectra)
    store = SharedSpectraStore.spill(processed, directory)
    return processed, store


def test_roundtrip_is_bit_identical(spilled):
    processed, store = spilled
    reopened = SharedSpectraStore.open(store.directory).load()
    assert len(reopened) == len(processed)
    for a, b in zip(processed, reopened):
        assert a.scan_id == b.scan_id
        assert a.precursor_mz == b.precursor_mz
        assert a.charge == b.charge
        assert a.true_peptide == b.true_peptide
        assert np.array_equal(a.mzs, b.mzs)
        assert np.array_equal(a.intensities, b.intensities)


def test_loaded_peaks_are_readonly_memmaps(spilled):
    processed, store = spilled
    spectra = store.load(mmap_mode="r")
    with pytest.raises((ValueError, RuntimeError)):
        spectra[0].mzs[0] = 1.0
    # Copy-on-write mode scribbles on private pages, never the store.
    cow = store.load(mmap_mode="c")
    original = float(cow[0].mzs[0])
    cow[0].mzs[0] = original + 1.0
    fresh = store.load(mmap_mode="r")
    assert float(fresh[0].mzs[0]) == original == float(processed[0].mzs[0])


def test_invalid_mmap_mode_rejected(spilled):
    _, store = spilled
    with pytest.raises(ConfigurationError, match="mmap_mode"):
        store.load(mmap_mode="r+")


def test_manifest_counts(spilled):
    processed, store = spilled
    assert store.n_spectra == len(processed)
    assert store.n_peaks == sum(s.n_peaks for s in processed)
    # Peak payload dominates the on-disk footprint.
    assert store.nbytes() >= 16 * store.n_peaks


def test_empty_batch_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="empty"):
        SharedSpectraStore.spill([], tmp_path / "empty")


def test_open_requires_manifest(tmp_path):
    with pytest.raises(FormatError, match="missing manifest"):
        SharedSpectraStore.open(tmp_path)
    assert not SharedSpectraStore.exists(tmp_path)


def test_missing_array_file_is_diagnosed(spilled, tmp_path):
    processed, _ = spilled
    directory = tmp_path / "torn"
    store = SharedSpectraStore.spill(processed, directory)
    (directory / "mzs.npy").unlink()
    with pytest.raises(FormatError, match="missing"):
        store.load()


def test_truncated_column_is_refused_not_sliced(spilled, tmp_path):
    """load() rebuilds spectra without re-validating their values, so a
    column that no longer matches the offset table must be caught by
    the structural check."""
    processed, _ = spilled
    directory = tmp_path / "short"
    store = SharedSpectraStore.spill(processed, directory)
    mzs = np.load(directory / "mzs.npy")
    np.save(directory / "mzs.npy", mzs[:-1])
    with pytest.raises(FormatError, match="torn"):
        store.load()
