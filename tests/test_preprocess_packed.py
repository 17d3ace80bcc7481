"""Property suite: the packed preprocessing kernel equals the reference.

:func:`~repro.spectra.preprocess.preprocess_packed` validates, masks,
picks and normalises a whole batch in array passes over its packed
columns.  Pinned here, byte for byte, to the per-spectrum reference
:func:`~repro.spectra.preprocess.preprocess_spectrum`: the same peaks,
in the same order, with the same normalised values — and the columns
equal to packing the reference's output.  Invalid batches raise the
same error class the ``Spectrum`` constructor raises for the same
values.

Inputs are drawn by Hypothesis (the numpy seed is an explicit argument,
so a falsifying example prints it, and ``print_blob`` adds the
reproduction decorator).
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings as hsettings, strategies as st

from repro.errors import InvalidSpectrumError
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra
from repro.spectra.preprocess import (
    PreprocessConfig,
    preprocess_batch,
    preprocess_packed,
    preprocess_spectrum,
)

PROPERTY = hsettings(max_examples=300, deadline=None, print_blob=True)

#: Post-construction writes that leave a batch valid.
VALID = ["none", "nan m/z", "nan m/z at construction", "unsorted", "unsorted + nan m/z"]
#: Post-construction writes the kernel must refuse.
INVALID = [
    "zero m/z",
    "+inf m/z",
    "negative intensity",
    "NaN intensity",
    "infinite intensity",
    "NaN precursor",
    "infinite precursor",
    "charge 0",
    "length mismatch",
]


def draw_spectrum(rng, scan_id, k, intensity_mode, nan_at_construction):
    n = int(rng.choice([0, 1, max(k - 1, 0), k, k + 1, 2 * k + 3, 40]))
    if rng.random() < 0.5:  # a coarse grid: duplicate m/z values
        mzs = rng.integers(1, 12, n).astype(float) * 75.0
    else:
        mzs = rng.uniform(50.0, 2000.0, n)
    if intensity_mode == "zero":
        intensities = np.zeros(n)
    elif intensity_mode == "ties":  # ties at every cut
        intensities = rng.integers(0, 4, n).astype(float)
    else:
        intensities = rng.uniform(0.0, 10.0, n)
    if nan_at_construction and n:
        mzs[rng.integers(0, n, max(2, n // 3))] = np.nan
    return Spectrum(
        scan_id=scan_id,
        precursor_mz=float(rng.uniform(200.0, 2500.0)),
        charge=int(rng.integers(1, 5)),
        mzs=mzs,
        intensities=intensities,
        true_peptide=int(rng.integers(0, 100)) if rng.random() < 0.5 else None,
    )


def write_after_construction(rng, batch, kind):
    """Apply ``kind`` to the spectra in place, as a caller's write would."""
    with_peaks = [s for s in batch if s.n_peaks]
    if kind in ("nan m/z", "unsorted + nan m/z"):
        for s in with_peaks:
            s.mzs[rng.integers(0, s.n_peaks, max(2, s.n_peaks // 3))] = np.nan
    if kind in ("unsorted", "unsorted + nan m/z"):
        for s in with_peaks:
            order = rng.permutation(s.n_peaks)
            s.mzs[:] = s.mzs[order]
            s.intensities[:] = s.intensities[order]
    if kind not in INVALID:
        return True
    if kind in ("NaN precursor", "infinite precursor", "charge 0"):
        victim = batch[int(rng.integers(0, len(batch)))]
        if kind == "charge 0":
            victim.charge = 0
        else:
            victim.precursor_mz = np.nan if kind == "NaN precursor" else np.inf
        return False
    if not with_peaks:
        return True  # nothing to corrupt: the batch stays valid
    victim = with_peaks[int(rng.integers(0, len(with_peaks)))]
    j = int(rng.integers(0, victim.n_peaks))
    if kind in ("zero m/z", "+inf m/z"):
        victim.mzs[j] = 0.0 if kind == "zero m/z" else np.inf
    elif kind == "length mismatch":
        victim.intensities = victim.intensities[:-1]
    else:
        victim.intensities[j] = {
            "negative intensity": -1.0,
            "NaN intensity": np.nan,
            "infinite intensity": np.inf,
        }[kind]
    return False


def assert_columns_identical(got: PackedSpectra, want: PackedSpectra):
    for field in fields(PackedSpectra):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_spectra=st.integers(0, 8),
    top_peaks=st.integers(1, 12),
    min_mz=st.sampled_from([0.0, 150.0, 5000.0]),
    normalize=st.booleans(),
    intensity_mode=st.sampled_from(["uniform", "ties", "zero"]),
    kind=st.sampled_from(VALID + INVALID),
)
def test_packed_kernel_equals_per_spectrum_reference(
    seed, n_spectra, top_peaks, min_mz, normalize, intensity_mode, kind
):
    rng = np.random.default_rng(seed)
    config = PreprocessConfig(top_peaks=top_peaks, min_mz=min_mz, normalize=normalize)
    batch = [
        draw_spectrum(
            rng, i, top_peaks, intensity_mode, kind == "nan m/z at construction"
        )
        for i in range(n_spectra)
    ]
    if kind in INVALID and not batch:
        batch = [draw_spectrum(rng, 0, top_peaks, intensity_mode, False)]
    valid = write_after_construction(rng, batch, kind)
    event(f"{kind} ({'valid' if valid else 'invalid'})")
    if not valid:
        # The constructor's verdict on the same values, and the kernel's.
        with pytest.raises(InvalidSpectrumError):
            for s in batch:
                Spectrum(s.scan_id, s.precursor_mz, s.charge, s.mzs, s.intensities)
        with pytest.raises(InvalidSpectrumError):
            preprocess_packed(batch, config)
        return
    before = [(s.mzs.tobytes(), s.intensities.tobytes()) for s in batch]
    want = [preprocess_spectrum(s, config) for s in batch]
    packed = preprocess_packed(batch, config)
    assert packed.defect() is None
    assert_columns_identical(packed, PackedSpectra.from_spectra(want))
    for a, b in zip(want, preprocess_batch(batch, config)):
        assert (a.scan_id, a.precursor_mz, a.charge, a.true_peptide) == (
            b.scan_id, b.precursor_mz, b.charge, b.true_peptide,
        )
        assert a.mzs.tobytes() == b.mzs.tobytes()
        assert a.intensities.tobytes() == b.intensities.tobytes()
    # The input spectra are read, never written.
    assert before == [(s.mzs.tobytes(), s.intensities.tobytes()) for s in batch]


def test_nan_intensity_in_a_wide_spectrum_is_refused():
    """12 peaks, one NaN intensity, top 5: refused, never a zero-peak
    spectrum (the NaN used to poison the selection threshold)."""
    s = Spectrum(1, 500.0, 2, np.arange(1.0, 13.0) * 100.0, np.linspace(1.0, 2.0, 12))
    s.intensities[4] = np.nan
    with pytest.raises(InvalidSpectrumError, match="non-negative"):
        preprocess_batch([s], PreprocessConfig(top_peaks=5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mzs", [[100.0, np.inf], [100.0, np.inf, np.inf]])
def test_plus_inf_mz_is_refused_at_both_boundaries(mzs):
    """+inf m/z is refused as -inf is, by the constructor and by the
    packed kernel, before any sort check subtracts inf from inf."""
    mzs = np.array(mzs)
    with pytest.raises(InvalidSpectrumError, match=r"\+inf"):
        Spectrum(1, 500.0, 2, mzs, np.ones(mzs.size))
    s = Spectrum(1, 500.0, 2, np.arange(1.0, mzs.size + 1) * 100.0, np.ones(mzs.size))
    s.mzs[:] = mzs
    with pytest.raises(InvalidSpectrumError, match=r"\+inf"):
        preprocess_packed([s], PreprocessConfig())


def test_nan_mz_tied_at_the_cut_keeps_top_peaks():
    """NaN m/z values tied on intensity at the top-N cut: selection
    must still keep N peaks, as the reference does."""
    s = Spectrum(1, 500.0, 2, np.array([100.0, 200.0, np.nan, np.nan]), np.ones(4))
    config = PreprocessConfig(top_peaks=3)
    (got,) = preprocess_batch([s], config)
    assert got.n_peaks == 3
    assert got.mzs.tobytes() == preprocess_spectrum(s, config).mzs.tobytes()


def test_wide_segments_are_split_under_the_padding_budget(monkeypatch):
    """A batch whose padded matrix would exceed the budget is cut into
    width groups; the result does not change."""
    from repro.index import arena

    rng = np.random.default_rng(5)
    batch = [
        Spectrum(i, 500.0, 2, rng.uniform(50.0, 2000.0, n), rng.integers(0, 3, n).astype(float))
        for i, n in enumerate([3, 40, 7, 400, 12, 40])
    ]
    config = PreprocessConfig(top_peaks=5)
    want = preprocess_packed(batch, config)
    monkeypatch.setattr(arena, "_KTH_BUDGET", 64)
    assert_columns_identical(preprocess_packed(batch, config), want)
