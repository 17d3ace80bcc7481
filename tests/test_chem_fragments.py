"""Tests for theoretical b/y fragment generation.

The property suite at the end pins the batched kernel
(:func:`fragment_mzs_batch`, which :func:`fragment_mzs` also runs) to
:func:`per_peptide_fragments`, a **test-only** copy of the per-peptide
loop it replaced, byte for byte.  The numpy seed is an explicit
Hypothesis argument and ``print_blob`` prints the reproduction
decorator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.chem.fragments import (
    FRAGMENT_BLOCK,
    FragmentationSettings,
    fragment_mzs,
    fragment_mzs_batch,
    theoretical_spectrum,
)
from repro.chem.peptide import Peptide
from repro.constants import AA_MONO, ALPHABET, PROTON, WATER_MONO
from repro.errors import ConfigurationError, InvalidSequenceError

SEQUENCES = st.text(alphabet=ALPHABET, min_size=2, max_size=30)


def test_dipeptide_fragments_by_hand():
    # AG: b1 = A + proton; y1 = G + water + proton.
    mzs = fragment_mzs(Peptide("AG"))
    expected = sorted(
        [AA_MONO["A"] + PROTON, AA_MONO["G"] + WATER_MONO + PROTON]
    )
    assert np.allclose(mzs, expected)


def test_fragment_count_b_and_y():
    pep = Peptide("PEPTIDEK")
    mzs = fragment_mzs(pep)
    assert mzs.size == 2 * (pep.length - 1)


def test_single_residue_has_no_fragments():
    assert fragment_mzs(Peptide("K")).size == 0


def test_fragments_sorted():
    mzs = fragment_mzs(Peptide("PEPTIDEKR"))
    assert np.all(np.diff(mzs) >= 0)


def test_modification_shifts_prefix_fragments():
    plain = fragment_mzs(Peptide("AGK"))
    modded = fragment_mzs(Peptide("AGK", ((0, 10.0),)))
    # b1 and b2 shift by +10; y1, y2 unchanged -> sets differ.
    assert not np.allclose(np.sort(plain), np.sort(modded))
    # Total ion count unchanged.
    assert plain.size == modded.size


def test_mod_on_terminal_residue_shifts_y_series():
    plain = set(np.round(fragment_mzs(Peptide("AGK")), 6))
    modded = set(np.round(fragment_mzs(Peptide("AGK", ((2, 10.0),))), 6))
    shifted = {round(m + 10.0, 6) for m in plain}
    # y ions shift, b ions do not; intersection keeps the b series.
    assert plain & modded  # unshifted b ions survive
    assert modded & shifted  # shifted y ions appear


def test_charge_two_fragments():
    s1 = FragmentationSettings(charges=(1,))
    s2 = FragmentationSettings(charges=(1, 2))
    pep = Peptide("PEPTIDEK")
    assert fragment_mzs(pep, s2).size == 2 * fragment_mzs(pep, s1).size


def test_b_only_and_y_only():
    pep = Peptide("PEPTIDEK")
    b = fragment_mzs(pep, FragmentationSettings(include_y=False))
    y = fragment_mzs(pep, FragmentationSettings(include_b=False))
    both = fragment_mzs(pep)
    assert b.size == y.size == pep.length - 1
    assert np.allclose(np.sort(np.concatenate([b, y])), both)


def test_invalid_settings_rejected():
    with pytest.raises(ConfigurationError):
        FragmentationSettings(charges=())
    with pytest.raises(ConfigurationError):
        FragmentationSettings(charges=(0,))
    with pytest.raises(ConfigurationError):
        FragmentationSettings(include_b=False, include_y=False)


def test_ions_per_residue():
    assert FragmentationSettings().ions_per_residue == 2.0
    assert FragmentationSettings(charges=(1, 2)).ions_per_residue == 4.0
    assert FragmentationSettings(include_y=False).ions_per_residue == 1.0


def test_theoretical_spectrum_shapes():
    mzs, intens = theoretical_spectrum(Peptide("PEPTIDEK"))
    assert mzs.shape == intens.shape
    assert intens.max() == 1.0
    assert np.all(intens > 0)


def test_theoretical_spectrum_empty_for_single_residue():
    mzs, intens = theoretical_spectrum(Peptide("K"))
    assert mzs.size == 0 and intens.size == 0


@given(SEQUENCES)
def test_b_y_sum_identity(seq):
    """b_i + y_(L-i) = precursor neutral mass + 2 protons + water...

    Precisely: b_i + y_{L-i} = M + 2*PROTON where M is the neutral
    peptide mass (b contributes prefix + proton, y contributes
    suffix + water + proton; prefix + suffix + water = M).
    """
    pep = Peptide(seq)
    settings = FragmentationSettings()
    b = fragment_mzs(pep, FragmentationSettings(include_y=False))
    y = fragment_mzs(pep, FragmentationSettings(include_b=False))
    total = pep.mass + 2 * PROTON
    # b ions ascend with prefix length; y ions ascend with suffix length,
    # so pair b_i with y_{L-i} = sorted(y)[L-1-i-1]... simplest: check sums
    # as multisets.
    sums = np.sort(b)[:, None] + np.sort(y)[None, ::-1]
    diag = np.diagonal(sums)
    assert np.allclose(diag, total, atol=1e-6)


@given(SEQUENCES)
def test_fragments_positive_and_bounded(seq):
    pep = Peptide(seq)
    mzs = fragment_mzs(pep)
    assert np.all(mzs > 0)
    assert np.all(mzs < pep.mass + 2 * PROTON)


# -- property suite: the batched kernel == the per-peptide loop --------


def per_peptide_fragments(sequence, mods, settings):
    """The per-peptide fragment loop the batched kernel replaced."""
    if len(sequence) < 2:
        return np.empty(0, dtype=np.float64)
    residue = np.fromiter(
        (AA_MONO[aa] for aa in sequence), dtype=np.float64, count=len(sequence)
    )
    for pos, delta in mods:
        residue[pos] += delta
    cumulative = np.cumsum(residue)
    total = cumulative[-1]
    prefix_neutral = cumulative[:-1]
    pieces = []
    for z in settings.charges:
        if settings.include_b:
            pieces.append((prefix_neutral + z * PROTON) / z)
        if settings.include_y:
            suffix_neutral = total - prefix_neutral + WATER_MONO
            pieces.append((suffix_neutral + z * PROTON) / z)
    mzs = np.concatenate(pieces)
    mzs.sort()
    return mzs


def assert_batch_matches_loop(sequences, mods, settings):
    mzs, offsets = fragment_mzs_batch(sequences, mods, settings)
    expected = [per_peptide_fragments(s, m, settings) for s, m in zip(sequences, mods)]
    assert offsets.tolist() == np.cumsum([0] + [e.size for e in expected]).tolist()
    flat = np.concatenate(expected) if expected else np.empty(0, dtype=np.float64)
    assert mzs.dtype == np.float64 and offsets.dtype == np.int64
    assert mzs.tobytes() == flat.tobytes()


SETTINGS = [
    FragmentationSettings(charges=(1,)),
    FragmentationSettings(charges=(1, 2)),
    FragmentationSettings(charges=(2, 3)),
    FragmentationSettings(include_y=False),
    FragmentationSettings(charges=(1, 2), include_b=False),
]
DELTAS = [15.994915, 79.966331, 0.984016, -17.026549, 42.010565]


def random_entries(rng, n, max_length):
    """Sequences of length 0..max_length with 0-3 mods each (stacked
    mods on one residue and both termini drawn often)."""
    sequences, mods = [], []
    for _ in range(n):
        length = int(rng.integers(0, max_length + 1))
        seq = "".join(rng.choice(list(ALPHABET), size=length))
        row = []
        for _ in range(int(rng.integers(0, 4)) if length else 0):
            pos = int(rng.choice([0, length - 1, rng.integers(0, length)]))
            delta = float(rng.choice(DELTAS)) if rng.random() < 0.7 else float(rng.normal(0, 50))
            row.append((pos, delta))
            if rng.random() < 0.3:
                row.append((pos, float(rng.choice(DELTAS))))  # two mods, one residue
        sequences.append(seq)
        mods.append(tuple(row))
    return sequences, mods


@hsettings(max_examples=80, deadline=None, print_blob=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    max_length=st.sampled_from([0, 1, 2, 6, 40, 70]),
    settings=st.sampled_from(SETTINGS),
)
def test_batch_kernel_equals_per_peptide_loop(seed, n, max_length, settings):
    sequences, mods = random_entries(np.random.default_rng(seed), n, max_length)
    assert_batch_matches_loop(sequences, mods, settings)


@pytest.mark.parametrize("settings", SETTINGS)
def test_batch_kernel_edge_rows(settings):
    sequences = ["", "K", "AG", "PEPTIDEK", "AGK", "AGK", "AGK", "M"]
    mods = [(), (), ((1, 10.0),), ((0, 15.994915),), ((2, 10.0),),
            ((1, 42.010565), (1, 15.994915)), ((0, 1.0), (2, -1.0)), ((0, 15.9),)]
    assert_batch_matches_loop(sequences, mods, settings)
    assert_batch_matches_loop([], [], settings)


@pytest.mark.parametrize("n", [FRAGMENT_BLOCK - 1, FRAGMENT_BLOCK, FRAGMENT_BLOCK + 1])
def test_batch_kernel_block_boundaries(n):
    sequences, mods = random_entries(np.random.default_rng(n), n, 30)
    assert_batch_matches_loop(sequences, mods, FragmentationSettings(charges=(1, 2)))


def test_fragment_mzs_is_the_one_row_kernel():
    pep = Peptide("PEPTIDEK", ((0, 15.994915), (7, 42.010565)))
    got = fragment_mzs(pep, SETTINGS[1])
    assert got.tobytes() == per_peptide_fragments(pep.sequence, pep.mods, SETTINGS[1]).tobytes()


def test_batch_kernel_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        fragment_mzs_batch(["AGK", "AGK"], [()])
    with pytest.raises(InvalidSequenceError):
        fragment_mzs_batch(["AGK", "AXK"], [(), ()])
