"""Tests for the util subpackage (rng, tables)."""

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import derive_seed, rng_from
from repro.util.tables import format_table


# -- rng ------------------------------------------------------------------


def test_derive_seed_stable():
    assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)


def test_derive_seed_distinguishes_labels():
    seeds = {
        derive_seed(42),
        derive_seed(42, "a"),
        derive_seed(42, "b"),
        derive_seed(42, "a", 0),
        derive_seed(43, "a"),
    }
    assert len(seeds) == 5


def test_derive_seed_range():
    for s in (0, 1, 2**62, 123456789):
        assert 0 <= derive_seed(s, "x") < 2**63


def test_rng_from_reproducible():
    a = rng_from(7, "stream").random(5)
    b = rng_from(7, "stream").random(5)
    assert (a == b).all()


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=10))
def test_derive_seed_property(seed, label):
    v = derive_seed(seed, label)
    assert 0 <= v < 2**63
    assert v == derive_seed(seed, label)


# -- tables ----------------------------------------------------------------


def test_format_table_alignment():
    out = format_table(["name", "value"], [("x", 1.5), ("longer", 22.25)])
    lines = out.splitlines()
    assert len(lines) == 4  # header, sep, 2 rows
    widths = {len(l) for l in lines}
    assert len(widths) == 1  # all lines equal width


def test_format_table_title():
    out = format_table(["a"], [(1,)], title="Title")
    assert out.startswith("Title\n")


def test_format_table_float_fmt():
    out = format_table(["v"], [(1.23456,)], float_fmt=".2f")
    assert "1.23" in out and "1.2345" not in out


def test_format_table_bad_row():
    with pytest.raises(ValueError, match="cells"):
        format_table(["a", "b"], [(1,)])
