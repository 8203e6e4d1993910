"""The bigraded mod-2 model, its Bockstein, and the mod-2 cycle image."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics.errors import InvalidIndex
from etale_quadrics.mod2 import (
    bockstein,
    cycle_image_mod2,
    rost_etale_mod2,
    top_rho_exponent,
)
from etale_quadrics.rost import chow_torsion_degrees


def test_bockstein_fixtures_n2():
    assert bockstein(2, 1, 2) == (3, 0)
    assert bockstein(1, 2, 2) is None  # even tau exponent
    assert bockstein(6, 1, 2) is None  # killed by the truncation
    assert bockstein(0, 3, 2) == (1, 2)


def test_bockstein_rejects_truncated_input():
    with pytest.raises(ValueError):
        bockstein(7, 0, 2)


def test_bockstein_rejects_negative_exponents_and_bad_index():
    with pytest.raises(ValueError):
        bockstein(-1, 1, 2)
    with pytest.raises(ValueError):
        bockstein(0, -1, 2)
    with pytest.raises(InvalidIndex):
        bockstein(0, 1, 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 14), st.integers(0, 12))
def test_bockstein_squares_to_zero(n, a, b):
    if a > top_rho_exponent(n):
        a = a % (top_rho_exponent(n) + 1)
    first = bockstein(a, b, n)
    if first is not None:
        assert bockstein(*first, n) is None


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 30))
def test_bockstein_injective_on_sources_below_boundary(n, q):
    top = top_rho_exponent(n)
    images = []
    for a in range(0, min(q, top) + 1):
        out = bockstein(a, q - a, n)
        if out is not None:
            images.append(out)
    assert len(images) == len(set(images))


def test_module_region_and_dimensions():
    """The model has one monomial rho^a tau^b per exponent pair with
    a <= top; the Bockstein takes exactly those pairs."""
    assert bockstein(0, 0, 2) is None
    assert bockstein(3, 2, 2) is None
    assert bockstein(6, 0, 2) is None
    with pytest.raises(ValueError):
        bockstein(7, 2, 2)  # beyond the rho truncation


def test_mod2_ring_small_indices():
    r1 = rost_etale_mod2(1)
    assert [(e.degree, e.order, e.label) for e in r1.entries] == [
        (0, 2, "1"), (1, 2, "rho"), (2, 2, "rho^2"),
    ]
    r2 = rost_etale_mod2(2)
    assert [e.degree for e in r2.entries] == list(range(7))
    assert [e.algebraic for e in r2.entries] == [True, False, False, False, True, False, True]
    assert r2.entries[6].label == "rho^6" and {e.source for e in r2.entries} == {(2, 0)}
    r3 = rost_etale_mod2(3)
    assert len(r3.entries) == 15
    with pytest.raises(InvalidIndex):
        rost_etale_mod2(0)


def test_mod2_entries_share_one_source():
    """Every entry of a mod-2 Rost table holds the same (n, 0) tuple, not a
    copy of its own."""
    for n in range(1, 11):
        entries = rost_etale_mod2(n).entries
        assert entries[0].source == (n, 0)
        assert all(e.source is entries[0].source for e in entries), n


def test_cycle_image_degrees():
    assert cycle_image_mod2(1) == {0, 2}
    assert cycle_image_mod2(2) == {0, 4, 6}
    assert cycle_image_mod2(3) == {0, 8, 12, 14}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8))
def test_cycle_image_is_the_unit_the_top_and_the_chow_torsion(n):
    """The mod-2 image and the 2-adic closed form state the Chow degrees
    separately; they must agree."""
    top = top_rho_exponent(n)
    assert cycle_image_mod2(n) == {0, top} | set(chow_torsion_degrees(n))
    assert {e.degree for e in rost_etale_mod2(n).entries if e.algebraic} == cycle_image_mod2(n)


def unflagged_degrees(n):
    """The degrees the mod-2 table flags not algebraic (printed as NO)."""
    return {e.degree for e in rost_etale_mod2(n).entries if not e.algebraic}


def test_nonalgebraic_degrees():
    assert unflagged_degrees(2) == {1, 2, 3, 5}
    assert unflagged_degrees(3) == set(range(1, 15)) - {8, 12, 14}
    assert unflagged_degrees(1) == {1}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8))
def test_nonalgebraic_count(n):
    assert len(unflagged_degrees(n)) == top_rho_exponent(n) - n
