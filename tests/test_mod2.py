"""The bigraded mod-2 model, its Bockstein, and the mod-2 cycle image."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics.errors import InvalidIndex
from etale_quadrics.mod2 import (
    BigradedF2Module,
    Monomial,
    bockstein,
    cycle_image_mod2,
    nonalgebraic_mod2_degrees,
    rost_etale_mod2,
    top_rho_exponent,
)


def test_bockstein_fixtures_n2():
    assert bockstein(Monomial(2, 1), 2) == Monomial(3, 0)
    assert bockstein(Monomial(1, 2), 2) is None  # even tau exponent
    assert bockstein(Monomial(6, 1), 2) is None  # killed by the truncation
    assert bockstein(Monomial(0, 3), 2) == Monomial(1, 2)


def test_bockstein_rejects_truncated_input():
    with pytest.raises(ValueError):
        bockstein(Monomial(7, 0), 2)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 14), st.integers(0, 12))
def test_bockstein_squares_to_zero(n, a, b):
    if a > top_rho_exponent(n):
        a = a % (top_rho_exponent(n) + 1)
    first = bockstein(Monomial(a, b), n)
    if first is not None:
        assert bockstein(first, n) is None


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 30))
def test_bockstein_injective_on_sources_below_boundary(n, q):
    top = top_rho_exponent(n)
    images = []
    for a in range(0, min(q, top) + 1):
        m = Monomial(a, q - a)
        out = bockstein(m, n)
        if out is not None:
            images.append(out)
    assert len(images) == len(set(images))


def test_module_region_and_dimensions():
    mod = BigradedF2Module(2)
    assert mod.dimension(0, 0) == 1
    assert mod.dimension(3, 5) == 1
    assert mod.dimension(7, 9) == 0  # beyond the rho truncation
    assert mod.dimension(6, 6) == 1
    with pytest.raises(ValueError):
        mod.dimension(3, 2)  # outside the modeled region


def test_monomial_labels():
    assert Monomial(0, 0).label() == "1"
    assert Monomial(1, 0).label() == "rho"
    assert Monomial(2, 3).label() == "rho^2*tau^3"
    assert Monomial(0, 1).label() == "tau"


def test_mod2_ring_small_indices():
    r1 = rost_etale_mod2(1)
    assert list(r1.degrees()) == [0, 1, 2]
    r2 = rost_etale_mod2(2)
    assert [r2.dimension(c) for c in range(8)] == [1] * 7 + [0]
    assert r2.basis_label(0) == "1" and r2.basis_label(6) == "rho^6"
    r3 = rost_etale_mod2(3)
    assert len(list(r3.degrees())) == 15
    with pytest.raises(InvalidIndex):
        rost_etale_mod2(0)


def test_cycle_image_degrees():
    assert cycle_image_mod2(1).degrees == {0, 2}
    assert cycle_image_mod2(2).degrees == {0, 4, 6}
    assert cycle_image_mod2(3).degrees == {0, 8, 12, 14}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8))
def test_cycle_image_weight_bookkeeping(n):
    for c in cycle_image_mod2(n).classes:
        assert c.degree + c.tau_exponent == c.chow_weight
        if c.chow_index is not None:
            assert c.degree == 2 ** (n + 1) - 2 ** (c.chow_index + 1)
            assert c.degree % 2 == 0
            assert c.degree // 2 >= c.chow_weight


def test_nonalgebraic_degrees():
    assert nonalgebraic_mod2_degrees(2) == {1, 2, 3, 5}
    assert nonalgebraic_mod2_degrees(3) == set(range(1, 15)) - {8, 12, 14}
    assert nonalgebraic_mod2_degrees(1) == {1}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8))
def test_nonalgebraic_count(n):
    assert len(nonalgebraic_mod2_degrees(n)) == top_rho_exponent(n) - n
