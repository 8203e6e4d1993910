"""Closed-form Rost tables: Chow ring, 2-adic table, cycle image,
non-algebraic quotient, complex realization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics.errors import InvalidIndex
from etale_quadrics.rost import (
    chow_ring,
    chow_torsion_degrees,
    complex_realization,
    cycle_image_2adic,
    nonalgebraic_quotient,
    rost_etale_table,
    torsion_degrees,
)


def test_library_has_no_index_cap():
    assert rost_etale_table(11).top_degree == 4094


def test_chow_ring_fixtures():
    c2 = chow_ring(2)
    assert {(e.label, e.degree, e.order) for e in c2.entries} == {
        ("1", 0, 0),
        ("c0", 6, 0),
        ("c1", 4, 2),
    }
    c3 = chow_ring(3)
    assert {(e.label, e.degree) for e in c3.torsion_entries} == {("c1", 12), ("c2", 8)}
    c1 = chow_ring(1)
    assert {(e.label, e.degree) for e in c1.entries} == {("1", 0), ("c0", 2)}
    with pytest.raises(InvalidIndex):
        chow_ring(0)


def test_etale_table_fixtures():
    t3 = rost_etale_table(3)
    assert [e.degree for e in t3.torsion] == [4, 8, 12]
    assert [e.degree for e in t3.free] == [0, 14]
    t2 = rost_etale_table(2)
    assert [e.degree for e in t2.torsion] == [4]
    assert [e.degree for e in t2.free] == [0, 6]
    t4 = rost_etale_table(4)
    assert [e.degree for e in t4.torsion] == [4, 8, 12, 16, 20, 24, 28]
    assert [e.degree for e in t4.free] == [0, 30]


def test_twist_parities():
    t3 = rost_etale_table(3)
    unit, pi = t3.free
    assert unit.twist == 0
    assert pi.twist == 1  # the top degree is 2 mod 4
    assert all(e.twist == 0 for e in t3.torsion)  # torsion sits in 0 mod 4


def test_cycle_image_fixtures():
    assert cycle_image_2adic(3).algebraic_torsion_degrees == (12, 8)
    assert cycle_image_2adic(2).algebraic_torsion_degrees == (4,)
    assert set(cycle_image_2adic(5).algebraic_torsion_degrees) == {32, 48, 56, 60}
    assert dict(cycle_image_2adic(3).generator_map) == {
        "1": "1",
        "c0": "pi",
        "c1": "rho_bar_12",
        "c2": "rho_bar_8",
    }


def test_algebraic_flags_follow_the_cycle_image():
    for n in (2, 3, 4, 5):
        table = rost_etale_table(n)
        assert all(e.algebraic for e in table.free)
        algebraic = set(cycle_image_2adic(n).algebraic_torsion_degrees)
        for e in table.torsion:
            assert e.algebraic == (e.degree in algebraic)


def test_cycle_classes_match_chow_degrees():
    """The cycle map is a degree-preserving bijection on generators."""
    for n in (2, 3, 4, 5, 6):
        chow_torsion = {e.degree for e in chow_ring(n).torsion_entries}
        assert set(chow_torsion_degrees(n)) == chow_torsion
        assert set(cycle_image_2adic(n).algebraic_torsion_degrees) == chow_torsion


def test_nonalgebraic_quotient_fixtures():
    assert nonalgebraic_quotient(3) == (4,)
    assert nonalgebraic_quotient(4) == (4, 8, 12, 20)
    assert nonalgebraic_quotient(2) == ()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9))
def test_nonalgebraic_quotient_count(n):
    count = len(nonalgebraic_quotient(n))
    assert count == (2 ** (n - 1) - 1) - (n - 1)
    assert (count == 0) == (n <= 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9))
def test_torsion_is_a_truncated_power_ring(n):
    """rho_bar_4^m sits in degree 4m and the power 2^(n-1) vanishes."""
    table = rost_etale_table(n)
    assert table.ring_power_degrees() == torsion_degrees(n)
    assert 4 * 2 ** (n - 1) > table.top_degree  # the next power would truncate


def test_complex_realization():
    c = complex_realization(2)
    assert {(e.label, e.degree) for e in c.classes.entries} == {("1", 0), ("y", 6)}
    res = dict((src, (k, dst)) for src, k, dst in c.restriction)
    assert res["c0"] == (2, "y")
    assert res["rho"] == (0, "")
    assert res["rho_bar_4"] == (0, "")
    assert c.rational_chow_labels == ("1", "c0")
    assert c.mod2_image_labels == ("1",)
    c3 = complex_realization(3)
    assert all(k == 0 for src, k, _ in c3.restriction if src.startswith("rho_bar"))
