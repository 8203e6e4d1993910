"""Closed-form Rost tables: Chow torsion degrees, the 2-adic table with
its algebraicity flags, and the non-algebraic quotient."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics.rost import (
    chow_torsion_degrees,
    nonalgebraic_quotient,
    rost_etale_table,
)


def test_library_has_no_index_cap():
    top = rost_etale_table(11).entries[-1]
    assert (top.degree, top.label) == (4094, "pi")


def test_etale_table_fixtures():
    t3 = rost_etale_table(3)
    assert [e.degree for e in t3.torsion_entries] == [4, 8, 12]
    assert [e.degree for e in t3.entries if e.order == 0] == [0, 14]
    t2 = rost_etale_table(2)
    assert [e.degree for e in t2.torsion_entries] == [4]
    assert [e.degree for e in t2.entries if e.order == 0] == [0, 6]
    t4 = rost_etale_table(4)
    assert [e.degree for e in t4.torsion_entries] == [4, 8, 12, 16, 20, 24, 28]
    assert [e.degree for e in t4.entries if e.order == 0] == [0, 30]
    assert {e.source for e in t4.entries} == {(4, 0)}


def test_twist_parities(capsys):
    """The twist column the table writer prints: the parity of c/2."""
    from etale_quadrics import cli

    assert cli.main(["cohomology", "--rost", "3", "--coeff", "2adic", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    unit, pi = [r for r in records if r["order"] == 0]
    assert unit["twist"] == 0
    assert pi["twist"] == 1  # the top degree is 2 mod 4
    assert all(r["twist"] == 0 for r in records if r["order"] == 2)  # torsion sits in 0 mod 4


def test_cycle_image_fixtures():
    assert chow_torsion_degrees(3) == (12, 8)
    assert chow_torsion_degrees(2) == (4,)
    assert set(chow_torsion_degrees(5)) == {32, 48, 56, 60}


def test_algebraic_flags_follow_the_cycle_image():
    for n in (2, 3, 4, 5):
        table = rost_etale_table(n)
        assert all(e.algebraic for e in table.entries if e.order == 0)
        algebraic = set(chow_torsion_degrees(n))
        for e in table.torsion_entries:
            assert e.algebraic == (e.degree in algebraic)


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
    pi = [e for e in rost_etale_table(n).entries if e.order == 0][-1]
    assert 4 * 2 ** (n - 1) > pi.degree  # the next power would truncate
