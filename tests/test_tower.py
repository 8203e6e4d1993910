"""The Bockstein pairing route: integral groups, finite-coefficient towers,
transition maps, and the 2-adic limit."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics.abelian import WINDOW, inverse_limit
from etale_quadrics.cli import MAX_INDEX
from etale_quadrics.errors import NotStabilized
from etale_quadrics.mod2 import bockstein, top_rho_exponent
from etale_quadrics.quadrics import rost_table
from etale_quadrics.rost import rost_etale_table
from etale_quadrics.tower import (
    MIN_DEPTH,
    CoefficientTower,
    _delta,
    etale_2adic,
    integral_cohomology,
    mod_2s_group,
    mod_2s_table,
    pairing,
    transition_maps,
    twist_bidegree,
)


def weight_lists(n, q):
    """The pairs (p - 1, p) and the free degrees of one weight, read off
    the per-bidegree rule at every degree p <= q + 1."""
    pairs = tuple((p - 1, p) for p in range(q + 2) if pairing(n, p, q)[1])
    free = tuple(p for p in range(q + 2) if pairing(n, p, q)[0])
    return pairs, free


def test_pairing_fixtures():
    assert weight_lists(2, 3) == (((0, 1), (2, 3)), ())
    # the truncation stops the last source
    assert weight_lists(2, 7) == (((0, 1), (2, 3), (4, 5)), (6,))
    assert weight_lists(2, 0) == ((), (0,))
    assert pairing(2, 6, 7) == (True, False) and pairing(2, 5, 7) == (False, True)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40))
def test_pairing_partitions_the_basis(n, q):
    """Every monomial of one weight is a source, a target, or free -
    exactly one of the three."""
    top = top_rho_exponent(n)
    basis = set(range(0, min(q, top) + 1))
    degrees = range(-1, q + 3)
    sources = {p - 1 for p in degrees if pairing(n, p, q)[1]}
    targets = {p for p in degrees if pairing(n, p, q)[1]}
    free = {p for p in degrees if pairing(n, p, q)[0]}
    assert sources | targets | free == basis
    assert not (sources & targets) and not (sources & free) and not (targets & free)
    # sources are exactly the monomials rho^a tau^(q-a) with nonzero Bockstein
    for a in basis:
        assert (bockstein(a, q - a, n) is not None) == (a in sources)


def test_integral_fixtures():
    assert integral_cohomology(2, 4, 4).labels == ("rho_bar_4",)
    assert integral_cohomology(2, 4, 4).structure() == (0, (2,))
    pi = integral_cohomology(2, 6, 7)
    assert pi.structure() == (1, ()) and pi.labels == ("pi",)
    one = integral_cohomology(2, 0, 0)
    assert one.structure() == (1, ()) and one.labels == ("1",)
    assert integral_cohomology(2, 2, 3).is_trivial
    assert integral_cohomology(2, 3, 3).labels == ("rho_bar_3",)


def test_integral_torsion_ladder():
    for n in (2, 3):
        for c in range(1, top_rho_exponent(n) + 1):
            assert integral_cohomology(n, c, c).structure() == (0, (2,))


def test_integral_region_guard():
    with pytest.raises(ValueError):
        integral_cohomology(2, 5, 3)
    with pytest.raises(ValueError, match="weight q must be an integer >= 0"):
        integral_cohomology(2, 0, -1)


def test_mod2s_region_guard():
    with pytest.raises(ValueError, match=r"outside the region p <= q"):
        mod_2s_group(2, 5, 4, 2)
    with pytest.raises(ValueError, match="coefficient level s must be an integer >= 1"):
        mod_2s_group(2, 2, 3, 0)


def test_tower_region_guards():
    """transition_maps and limit reject p > q with the mod_2s_group message;
    transition maps compare two levels, so they need s >= 2."""
    with pytest.raises(ValueError, match=r"\(5,4\) outside the region p <= q"):
        transition_maps(2, 5, 4, 2)
    with pytest.raises(ValueError, match=r"\(5,4\) outside the region p <= q"):
        CoefficientTower(2).limit(5, 4)
    with pytest.raises(ValueError, match="coefficient level s must be an integer >= 2"):
        transition_maps(2, 2, 3, 1)


def test_z4_orders():
    spots = ((0, 0), (2, 3), (4, 4), (6, 7))
    orders = [mod_2s_group(2, p, q, 2).torsion_orders for p, q in spots]
    assert orders == [(4,), (2,), (2,), (4,)]
    # the middle Z/2 at (2,3) is a ghost class
    assert mod_2s_group(2, 2, 3, 2).labels == ("ghost(rho_bar_3)",)


def test_tower_pattern_all_levels():
    for s in range(1, 9):
        assert mod_2s_group(2, 0, 0, s).torsion_orders == (2**s,)
        assert mod_2s_group(2, 2, 3, s).torsion_orders == (2,)
        assert mod_2s_group(2, 4, 4, s).torsion_orders == (2,)
        assert mod_2s_group(2, 6, 7, s).torsion_orders == (2**s,)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 12), st.integers(0, 1))
def test_level_one_matches_the_mod2_model(n, p, dq):
    """With s = 1 the universal-coefficient answer must have the same
    F2-dimension as the monomial basis: rho^p tau^(q-p) when p <= top."""
    q = p + dq
    grp = mod_2s_group(n, p, q, 1)
    dim = 1 if p <= top_rho_exponent(n) else 0
    assert len(grp.torsion_orders) == dim
    assert all(o == 2 for o in grp.torsion_orders)


def test_transitions_on_the_ghost_spot():
    for s in range(2, 9):
        t, r = transition_maps(2, 2, 3, s)
        assert r.is_zero  # the ghost class dies under reduction
        assert t.matrix == ((1,),)  # ghosts propagate up the tower
    delta = _delta(2, 2, 3, 2)
    # the connecting map hits the integral torsion class one degree up
    assert delta.codomain.labels == ("rho_bar_3",)
    assert not delta.is_zero


def test_transitions_on_the_free_spot():
    for s in (2, 5):
        t, r = transition_maps(2, 6, 7, s)
        assert t.matrix == ((2,),)
        assert r.matrix == ((1,),)
        assert t.compose(r).matrix == ((2 % 2**s,),)


# sha256 over the tower route as first written, with one part list per
# level: every transition map t and r and connecting map delta for n <= 3,
# s = 2..6 and every limit in the twisted grading for n <= 4, summand order
# and labels included
TOWER_ROUTE_SHA256 = "937a1cfd52b18bdd68e5dad3a74184ec836646c0ad31b6a0ebe819470931fb68"


def test_tower_route_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 4):
        for p, q in CoefficientTower(n).bidegrees():
            for s in range(2, 7):
                for f in (*transition_maps(n, p, q, s), _delta(n, p, q, s)):
                    h.update(repr((f.domain.summands, f.codomain.summands, f.matrix)).encode())
    for n in range(1, 5):
        tower = CoefficientTower(n)
        for c in range(0, top_rho_exponent(n) + 1, 2):
            h.update(repr(tower.limit(*twist_bidegree(c)).summands).encode())
    assert h.hexdigest() == TOWER_ROUTE_SHA256


def test_les_identity_n2():
    ct = CoefficientTower(2)
    for p, q in ct.bidegrees():
        for s in range(2, 9):
            assert ct.les_order_identity(p, q, s), (p, q, s)


def test_limits_at_the_three_spots():
    ct = CoefficientTower(2)
    assert ct.limit(2, 3).is_trivial
    assert ct.limit(4, 4).structure() == (0, (2,))
    assert ct.limit(6, 7).structure() == (1, ())


def test_tower_depth_is_window_plus_two():
    # the ghost chain at (2, 3) settles one level late, so WINDOW + 1 = 5
    # levels leave a single stabilized level
    assert MIN_DEPTH == WINDOW + 2 == 6
    with pytest.raises(NotStabilized, match="settled into 1 level"):
        reduction_limit(2, 2, 3, MIN_DEPTH - 1)
    assert CoefficientTower(2).limit(2, 3).is_trivial


def reduction_limit(n, p, q, depth):
    """inverse_limit at (p, q) over levels 1..depth along the reductions r."""
    levels = [mod_2s_group(n, p, q, s) for s in range(1, depth + 1)]
    return inverse_limit(levels, [transition_maps(n, p, q, s)[1] for s in range(2, depth + 1)])


@pytest.mark.parametrize("n", range(1, 6))
def test_limit_window_equals_a_deeper_limit(n):
    """A limit reads levels 1..MIN_DEPTH; the limit over levels 1..16 is the
    same group, labels included, at every bidegree."""
    ct = CoefficientTower(n)
    for p, q in ct.bidegrees():
        assert ct.limit(p, q) == reduction_limit(n, p, q, 16), (p, q)


def test_twist_bidegree():
    assert twist_bidegree(0) == (0, 0)
    assert twist_bidegree(4) == (4, 4)
    assert twist_bidegree(6) == (6, 7)
    with pytest.raises(ValueError):
        twist_bidegree(3)


def test_etale_2adic_small_indices():
    t1 = etale_2adic(1)
    assert [(e.degree, e.order, e.label) for e in t1.entries] == [
        (0, 0, "1"),
        (2, 0, "pi"),
    ]
    t2 = etale_2adic(2)
    assert [(e.degree, e.order, e.label, e.algebraic) for e in t2.entries] == [
        (0, 0, "1", True),
        (4, 2, "rho_bar_4", True),
        (6, 0, "pi", True),
    ]
    t3 = etale_2adic(3)
    assert [(e.degree, e.order, e.algebraic) for e in t3.entries] == [
        (0, 0, True),
        (4, 2, False),
        (8, 2, True),
        (12, 2, True),
        (14, 0, True),
    ]


def test_etale_2adic_equals_closed_form():
    # every 2adic table `cohomology --rost n` prints, re-derived by the tower
    for n in range(1, MAX_INDEX + 1):
        a = etale_2adic(n)
        b = rost_etale_table(n)
        assert [
            (e.degree, e.order, e.label, e.algebraic) for e in a.entries
        ] == [(e.degree, e.order, e.label, e.algebraic) for e in b.entries]


@pytest.mark.parametrize("s", (1, 2, 8))
def test_rost_mod2s_tables_are_universal_coefficients(s):
    """Every mod-2^s Rost table the CLI prints, universal coefficients on
    the closed form, is the tower route's table summand by summand, labels
    and sources included."""
    for n in range(1, MAX_INDEX + 1):
        assert rost_table(n, f"mod2s:{s}") == mod_2s_table(n, s), n
