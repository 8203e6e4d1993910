"""Ring presentations: text format, graded ranks, built-in families, and
agreement with the additive assembly.

The mod-2 families are cross-checked against an independent GF(2)
row-reduction oracle written here from scratch, and one integer fixture
against a hand-built Smith form.
"""

from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as reference_snf

from etale_quadrics import presentations
from etale_quadrics.abelian import CyclicSummand, FinAb2Group, GroupHom, cokernel
from etale_quadrics.errors import NonHomogeneousRelation, UnknownFamily
from etale_quadrics.graded import Graded2Group, GradedSummand
from etale_quadrics.presentations import (
    RingPresentation,
    builtin_presentation,
    compare_with_assembly,
    format_poly,
    graded_ranks,
    make_poly,
    monomial_label,
    monomial_table,
    parse_poly,
    parse_presentation,
    presentation_for_quadric,
)


# ---------------------------------------------------------------------------
# text format


Q3_TEXT = """
# three-dimensional anisotropic quadric
coeff Z2
gen h 2
gen c1 4
rel h^4
rel 2*c1
rel c1*h
rel c1^2
"""


def test_parse_and_format_round_trip():
    p = parse_presentation(Q3_TEXT)
    assert p.coefficients == "Z2"
    assert p.generators == (("h", 2), ("c1", 4))
    assert len(p.relations) == 4
    for rel in p.relations:
        assert parse_poly(format_poly(rel, p.generator_names), p.generator_names) == rel


def test_poly_parsing():
    names = ("h", "c0")
    assert parse_poly("h*c0 - h^4", names) == (((1, 1), 1), ((4, 0), -1))
    assert parse_poly("2*c0", names) == (((0, 1), 2),)
    assert parse_poly("3", names) == (((0, 0), 3),)
    assert parse_poly("h - h", names) == ()
    assert format_poly(parse_poly("h*c0 - h^4", names), names) == "h*c0 - h^4"
    with pytest.raises(ValueError):
        parse_poly("h + q", names)
    with pytest.raises(ValueError):
        parse_poly("", names)


def test_homogeneity_is_enforced():
    with pytest.raises(NonHomogeneousRelation):
        parse_presentation("coeff Z2\ngen h 2\nrel h^2 + h")


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        builtin_presentation("Q4")
    with pytest.raises(UnknownFamily):
        builtin_presentation("norm")
    with pytest.raises(UnknownFamily):
        presentation_for_quadric(9)


def test_builtin_q5_relations():
    p = builtin_presentation("Q5")
    rels = {format_poly(r, p.generator_names) for r in p.relations}
    assert rels == {"h^6", "2*c1", "h^3*c1", "c1^2"}


def test_norm_family_matches_q7():
    assert builtin_presentation("norm", 3) == builtin_presentation("Q7")
    p = builtin_presentation("norm", 4)
    rels = {format_poly(r, p.generator_names) for r in p.relations}
    assert rels == {"h^16", "2*rho4", "h*rho4^4", "h^8*rho4", "rho4^8"}


# ---------------------------------------------------------------------------
# graded ranks against fixtures and independent oracles


def test_q3_graded_fixture():
    table = graded_ranks(builtin_presentation("Q3"), 8)
    assert table.profile(4) == (1, (2,))
    assert {(e.order, e.label) for e in table.at(4)} == {(0, "h^2"), (2, "c1")}
    assert table.profile(8) == (0, ())
    assert table.profile(6) == (1, ())


def test_q6_graded_fixture():
    table = graded_ranks(builtin_presentation("Q6"), 12)
    assert table.profile(6) == (2, (2,))
    assert table.profile(8) == (1, (2,))
    labels8 = {(e.order, e.label) for e in table.at(8)}
    assert labels8 == {(0, "h*c0"), (2, "h^2*c1")}


def test_q7_multiplicative_identifications():
    """The top free class is the seventh power of the hyperplane class,
    and the torsion column is generated by powers of the degree-4 class."""
    table = graded_ranks(builtin_presentation("Q7"), 14)
    top_free = [e.label for e in table.at(14) if e.order == 0]
    assert top_free == ["h^7"]
    assert {e.label for e in table.at(8) if e.order} == {"h^2*rho4", "rho4^2"}
    assert [e.label for e in table.at(12) if e.order] == ["rho4^3"]
    assert [e.label for e in table.at(6) if e.order] == ["h*rho4"]


def test_flag_degree_four_by_hand():
    """Degree 4 of the 2-adic flag presentation: one relation column
    2*(1,1,1) against the three monomials, diagonalized by hand."""
    column = sympy.Matrix([[2], [2], [2]])
    ref = reference_snf(column, domain=sympy.ZZ)
    assert list(ref) == [2, 0, 0]  # quotient is Z^2 + Z/2
    table = graded_ranks(builtin_presentation("G2_flag_etale"), 4)
    assert table.profile(4) == (2, (2,))


@pytest.mark.parametrize("degrees", ((2,), (2, 4), (2, 2), (2, 4, 6), (4, 6, 2)))
def test_monomial_table(degrees):
    """Every exponent tuple of each degree, lexicographically descending."""
    table = monomial_table(degrees, 14)
    every = sorted(product(range(8), repeat=len(degrees)), reverse=True)
    assert table == [
        [m for m in every if sum(e * d for e, d in zip(m, degrees)) == k] for k in range(15)
    ]


def gf2_dimensions(p: RingPresentation, max_degree: int) -> dict[int, int]:
    """Independent oracle: per-degree dimension over GF(2) by naive row
    reduction of the relation products; it shares only the monomial basis
    with the package, which test_monomial_table checks by brute force."""
    degrees = p.generator_degrees
    table = monomial_table(degrees, max_degree)
    dims = {}
    for k, monos in enumerate(table):
        if not monos:
            continue
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel in p.relations:
            rdeg = sum(e * d for e, d in zip(rel[0][0], degrees))
            if rdeg > k:
                continue
            for m in table[k - rdeg]:
                row = [0] * len(monos)
                for exps, coeff in rel:
                    shifted = tuple(a + b for a, b in zip(exps, m))
                    row[index[shifted]] ^= coeff % 2
                rows.append(row)
        # GF(2) Gaussian elimination
        rank = 0
        for col in range(len(monos)):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        dims[k] = len(monos) - rank
    return dims


def test_mod2_families_against_gf2_oracle():
    for family, max_degree in (
        ("G2_GT_mod2", 12),
        ("G2_flag_chow_mod2", 12),
    ):
        p = builtin_presentation(family)
        table = graded_ranks(p, max_degree)
        oracle = gf2_dimensions(p, max_degree)
        got = {k: len(table.at(k)) for k in oracle}
        assert got == oracle, family


def test_flag_dimension_totals():
    names = ("t1", "t2")
    weyl = RingPresentation(
        "F2",
        (("t1", 2), ("t2", 2)),
        (parse_poly("t1^2 + t1*t2 + t2^2", names), parse_poly("t2^3", names)),
    )
    series = {k: len(graded_ranks(weyl, 8).at(k)) for k in (0, 2, 4, 6, 8)}
    assert series == {0: 1, 2: 2, 4: 2, 6: 1, 8: 0}
    gt = graded_ranks(builtin_presentation("G2_GT_mod2"), 12)
    assert len(gt.entries) == 12
    chow = graded_ranks(builtin_presentation("G2_flag_chow_mod2"), 12)
    assert len(chow.entries) == 18


def test_flag_etale_torsion_is_elementary():
    table = graded_ranks(builtin_presentation("G2_flag_etale"), 64)
    assert all(e.order == 2 for e in table.torsion_entries)
    assert table.profile(4) == (2, (2,))


def test_q5_torsion_column():
    table = graded_ranks(builtin_presentation("Q5"), 10)
    torsion = {(e.degree, e.label) for e in table.torsion_entries}
    assert torsion == {(4, "c1"), (6, "h*c1"), (8, "h^2*c1")}


def test_q7_relation_set():
    p = builtin_presentation("Q7")
    rels = {format_poly(r, p.generator_names) for r in p.relations}
    assert rels == {"h^8", "2*rho4", "h*rho4^2", "h^4*rho4", "rho4^4"}


def test_compare_with_assembly():
    for d in (3, 5, 6, 7, 15):
        assert compare_with_assembly(d) == []


# ---------------------------------------------------------------------------
# the unit-column prune against the full relation matrix


def unpruned_ranks(p: RingPresentation, max_degree: int) -> Graded2Group:
    """Reference: graded_ranks with no prune, the cokernel of every
    relation column against the whole monomial basis of each degree."""
    names = p.generator_names
    base_order = 0 if p.coefficients == "Z2" else 2
    table = monomial_table(p.generator_degrees, max_degree)
    entries = []
    for k, monos in enumerate(table):
        if not monos:
            continue
        index = {m: i for i, m in enumerate(monos)}
        module = FinAb2Group(
            tuple(CyclicSummand(base_order, monomial_label(m, names)) for m in monos)
        )
        cols = []
        for rel, rdeg in zip(p.relations, p.relation_degrees()):
            if rdeg > k:
                continue
            for m in table[k - rdeg]:
                col = [0] * len(monos)
                for exps, coeff in rel:
                    col[index[tuple(a + b for a, b in zip(exps, m))]] += coeff
                cols.append(col)
        domain = FinAb2Group(tuple(CyclicSummand(0, f"r{i}") for i in range(len(cols))))
        hom = GroupHom(
            domain, module, tuple(tuple(col[i] for col in cols) for i in range(len(monos)))
        )
        entries += (GradedSummand(k, sm.order, sm.label) for sm in cokernel(hom).summands)
    return Graded2Group.from_entries(entries)


BUILTIN_RANGES = (
    [("G2_flag_etale", None, 64), ("G2_flag_chow_mod2", None, 12), ("G2_GT_mod2", None, 12)]
    + [(family, None, 2 * d + 4) for family, d in (("Q3", 3), ("Q5", 5), ("Q6", 6), ("Q7", 7))]
    + [("norm", n, 2 * (2**n - 1) + 4) for n in range(2, 8)]
)


@pytest.mark.parametrize("family, param, max_degree", BUILTIN_RANGES, ids=str)
def test_prune_keeps_every_builtin_entry(family, param, max_degree):
    """Labels included: the G2 families at the degrees the flag-variety
    check reads, the quadrics four degrees past their top class."""
    p = builtin_presentation(family, param)
    assert graded_ranks(p, max_degree).entries == unpruned_ranks(p, max_degree).entries


@pytest.fixture
def cokernel_rows(monkeypatch):
    """The codomain labels of every cokernel graded_ranks takes, by call."""
    seen = []

    def recording(hom):
        seen.append(hom.codomain.labels)
        return cokernel(hom)

    monkeypatch.setattr(presentations, "cokernel", recording)
    return seen


def test_prune_keeps_a_lone_even_entry(cokernel_rows):
    """2*rho4 is its column's only entry, but even: it kills nothing."""
    p = parse_presentation("coeff Z2\ngen rho4 4\nrel 2*rho4")
    table = graded_ranks(p, 8)
    assert table.entries == unpruned_ranks(p, 8).entries
    assert [(e.degree, e.order, e.label) for e in table.entries] == [
        (0, 0, "1"), (4, 2, "rho4"), (8, 2, "rho4^2"),
    ]
    assert cokernel_rows == [("1",), (), ()]


def test_prune_iterates(cokernel_rows):
    """a kills a; then a + 3*b has the lone odd entry 3*b and kills b; then
    b + 2*c has the lone even entry 2*c, which kills nothing: c is Z/2."""
    p = parse_presentation(
        "coeff Z2\ngen a 2\ngen b 2\ngen c 2\nrel a\nrel a + 3*b\nrel b + 2*c"
    )
    table = graded_ranks(p, 2)
    assert table.entries == unpruned_ranks(p, 2).entries
    assert table.at(2) == (GradedSummand(2, 2, "c"),)
    assert cokernel_rows == [("1",), ()]


def test_prune_reads_f2_entries_modulo_two(cokernel_rows):
    """Over F2 the 2*b of a + 2*b is zero, so the column kills a."""
    p = parse_presentation("coeff F2\ngen a 2\ngen b 2\nrel a + 2*b")
    assert graded_ranks(p, 2).entries == unpruned_ranks(p, 2).entries
    assert cokernel_rows == [("1",), ("b",)]


def test_prune_leaves_a_degree_with_no_entry(cokernel_rows):
    """Every monomial of degrees 4 and 6 dies under h^2: the cokernel of
    the empty module, and no entry in those degrees."""
    p = parse_presentation("coeff Z2\ngen h 2\nrel h^2")
    table = graded_ranks(p, 6)
    assert table.entries == unpruned_ranks(p, 6).entries
    assert [e.degree for e in table.entries] == [0, 2]
    assert cokernel_rows == [("1",), ("h",), (), ()]


@st.composite
def small_presentations(draw):
    """Up to three generators of degree 2 or 4 and up to four homogeneous
    relations with small coefficients, over either coefficient ring."""
    degrees = tuple(draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3)))
    names = ("a", "b", "c")[: len(degrees)]
    table = monomial_table(degrees, 8)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        monos = table[draw(st.sampled_from([2, 4, 6, 8]))]
        coeff = st.sampled_from([0, 1, -1, 2, 3, -2, 4])
        rel = make_poly((m, draw(coeff)) for m in monos)
        if rel:
            relations.append(rel)
    coefficients = draw(st.sampled_from(["Z2", "F2"]))
    return RingPresentation(coefficients, tuple(zip(names, degrees)), tuple(relations))


@settings(max_examples=60, deadline=None)
@given(small_presentations())
def test_prune_keeps_the_groups(p):
    """Every degree is the same group as without the prune.  Labels are
    read off the smaller elimination, so only the built-in families pin
    them; here each must still name a monomial of its degree."""
    table = graded_ranks(p, 8)
    assert table.profiles() == unpruned_ranks(p, 8).profiles()
    labels = [{monomial_label(m, p.generator_names) for m in monos} for monos in monomial_table(p.generator_degrees, 8)]
    for e in table.entries:
        assert e.label.split("~")[0] in labels[e.degree]
