"""Motive decomposition of quadrics, additive assembly, and the
non-algebraic inventory."""

import functools
import operator
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_quadrics import graded, quadrics, rost
from etale_quadrics.errors import InvalidDimension, InvalidIndex, UnknownFamily
from etale_quadrics.mod2 import bockstein, rost_etale_mod2, top_rho_exponent
from etale_quadrics.presentations import builtin_presentation, graded_ranks, presentation
from etale_quadrics.quadrics import (
    NonAlgebraicReport,
    assemble_cohomology,
    boundary_predicates,
    claim_neighbor,
    decompose_motive,
    nonalgebraic_report,
    parse_coefficients,
    rost_table,
)
from etale_quadrics.rost import chow_torsion_degrees, rost_etale_table, torsion_degrees
from etale_quadrics.tower import CoefficientTower, mod_2s_group, mod_2s_table, pairing, transition_maps
from etale_quadrics.verify import VerifyOptions, coefficient_change


def terms_of(d):
    return list(decompose_motive(d).terms)


def test_expansion_fixtures():
    assert list(decompose_motive(7).expansion) == [3, 2]  # 9 = 16 - 8 + 1
    assert list(decompose_motive(5).expansion) == [2]  # 7 = 8 - 1
    assert list(decompose_motive(6).expansion) == [2]  # 8 = 8 exactly
    assert list(decompose_motive(4).expansion) == [2, 0]  # 6 = 8 - 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2048))
def test_expansion_reconstructs(d):
    dec = decompose_motive(d)
    assert dec.reconstructs()
    assert dec.residual in (0, 1)
    assert all(a > b for a, b in zip(dec.expansion, dec.expansion[1:]))
    # the blocks are non-empty runs of twists, contiguous from 0
    j = 0
    for n, j0, m in dec.blocks:
        assert m >= 1 and j0 == j
        j += m
    assert j == len(dec.terms)
    assert dec.expansion == tuple(n for n, _, _ in dec.blocks)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2048))
def test_complex_rank_rule(d):
    dec = decompose_motive(d)
    assert dec.complex_rank() == (d + 1 if d % 2 else d + 2)


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: decompose_motive(7), ("d", "blocks", "residual")),
        (lambda: nonalgebraic_report(7), ("d", "dims")),
        (lambda: assemble_cohomology(7), ("entries",)),
    ],
    ids=["MotiveDecomposition", "NonAlgebraicReport", "Graded2Group"],
)
def test_value_types_are_frozen_values(make, fields):
    """The value types are immutable, and equal values, built twice,
    compare and hash equal."""
    value, twin = make(), make()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0


def test_huge_dimension_is_a_few_blocks():
    d = 2**20 + 5
    dec = decompose_motive(d)
    assert dec.complex_rank() == d + 1
    assert len(dec.blocks) <= 21
    assert dec.reconstructs()


def test_decomposition_fixtures():
    assert terms_of(7) == [(3, 0), (2, 1), (2, 2), (2, 3)]
    assert decompose_motive(7).render() == "M3 + M2*T1 + M2*T2 + M2*T3"
    assert terms_of(3) == [(2, 0), (1, 1)]
    assert terms_of(1) == [(1, 0)]
    assert terms_of(2) == [(1, 0), (1, 1)]
    # a residual binary form contributes the rank-one Artin piece
    assert terms_of(4) == [(2, 0), (2, 1), (0, 2)]


def test_closed_form_families():
    for n in range(2, 7):
        assert terms_of(2**n - 1) == [(n, 0)] + [
            (n - 1, j) for j in range(1, 2 ** (n - 1))
        ]
        assert terms_of(2 ** (n + 1) - 3) == [(n, j) for j in range(2**n - 1)]
        assert terms_of(2 ** (n + 1) - 2) == [(n, j) for j in range(2**n)]


def test_c6_compares_the_closed_form_blocks(monkeypatch):
    """C6 compares each closed form's blocks: a minimal neighbor whose last
    run is one twist short fails it, with a diff naming that d and its
    rendered terms, and the unpatched check passes with its usual detail."""
    from etale_quadrics import verify

    opts = verify.VerifyOptions(dmax=32)
    ok = verify.check_decomposition_fixtures(opts)
    assert (ok.passed, ok.detail) == (True, "closed-form decompositions for n=2..6 and sweep invariants for d<=32")
    real = quadrics.decompose_motive

    def one_twist_short(d):  # the minimal neighbor d = 15, ((4, 0, 1), (3, 1, 7)), without M3*T7
        dec = real(d)
        return dec._replace(blocks=((4, 0, 1), (3, 1, 6))) if d == 15 else dec

    monkeypatch.setattr(quadrics, "decompose_motive", one_twist_short)
    short = one_twist_short(15)
    bad = verify.check_decomposition_fixtures(opts)
    assert not bad.passed and bad.detail == ok.detail
    assert {"d": 15, "terms": short.render()} in bad.diff
    assert short.render().endswith("M3*T5 + M3*T6")


def test_s7_tables_reads_the_2adic_unit(monkeypatch):
    """s7.tables reads the order of the 2-adic M_0 unit through its d = 4
    fixture, Q^4 = M2 + M2*T1 + M0*T2: a unit made Z/2 fails it, with a
    diff naming d = 4 alone."""
    from etale_quadrics import verify

    opts = verify.VerifyOptions()
    assert verify.check_assembly_tables(opts).passed
    real = quadrics.assemble_cohomology

    def unit_of_order_2(d, coeff="2adic"):
        table = real(d, coeff)
        if d != 4:
            return table
        return graded.Graded2Group(tuple(e._replace(order=2) if e.source == (0, 2) else e for e in table.entries))

    monkeypatch.setattr(quadrics, "assemble_cohomology", unit_of_order_2)
    bad = verify.check_assembly_tables(opts)
    assert not bad.passed
    assert [f["d"] for f in bad.diff] == [4]


def test_invalid_dimensions():
    for bad in (0, -1, True, False):
        with pytest.raises(InvalidDimension):
            decompose_motive(bad)


INDEX_ENTRY_POINTS = {  # every integer parameter the library checks: (call, lower bound, error type)
    "rost_table 2adic": (lambda n: rost_table(n, "2adic"), 1, InvalidIndex),
    "rost_table mod2": (lambda n: rost_table(n, "mod2"), 1, InvalidIndex),
    "rost_table mod2s:1": (lambda n: rost_table(n, "mod2s:1"), 1, InvalidIndex),
    "rost_etale_table": (rost_etale_table, 1, InvalidIndex),
    "rost_etale_mod2": (rost_etale_mod2, 1, InvalidIndex),
    "pairing": (lambda n: pairing(n, 1, 3), 1, InvalidIndex),
    "mod_2s_table": (lambda n: mod_2s_table(n, 1), 1, InvalidIndex),
    "decompose_motive": (decompose_motive, 1, InvalidDimension),
    "VerifyOptions dmax": (lambda d: VerifyOptions(dmax=d), 1, ValueError),
    "VerifyOptions nmax": (lambda n: VerifyOptions(nmax=n), 1, ValueError),
    "pairing weight": (lambda q: pairing(2, 0, q), 0, ValueError),
    "mod_2s_group level": (lambda s: mod_2s_group(2, 2, 3, s), 1, ValueError),
    "transition_maps level": (lambda s: transition_maps(2, 2, 3, s), 2, ValueError),
    "les_order_identity level": (lambda s: CoefficientTower(2).les_order_identity(2, 3, s), 2, ValueError),
    "bockstein a": (lambda a: bockstein(a, 1, 2), 0, ValueError),
    "bockstein b": (lambda b: bockstein(1, b, 2), 0, ValueError),
    "graded_ranks max_degree": (lambda k: graded_ranks(builtin_presentation("Q3"), k), 0, ValueError),
    "generator degree": (lambda k: presentation("Z2", (("h", k),)), 1, ValueError),
    "norm presentation index": (lambda n: builtin_presentation("norm", n), 2, UnknownFamily),
    "claim minimal": (lambda n: claim_neighbor("minimal", n), 3, ValueError),
    "claim maximal": (lambda n: claim_neighbor("maximal", n), 3, ValueError),
    "claim norm": (lambda n: claim_neighbor("norm", n), 3, ValueError),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("bad", (0, -1, True, 2.0), ids=repr)
def test_invalid_indices(entry, bad):
    """Each integer parameter refuses a bool, a float and an int below its
    bound lo, with its own error type and the one message form.  An int
    case k stands for lo - 1 + k: lo - 1 and lo - 2, so 0 and -1 for a
    Rost index."""
    call, lo, error = INDEX_ENTRY_POINTS[entry]
    value = lo - 1 + bad if type(bad) is int else bad
    with pytest.raises(error, match=re.escape(f"must be an integer >= {lo}, got {value!r}")) as refused:
        call(value)
    assert refused.type is error


def test_parse_coefficients():
    assert parse_coefficients("2adic") == ("2adic", None)
    assert parse_coefficients("mod2") == ("mod2", None)
    assert parse_coefficients("mod2s:5") == ("mod2s", 5)
    assert parse_coefficients("mod2s:14284") == ("mod2s", 14284)
    assert parse_coefficients("mod2s:" + "0" * 4300 + "3") == ("mod2s", 3)  # leading zeros are not counted
    with pytest.raises(ValueError, match="unknown coefficient spec 'mod3'"):
        parse_coefficients("mod3")


@pytest.mark.parametrize(
    "level",
    ["0", "000", "14285", "9" * 4301],  # the last more digits than int() reads
    ids=lambda level: level[:8],
)
def test_parse_coefficients_bounds_the_level(level):
    """A level outside 1..MAX_LEVEL, the largest whose order 2^s prints, is
    rejected with the digits as typed, before int() reads them."""
    with pytest.raises(ValueError) as info:
        parse_coefficients("mod2s:" + level)
    assert str(info.value) == f"coefficient level {level} is outside 1..14284"


# classes of one Rost motive M_n and the order of the unit class of M_0
ROWS_PER_MOTIVE = {
    "2adic": lambda n: 2 ** (n - 1) + 1,
    "mod2": lambda n: 2 ** (n + 1) - 1,
    "mod2s:1": lambda n: 2**n,
    "mod2s:3": lambda n: 2**n,
}
UNIT_ORDER = {"2adic": 0, "mod2": 2, "mod2s:1": 2, "mod2s:3": 8}


@pytest.mark.parametrize("coeff", sorted(ROWS_PER_MOTIVE))
def test_assembly_is_the_shifted_rost_tables(coeff):
    for n in range(1, 7):
        assert {e.source for e in rost_table(n, coeff).entries} == {(n, 0)}
    for d in range(1, 65):
        by_term = {}
        for e in assemble_cohomology(d, coeff).entries:
            by_term.setdefault(e.source, []).append(e)
        assert sorted(by_term) == sorted(terms_of(d))
        for (n, j), got in by_term.items():
            got = sorted((e.degree, e.order, e.label, e.algebraic) for e in got)
            if n == 0:
                assert got == [(2 * j, UNIT_ORDER[coeff], "1", True)]
                continue
            assert len(got) == ROWS_PER_MOTIVE[coeff](n)
            want = sorted((e.degree + 2 * j, e.order, e.label, e.algebraic) for e in rost_table(n, coeff).entries)
            assert got == want, (d, n, j)


@pytest.mark.parametrize("coeff", ["2adic", "mod2", "mod2s:1", "mod2s:3", "mod2s:14284"])
def test_every_rost_table_is_in_print_order(coeff):
    """Graded2Group.at bisects on the entries and iter_cohomology cuts its
    runs on them, so every Rost table must come in graded._sort_key order
    whether or not from_entries sorted it, and no two of its classes share
    a degree."""
    for n in range(1, 11):
        entries = list(rost_table(n, coeff).entries)
        assert entries == sorted(entries, key=graded._sort_key), n
        degrees = [e.degree for e in entries]
        assert all(map(operator.lt, degrees, degrees[1:])), n


@pytest.fixture
def cached_rost_tables(monkeypatch):
    """One rost_table per (n, coeff) for the sweeps over d."""
    cached = functools.lru_cache(maxsize=None)(quadrics.rost_table)
    monkeypatch.setattr(quadrics, "rost_table", cached)
    return cached


def flat_rows(groups):
    """The rows (c, n, j, e) of iter_cohomology's groups made with the
    default view and cell, each segment's cells and entries read in step."""
    for c, segments in groups:
        for cells, entries in segments:
            for (n, j), e in zip(cells, entries, strict=True):
                yield c, n, j, e


@pytest.mark.parametrize("coeff", ["2adic", "mod2", "mod2s:3"])
def test_rows_come_in_sort_order(cached_rost_tables, coeff):
    """iter_cohomology emits rows in the order of the global sort it
    replaced, ties by label included, with no sort of its own: for d <= 64
    the assembly equals its own sort by graded._sort_key, and for every
    d <= 300 the rows' keys (degree, -n, j, label) are already sorted.  A
    segment is one degree and one n, so its keys rise exactly when its
    cells (n, j) rise, which is compared in C; each segment's first key is
    compared with the last key of the segment before."""
    for d in range(1, 301):
        if d <= 64:
            entries = list(assemble_cohomology(d, coeff).entries)
            assert entries == sorted(entries, key=graded._sort_key), d
        last = ()
        for c, segments in quadrics.iter_cohomology(decompose_motive(d).blocks, coeff):
            for cells, entries in segments:
                (n, j), (n_last, j_last) = cells[0], cells[-1]
                assert len(cells) == len(entries) and n == n_last, (d, c)
                assert all(map(operator.lt, cells, cells[1:])), (d, c)
                assert last <= (c, -n, j, entries[0].label), (d, c)
                last = (c, -n, j_last, entries[-1].label)


def shifted_reference(d, coeff):
    """Every Rost entry shifted by every term of the decomposition, sorted:
    the table by definition, with no windows and no per-degree index."""
    entries = []
    for n, j in decompose_motive(d).terms:
        if n == 0:
            entries.append(graded.GradedSummand(2 * j, UNIT_ORDER[coeff], "1", True, (0, j)))
            continue
        for e in rost_table(n, coeff).entries:
            entries.append(graded.GradedSummand(e.degree + 2 * j, e.order, e.label, e.algebraic, (n, j)))
    return sorted(entries, key=graded._sort_key)


@pytest.mark.parametrize("coeff", sorted(ROWS_PER_MOTIVE))
def test_a_rost_target_is_a_single_block(coeff):
    """The Rost motive M_n, the single block (n, 0, 1), walks as the
    table of rost_table(n, coeff): every entry once, in order, in its own
    degree, with the cell of the term M_n tensor T^0."""
    for n in range(1, 11):
        rows = list(flat_rows(quadrics.iter_cohomology(((n, 0, 1),), coeff)))
        assert rows == [(e.degree, n, 0, e) for e in rost_table(n, coeff).entries], n


@pytest.mark.parametrize("coeff", ["2adic", "mod2", "mod2s:3"])
def test_rows_are_complete(cached_rost_tables, coeff):
    """No row is lost at a window edge, which sorted rows alone would not
    show: for every d <= 300 each group is one nonempty degree with no
    empty segment, degrees strictly increasing up to the top class in
    degree 2d, and the row count is that of the shifted Rost tables, M_0
    counting one; for d <= 64 the table is the shifted reference entry for
    entry."""
    for d in range(1, 301):
        groups = list(quadrics.iter_cohomology(decompose_motive(d).blocks, coeff))
        for c, segments in groups:
            assert segments and all(cells for cells, _ in segments), (d, c)
            assert all(len(cells) == len(entries) for cells, entries in segments), (d, c)
        degrees = [c for c, _ in groups]
        assert degrees == sorted(set(degrees)) and degrees[-1] == 2 * d, d
        blocks = decompose_motive(d).blocks
        sizes = {n: len(cached_rost_tables(n, coeff).entries) if n else 1 for n, _, _ in blocks}
        rows = sum(len(cells) for _, segments in groups for cells, _ in segments)
        assert rows == sum(m * sizes[n] for n, _, m in blocks), d
        if d <= 64:
            assert list(assemble_cohomology(d, coeff).entries) == shifted_reference(d, coeff), d


@st.composite
def motives(draw):
    """Blocks (n, j0, m), the n distinct and descending, M_0 included, with
    a table for each n >= 1 that no Rost table is like: degrees drawn from
    0..top_rho_exponent(n), so ties, uneven gaps, single entries and both
    parities, labels from a small alphabet, so ties may share a label too,
    and each entry's order its index, which tells equal keys apart."""
    ns = sorted(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True)), reverse=True)
    blocks = tuple((n, draw(st.integers(0, 6)), draw(st.integers(1, 5))) for n in ns)
    degrees_and_labels = lambda n: st.tuples(st.integers(0, top_rho_exponent(n)), st.sampled_from("abc"))
    tables = {
        n: graded.Graded2Group.from_entries(
            graded.GradedSummand(c, i, label, None, (n, 0))
            for i, (c, label) in enumerate(draw(st.lists(degrees_and_labels(n), min_size=1, max_size=10)))
        )
        for n in ns if n
    }
    return blocks, tables


@settings(max_examples=300, deadline=None)
@given(motives())
def test_runs_keep_ties_gaps_and_parities(motive):
    """The runs' slices cover every row of tables with ties in degree,
    uneven degree gaps, single entries and both parities, which no built-in
    table has: the rows are the shifted tables sorted by graded._sort_key,
    one group per nonempty degree, no segment empty, and the fields of a
    two-field view aligned with the cells."""
    blocks, tables = motive
    unit = graded.GradedSummand(0, 0, "1", True, (0, 0))
    reference = sorted(
        (
            graded.GradedSummand(e.degree + 2 * j, e.order, e.label, e.algebraic, (n, j))
            for n, j0, m in blocks for j in range(j0, j0 + m)
            for e in (tables[n].entries if n else (unit,))
        ),
        key=graded._sort_key,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrics, "rost_table", lambda n, coeff: tables[n])
        groups = list(quadrics.iter_cohomology(blocks, "2adic", view=lambda e: (e, e.label)))
    rows = []
    for c, segments in groups:
        assert segments and all(cells for cells, _, _ in segments), c
        for cells, entries, labels in segments:
            assert [e.label for e in entries] == list(labels), c
            rows += (graded.GradedSummand(c, e.order, e.label, e.algebraic, cell) for cell, e in zip(cells, entries, strict=True))
    assert rows == reference
    assert [c for c, _ in groups] == sorted({e.degree for e in reference})


@pytest.mark.parametrize("coeff", ["2adic", "mod2", "mod2s:3"])
def test_lookups_match_a_linear_scan(cached_rost_tables, coeff):
    """at(c) bisects the degree-sorted entries; for d <= 64 and every
    degree from below the bottom to past the top, those with no entry
    included, it returns what a linear filter returns, and profile and
    profiles count free ranks and torsion orders from that filter."""
    tables = [assemble_cohomology(d, coeff) for d in range(1, 65)]
    tables += [cached_rost_tables(n, coeff) for n in range(1, 6)]
    for table in tables:
        profiles = {}
        for c in range(-1, table.entries[-1].degree + 3):
            here = tuple(e for e in table.entries if e.degree == c)
            assert table.at(c) == here, c
            orders = [e.order for e in here]
            profile = (orders.count(0), tuple(sorted((o for o in orders if o), reverse=True)))
            assert table.profile(c) == profile, c
            if here:
                profiles[c] = profile
        assert list(table.profiles().items()) == list(profiles.items())


def test_assembly_fixtures():
    assert assemble_cohomology(3).profiles() == {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (1, ()),
    }
    assert assemble_cohomology(6).profiles() == {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (2, (2,)),
        8: (1, (2,)), 10: (1, (2,)), 12: (1, ()),
    }
    assert assemble_cohomology(7).profiles() == {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (1, (2,)),
        8: (1, (2, 2)), 10: (1, (2,)), 12: (1, (2,)), 14: (1, ()),
    }


def test_assembly_sources_and_flags():
    table = assemble_cohomology(7)
    deg8 = {(e.label, e.source, e.algebraic) for e in table.at(8)}
    assert deg8 == {
        ("rho_bar_8", (3, 0), True),
        ("pi", (2, 1), True),
        ("rho_bar_4", (2, 2), True),
    }
    deg4 = {(e.label, e.source, e.algebraic) for e in table.at(4)}
    assert deg4 == {("rho_bar_4", (3, 0), False), ("1", (2, 2), True)}
    assert all(e.algebraic for e in table.entries if e.order == 0)


def test_assembly_restricted_to_the_top_summand():
    """The unshifted block of the norm quadric equals the table computed
    independently through the Bockstein tower."""
    from etale_quadrics.tower import etale_2adic

    for n in (3, 4):
        d = 2**n - 1
        table = assemble_cohomology(d)
        block = sorted(
            (e.degree, e.order, e.label, e.algebraic)
            for e in table.entries
            if e.source == (n, 0)
        )
        want = sorted(
            (e.degree, e.order, e.label, e.algebraic)
            for e in etale_2adic(n).entries
        )
        assert block == want


def test_artin_piece_contributes_one_free_class():
    table = assemble_cohomology(4)
    assert table.profiles() == {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (1, (2,)), 8: (1, ()),
    }
    free4 = [e.source for e in table.at(4) if e.order == 0]
    assert free4 == [(0, 2)]


def test_nonalgebraic_reports():
    assert nonalgebraic_report(7).dims == ((4, 1),)
    assert not nonalgebraic_report(6).has_nonalgebraic
    r15 = nonalgebraic_report(15)
    assert tuple(deg for deg, _ in r15.dims if deg % 4 == 0) == (4, 8, 12, 16, 20)
    # odd Tate twists, kept separate
    assert tuple(deg for deg, _ in r15.dims if deg % 4 == 2) == (6, 10, 14, 18)
    assert dict(r15.dims)[8] == 2  # two independent summands land there


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300))
def test_nonalgebraic_report_counts_the_assembly(d):
    counts = Counter(
        e.degree for e in assemble_cohomology(d).torsion_entries if e.algebraic is False
    )
    assert nonalgebraic_report(d).dims == tuple(sorted(counts.items()))
    assert bool(counts) == (d >= 7)


def per_term_report(d):
    """The non-algebraic dims summed one term M_n*T^j at a time: the
    definition the block-wise difference array must reproduce."""
    dims = Counter()
    for n, j in decompose_motive(d).terms:
        if n < 1:
            continue
        algebraic = set(chow_torsion_degrees(n))
        for deg in torsion_degrees(n):
            if deg not in algebraic:
                dims[deg + 2 * j] += 1
    return tuple(sorted(dims.items()))


def test_nonalgebraic_report_is_the_per_term_sum():
    for d in [*range(1, 257), 511, 1022, 2045, 2046]:
        assert nonalgebraic_report(d).dims == per_term_report(d), d


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 254), st.integers(1, 8))
def test_tower_route_is_universal_coefficients_on_the_closed_form(d, s):
    assert coefficient_change([d], [s]) == []


def test_boundary():
    assert [nonalgebraic_report(d).has_nonalgebraic for d in range(1, 7)] == [False] * 6
    assert all(nonalgebraic_report(d).has_nonalgebraic for d in range(7, 65))
    for d in range(1, 65):
        assert len(set(boundary_predicates(d))) == 1


def test_boundary_reads_the_report_bit():
    """C7's first predicate is the report's own verdict for every d up to
    the table bound, though it stops at the first nonzero running sum."""
    for d in range(1, 2047):
        assert boundary_predicates(d)[0] == nonalgebraic_report(d).has_nonalgebraic, d


def test_boundary_reads_the_computed_quotient(monkeypatch):
    """C7 reads rost.nonalgebraic_quotient, not a closed form of the
    boundary: with M3's quotient emptied, Q^7 = M3 + M2*T1..T3 has no
    non-algebraic class, so C7 fails and names d = 7."""
    from etale_quadrics import verify

    real = rost.nonalgebraic_quotient
    monkeypatch.setattr(rost, "nonalgebraic_quotient", lambda n: () if n == 3 else real(n))
    bad = verify.check_boundary(verify.VerifyOptions(dmax=64))
    assert not bad.passed
    assert 7 in [d for d, *_ in bad.diff]


def test_claims(monkeypatch):
    assert claim_neighbor("minimal", 3) == []
    assert claim_neighbor("maximal", 3) == []
    for n in (3, 4, 5):
        assert claim_neighbor("norm", n) == []
    with pytest.raises(ValueError):
        claim_neighbor("median", 3)
    # against an empty report every claimed degree comes back as missing
    monkeypatch.setattr(quadrics, "nonalgebraic_report", lambda d: NonAlgebraicReport(d, ()))
    assert claim_neighbor("minimal", 3) == [
        {"claim": "minimal neighbor n=3 (d=7)", "missing_degrees": [4]}
    ]
    assert claim_neighbor("maximal", 3)[0]["missing_degrees"] == [4, 8, 12, 16]
    assert claim_neighbor("norm", 4) == [
        {"claim": "norm quadric n=4 (d=15)", "missing_degrees": [4, 8, 12, 16, 20]}
    ]


def test_norm_quadric_is_the_minimal_neighbor(monkeypatch):
    """The norm quadric of index n is the minimal neighbor, d = 2^n - 1, so
    under an emptied report both claims list the same missing degrees."""
    monkeypatch.setattr(quadrics, "nonalgebraic_report", lambda d: NonAlgebraicReport(d, ()))
    for n in range(3, 11):
        norm, minimal = claim_neighbor("norm", n), claim_neighbor("minimal", n)
        assert norm[0]["missing_degrees"] == minimal[0]["missing_degrees"] == list(range(4, 2 ** (n + 1) - 11, 4))


def test_norm_quadric_free_classes_are_read_per_block(monkeypatch):
    """With every free class of M_n (n >= 1) flagged non-algebraic, the
    claim lists the degree of each one in every term, sorted: the free
    classes the assembled table shows, read without assembling it."""
    real = rost.free_classes
    monkeypatch.setattr(rost, "free_classes", lambda n: tuple(e._replace(algebraic=False) for e in real(n)))
    for n in (3, 4, 5):
        d = 2**n - 1
        free = [e.degree for e in assemble_cohomology(d).entries if e.order == 0 and not e.algebraic]
        assert len(free) == 2 * (2 ** (n - 1))  # 1 and pi in each of the 2^(n-1) terms M_n, M_(n-1)*T^j
        assert claim_neighbor("norm", n)[-1] == {"claim": f"norm quadric n={n} (d={d})", "nonalgebraic_free_degrees": free}


def test_norm_quadric_claim_builds_no_rost_table(monkeypatch):
    """The claim reads the free flags off rost.free_classes: no Rost table
    is built, so its cost is the O(d) report's."""
    calls = Counter()
    real = rost.rost_etale_table

    def counted(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(rost, "rost_etale_table", counted)
    assert claim_neighbor("norm", 10) == []
    assert not calls, calls
