"""Cost contracts: how the work of a computation grows with its size.

A Rost table of index n has Θ(2^n) entries, so building it should cost
Θ(2^n) too: about ×2 per step of n.  A tower limit reads a fixed window
of levels, so its cost is pinned by exact counts of what it reads, and
the non-algebraic report of Q^d should cost O(d): about ×2 when d
doubles.  The motive decomposition of Q^d should cost
O(log d): about ×2 when the bits of d double.  The graded ranks of a ring
presentation should cost as much as its monomials and relation entries
when every relation column is split off before the cokernel.  The work
is counted as profiler events (every Python and C call and return),
which depend on the code alone, not on the host, so the ratio between
two sizes is exact on every Python.  Only ratios are asserted, never
counts, because the interpreter's own calls differ between Python
versions.  Each measured call starts with every memo of the package
cleared, found by scanning its modules for `cache_clear`, so that a warm
memo never stands in for work.

A quadric table has Θ(d²) rows, and work per row inside a comprehension
fires no profile event, so profiler counts cannot show Python that runs
once per row.  The table walk is pinned by the calls to the callables it
is given, which are the package's own and the same on every Python: O(d)
of them while the rows grow about ×4 per doubling of d.  And the printed
table is pinned by the line events (sys.settrace) of the CLI and the walk
while a table is written: a comprehension or loop over the rows fires one
per row, so the lines run may grow by MAX_RATIO at most while the rows
grow about ×4.
"""

import contextlib
import importlib
import pkgutil
import sys

import pytest

import etale_quadrics
from etale_quadrics import abelian, cli, presentations, quadrics, rost, tower
from etale_quadrics.presentations import builtin_presentation, graded_ranks, monomial_table
from etale_quadrics.quadrics import (
    claim_norm_quadric,
    decompose_motive,
    iter_cohomology,
    nonalgebraic_report,
    rost_table,
)
from etale_quadrics.tower import CoefficientTower, etale_2adic

# ×2 per doubling of the size is the target; the rest is headroom for
# terms that do not grow with it.  A quadratic cost reads close to ×4.
MAX_RATIO = 2.5


def profile_events(fn, *args):
    count = 0

    def count_event(frame, event, arg):
        nonlocal count
        count += 1

    previous = sys.getprofile()
    sys.setprofile(count_event)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


def package_memos():
    """Every memo in the package's modules: each module attribute with a
    `cache_clear`, counted once however many modules bind it.  The entry
    point `__main__` is skipped, since importing it runs the CLI."""
    return {
        value
        for info in pkgutil.iter_modules(etale_quadrics.__path__)
        if info.name != "__main__"
        for value in vars(importlib.import_module(f"etale_quadrics.{info.name}")).values()
        if hasattr(value, "cache_clear")
    }


# collected at import, before a test can patch a memoised name away
MEMOS = package_memos()


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_memo_scan_finds_the_memos_of_every_layer():
    """The scan is not a no-op: it finds the closed-form route's memo, the
    tower's parts table and the lattice layer's bounded memos."""
    lattice = {abelian._kernel, abelian._cokernel, abelian._image, abelian._image_order}
    assert {rost.nonalgebraic_quotient, tower._uct_parts} | lattice <= MEMOS


def cold(fn):
    """fn with every package memo cleared before each call.  Every measured
    call then pays for what it reads, whatever ran before it."""

    def call(*args):
        clear_memos()
        return fn(*args)

    return call


def count_calls(monkeypatch, module, name):
    """Replace module.name (or a class's method) by a wrapper that counts
    its calls in calls[0]."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "table, coeff",
    [*((rost_table, c) for c in ("2adic", "mod2", "mod2s:3")), (tower.mod_2s_table, 3)],
    ids=("2adic", "mod2", "mod2s:3", "tower-mod2s:3"),
)
def test_rost_table_cost_doubles_per_index(table, coeff):
    """The printed tables, and the tower route's mod-2^s table that checks
    the printed one."""
    table(1, coeff)  # first-use caches (the coefficient-spec regex) fill here
    ratio = profile_events(cold(table), 10, coeff) / profile_events(cold(table), 9, coeff)
    assert ratio <= MAX_RATIO, f"{table.__name__}(n, {coeff!r}) grows x{ratio:.2f} per n"


@pytest.mark.parametrize(
    "orders_of",
    (lambda depth: [4] * depth, lambda depth: [2**s for s in range(1, depth + 1)]),
    ids=("identity-on-Z/4", "reductions"),
)
def test_inverse_limit_reads_only_the_top_levels(monkeypatch, orders_of):
    """inverse_limit walks down from the top and stops at the second level
    whose chain settles, so a cold call measures as many image orders at 32
    levels as at 16; a walk up from level 0 measures one chain per level."""
    calls = count_calls(monkeypatch, abelian, "_image_order")
    counts = []
    for depth in (16, 32):
        levels = [abelian.FinAb2Group((abelian.CyclicSummand(o, "g"),)) for o in orders_of(depth)]
        maps = [abelian.GroupHom(hi, lo, ((1,),)) for lo, hi in zip(levels, levels[1:])]
        calls[0] = 0
        cold(abelian.inverse_limit)(levels, maps)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0, f"inverse_limit measures {counts} image orders at 16, 32 levels"


@pytest.mark.parametrize("bidegree", ((6, 7), (4, 4), (2, 3)))  # free, torsion, ghost
def test_tower_limit_reads_the_integral_groups_once(monkeypatch, bidegree):
    """A bidegree's universal-coefficient parts are the same at every level,
    so a cold limit reads the integral groups twice, at (p, q) and at
    (p + 1, q) for the Tor part, not once per level."""
    calls = count_calls(monkeypatch, tower, "integral_cohomology")
    cold(CoefficientTower(2).limit)(*bidegree)
    assert calls[0] == 2, f"limit{bidegree} reads the integral groups {calls[0]} times"


@pytest.mark.parametrize("bidegree", ((6, 7), (4, 4), (2, 3)))  # free, torsion, ghost
def test_tower_limit_labels_two_images(monkeypatch, bidegree):
    """A limit reads its image chains by order and builds labeled images
    only for the last two levels whose chains it reads as stable."""
    calls = count_calls(monkeypatch, abelian, "image")
    cold(CoefficientTower(2).limit)(*bidegree)
    assert calls[0] == 2, f"limit{bidegree} labels {calls[0]} images"


def test_les_sweep_builds_no_coefficient_maps(monkeypatch):
    """The long-exact-sequence identity reads only the connecting maps, so a
    cold sweep over the n = 2 tower builds no t or r."""
    calls = count_calls(monkeypatch, tower, "_diagonal")
    ct = CoefficientTower(2)
    identity = cold(ct.les_order_identity)
    assert all(identity(p, q, s) for p, q in ct.bidegrees() for s in range(2, 9))
    assert calls[0] == 0, f"the sweep builds {calls[0]} coefficient maps"


@pytest.mark.parametrize("bidegree", ((6, 7), (4, 4), (2, 3)))  # free, torsion, ghost
def test_tower_limit_composes_no_homomorphisms(monkeypatch, bidegree):
    """A limit carries each composite of its image chains as a matrix and
    builds a homomorphism only around the stable composites it labels."""
    calls = count_calls(monkeypatch, abelian.GroupHom, "compose")
    cold(CoefficientTower(2).limit)(*bidegree)
    assert calls[0] == 0, f"limit{bidegree} composes {calls[0]} homomorphisms"


def test_etale_2adic_cost_doubles_per_index():
    ratio = profile_events(cold(etale_2adic), 7) / profile_events(cold(etale_2adic), 6)
    assert ratio <= MAX_RATIO, f"etale_2adic(n) grows x{ratio:.2f} per n"


def test_nonalgebraic_report_cost_is_linear_in_d():
    ratio = profile_events(cold(nonalgebraic_report), 2046) / profile_events(cold(nonalgebraic_report), 1023)
    assert ratio <= MAX_RATIO, f"nonalgebraic_report(d) grows x{ratio:.2f} from d = 1023 to 2046"


@pytest.mark.parametrize("d", (7, 511, 2046))
def test_boundary_predicates_build_no_report(monkeypatch, d):
    """C7 reads one bit per d: boundary_predicates(d) decomposes d once and
    stops at the first nonzero running sum of the quotient, so it builds
    no (degree, dim) report."""
    reports = count_calls(monkeypatch, quadrics, "NonAlgebraicReport")
    decompositions = count_calls(monkeypatch, quadrics, "decompose_motive")
    assert quadrics.boundary_predicates(d) == (True, True, True)
    assert (reports[0], decompositions[0]) == (0, 1)


def test_norm_quadric_claim_cost_is_linear_in_d():
    """claim_norm_quadric(n) reads the non-algebraic report of
    d = 2^n - 1 and the free flags of each block's Rost table, both O(d),
    not the Θ(d²) assembled table."""
    ratio = profile_events(cold(claim_norm_quadric), 10) / profile_events(cold(claim_norm_quadric), 9)
    assert ratio <= MAX_RATIO, f"claim_norm_quadric(n) grows x{ratio:.2f} from n = 9 to 10"


def test_decompose_motive_cost_is_linear_in_the_bits_of_d():
    """d = 0b1010...10 takes one block per bit but the last two, so its
    decomposition costs O(log d): about ×2 from 20 bits (18 blocks) to 40
    bits (38 blocks)."""
    short, long = int("10" * 10, 2), int("10" * 20, 2)
    ratio = profile_events(decompose_motive, long) / profile_events(decompose_motive, short)
    assert ratio <= MAX_RATIO, f"decompose_motive(d) grows x{ratio:.2f} from 20 to 40 bits"


def presentation_size(p, max_degree):
    """The monomials of degree <= max_degree plus the relation entries:
    every term of every relation times every monomial that keeps the
    product within max_degree."""
    table = monomial_table(p.generator_degrees, max_degree)
    below = [0]
    for monos in table:
        below.append(below[-1] + len(monos))
    return below[-1] + sum(
        len(rel) * below[max_degree - rdeg + 1]
        for rel, rdeg in zip(p.relations, p.relation_degrees())
        if rdeg <= max_degree
    )


def test_graded_ranks_cost_is_linear_in_the_presentation(monkeypatch):
    """Every relation of the norm family is a monomial, so each column is
    split off before the cokernel and every cokernel of n = 6..8 gets a
    matrix with no column.  From n = 7 to 8 the monomials and relation
    entries grow about ×4, and the events may grow as much times the
    headroom MAX_RATIO / 2 for terms that do not grow with them; cokernels
    that take the 2*rho4 columns read about ×5.5."""
    tops = {n: 2 * (2**n - 1) for n in (6, 7, 8)}
    events = {n: profile_events(cold(graded_ranks), builtin_presentation("norm", n), tops[n]) for n in (7, 8)}
    sizes = {n: presentation_size(builtin_presentation("norm", n), tops[n]) for n in (7, 8)}
    bound = MAX_RATIO / 2 * sizes[8] / sizes[7]
    ratio = events[8] / events[7]
    assert ratio <= bound, f"graded_ranks grows x{ratio:.2f} from n = 7 to 8, over x{bound:.2f}"

    columns = []
    cokernel = presentations.cokernel
    monkeypatch.setattr(presentations, "cokernel", lambda hom: columns.append(hom.domain.ngens) or cokernel(hom))
    for n, top in tops.items():
        graded_ranks(builtin_presentation("norm", n), top)
    assert columns and set(columns) == {0}, f"cokernels get {max(columns)} columns"


@pytest.mark.parametrize("coeff", ("2adic", "mod2", "mod2s:3"))
def test_table_walk_calls_view_per_entry_and_cell_per_term(coeff):
    """iter_cohomology runs view once per Rost entry it holds and cell once
    per term of the motive, not once per row: both counts equal their
    closed forms and grow at most MAX_RATIO from d = 1023 to 2046, while
    the rows consumed grow about ×4."""
    counts = []
    for d in (1023, 2046):
        calls = {"view": 0, "cell": 0}

        def view(e):
            calls["view"] += 1
            return (e,)

        def cell(n, j):
            calls["cell"] += 1
            return n, j

        rows = sum(len(cells) for _, segments in iter_cohomology(decompose_motive(d).blocks, coeff, view, cell) for cells, _ in segments)
        blocks = decompose_motive(d).blocks
        held = sum(len(rost_table(n, coeff).entries) if n else 1 for n, _, _ in blocks)
        assert calls == {"view": held, "cell": sum(m for _, _, m in blocks)}, d
        counts.append((calls["view"], calls["cell"], rows))
    (view_small, cell_small, rows_small), (view_large, cell_large, rows_large) = counts
    assert view_large / view_small <= MAX_RATIO, f"view calls grow x{view_large / view_small:.2f}"
    assert cell_large / cell_small <= MAX_RATIO, f"cell calls grow x{cell_large / cell_small:.2f}"
    assert 3.5 <= rows_large / rows_small <= 4.5, f"rows grow x{rows_large / rows_small:.2f}, not about x4"


def line_events(files, fn, *args):
    """The "line" trace events fired in the given source files while fn runs."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code.co_filename in files else None)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class LineCounter:
    """A stdout that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


@pytest.mark.parametrize("coeff", ("2adic", "mod2", "mod2s:3"))
def test_printed_table_runs_no_python_per_row(coeff):
    """`cohomology d --coeff <kind>` runs lines of cli and quadrics per
    degree, block and Rost entry, not per row: from d = 1023 to 2046 the
    lines run grow at most MAX_RATIO while the rows written grow about ×4."""
    files = {cli.__file__, quadrics.__file__}
    counts = []
    for d in (1023, 2046):
        sink = LineCounter()
        with contextlib.redirect_stdout(sink):
            lines = line_events(files, cli.main, ["cohomology", str(d), "--coeff", coeff])
        counts.append((lines, sink.lines))
    (lines_small, rows_small), (lines_large, rows_large) = counts
    assert 3.5 <= rows_large / rows_small <= 4.5, f"rows grow x{rows_large / rows_small:.2f}, not about x4"
    assert lines_large / lines_small <= MAX_RATIO, f"lines run grow x{lines_large / lines_small:.2f} from d = 1023 to 2046"
