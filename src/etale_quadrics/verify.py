"""Built-in verification sweeps: every closed-form table in the package is
recomputed along an independent route and compared exactly.

Checks are grouped into scopes s2..s9 (roughly: mod-2 ring, integral
classes, the Z/4 table, the Z/2^s tower, the 2-adic Rost table, quadric
assembly, ring presentations, the twisted flag variety).  Each check
returns an exact pass/fail verdict with a machine-readable diff; nothing
here is tolerance-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Any, Callable, Iterable, Optional

from . import mod2, presentations, quadrics, rost, tower


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    scope: str
    passed: bool
    detail: str
    diff: Any = None

    def as_dict(self):
        out = {
            "check": self.check_id,
            "scope": self.scope,
            "passed": self.passed,
            "detail": self.detail,
        }
        if not self.passed:
            out["diff"] = self.diff
        return out


@dataclass
class VerifyOptions:
    dmax: int = 512
    nmax: int = 6

    def __post_init__(self):  # a sweep over no d or no n would pass having compared nothing
        for name in ("dmax", "nmax"):
            if getattr(self, name) < 1:
                raise ValueError(f"VerifyOptions.{name} is {getattr(self, name)}, below 1")


# The levels every per-level check sweeps: 1..MIN_DEPTH, all a 2-adic limit
# reads, and the largest the CLI prints.  A level enters a check only through
# the order 2^s of the free parts, so the levels between show nothing new.
LEVELS = (*range(1, tower.MIN_DEPTH + 1), quadrics.MAX_LEVEL)
_LEVELS_TEXT = f"s=1..{tower.MIN_DEPTH} and s={quadrics.MAX_LEVEL}"


def _printable(x):
    """x with each int that str() refuses (sys.get_int_max_str_digits()) written
    as the string 2^k, or in hex if no power of 2: a diff prints at any level."""
    if isinstance(x, (dict, list, tuple)):
        return {k: _printable(v) for k, v in x.items()} if isinstance(x, dict) else type(x)(map(_printable, x))
    try:
        str(x)
    except ValueError:  # only an int with too many digits
        return f"2^{x.bit_length() - 1}" if x & (x - 1) == 0 else hex(x)
    return x


def _result(check_id, scope, failures, detail):
    return CheckResult(check_id, scope, not failures, detail, diff=_printable(failures) or None)


def _nothing(lo: int, hi: int) -> str:
    """The detail of a check over an empty index range n=lo..hi, hi < lo."""
    return f"nothing checked, the range n={lo}..{hi} is empty"


# ---------------------------------------------------------------------------
# s2: the mod-2 ring and its cycle image


def check_mod2_rings(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(1, opts.nmax + 1):
        top = mod2.top_rho_exponent(n)
        ring = mod2.rost_etale_mod2(n)
        degrees = [e.degree for e in ring.entries]
        if degrees != list(range(top + 1)):
            failures.append({"n": n, "degrees": degrees})
        expected_image = {0} | {2 ** (n + 1) - 2 ** (i + 1) for i in range(n)}
        got = set(mod2.cycle_image_mod2(n))
        if got != expected_image:
            failures.append({"n": n, "cycle_image": sorted(got)})
        flagged = {e.degree for e in ring.entries if e.algebraic}
        if flagged != expected_image:
            failures.append({"n": n, "algebraic": sorted(flagged)})
    return _result(
        "C1", "s2", failures,
        f"mod-2 ring has one class per degree and the stated cycle image for n=1..{opts.nmax}",
    )


# ---------------------------------------------------------------------------
# s3: integral classes from the Bockstein pairing


def check_pairing_fixtures(opts: VerifyOptions) -> CheckResult:
    failures = []
    fixtures = [
        (2, 3, ((0, 1), (2, 3)), ()),
        (2, 7, ((0, 1), (2, 3), (4, 5)), (6,)),
        (2, 0, (), (0,)),
    ]
    for n, q, pairs, free in fixtures:
        got_pairs = tuple((p - 1, p) for p in range(q + 2) if tower.pairing(n, p, q)[1])
        got_free = tuple(p for p in range(q + 2) if tower.pairing(n, p, q)[0])
        if (got_pairs, got_free) != (pairs, free):
            failures.append({"n": n, "q": q, "pairs": got_pairs, "free": got_free})
    return _result("s3.pairs", "s3", failures, "Bockstein pairing matches the fixtures")


def check_torsion_ladder(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(2, min(opts.nmax, 4) + 1):
        top = mod2.top_rho_exponent(n)
        for c in range(1, top + 1):
            grp = tower.integral_cohomology(n, c, c)
            if grp.torsion_orders != (2,) or grp.labels != (f"rho_bar_{c}",):
                failures.append({"n": n, "c": c, "orders": grp.orders, "labels": grp.labels})
        one = tower.integral_cohomology(n, 0, 0)
        pi = tower.integral_cohomology(n, top, top + 1)
        if (one.free_rank, pi.free_rank) != (1, 1) or pi.labels != ("pi",):
            failures.append({"n": n, "bidegrees": ((0, 0), (top, top + 1)),
                             "orders": (one.orders, pi.orders), "labels": (one.labels, pi.labels)})
    return _result(
        "s3.ladder", "s3", failures,
        "one 2-torsion class per degree 1..top on the diagonal, frees at 0 and top"
        + ("" if opts.nmax >= 2 else f" ({_nothing(2, opts.nmax)})"),
    )


def check_twist_remark(opts: VerifyOptions) -> CheckResult:
    """Degrees 2 mod 4 below the top: the twist-matched bidegree carries
    only a ghost class at every finite level and vanishes in the limit."""
    failures = []
    for n in range(2, min(opts.nmax, 4) + 1):
        ct = tower.CoefficientTower(n)
        top = mod2.top_rho_exponent(n)
        for degree in range(2, top, 4):
            p, q = tower.twist_bidegree(degree)
            for s in LEVELS:
                grp = tower.mod_2s_group(n, p, q, s)
                if grp.orders != (2,) or not grp.labels[0].startswith("ghost("):
                    failures.append({"n": n, "degree": degree, "s": s, "orders": grp.orders, "labels": grp.labels})
                    break
            if not ct.limit(p, q).is_trivial:
                failures.append({"n": n, "degree": degree, "limit": "nonzero"})
    return _result(
        "s3.remark", "s3", failures,
        "2 mod 4 degrees below the top are ghost-only and vanish in the limit"
        + ("" if opts.nmax >= 2 else f" ({_nothing(2, opts.nmax)})"),
    )


# ---------------------------------------------------------------------------
# s4: the Z/4 table and the long-exact-sequence bookkeeping


_N2_SPOTS = ((0, 0), (2, 3), (4, 4), (6, 7))


def check_z4_table(opts: VerifyOptions) -> CheckResult:
    failures, groups = [], []
    expected = (4, 2, 2, 4)
    for (p, q), want in zip(_N2_SPOTS, expected):
        grp = tower.mod_2s_group(2, p, q, 2)
        groups.append(grp)
        if prod(grp.torsion_orders) != want or grp.free_rank:
            failures.append({"bidegree": (p, q), "orders": grp.torsion_orders})
    # graded pieces: log2 of the order, i.e. 2,1,1,2 one-dimensional layers
    layers = [sum(o.bit_length() - 1 for o in grp.torsion_orders) for grp in groups]
    if layers != [2, 1, 1, 2]:
        failures.append({"layers": layers})
    return _result("C2", "s4", failures, "Z/4 table orders are (4, 2, 2, 4) at the four even spots")


def check_les_identity(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in (2, 3):
        ct = tower.CoefficientTower(n)
        for p, q in ct.bidegrees():
            for s in LEVELS[1:]:
                if not ct.les_order_identity(p, q, s):
                    failures.append({"n": n, "bidegree": (p, q), "s": s})
    return _result(
        "s4.les", "s4", failures,
        "long-exact-sequence order identity holds at every bidegree and level",
    )


# ---------------------------------------------------------------------------
# s5: the Z/2^s tower and its limit


def check_tower_pattern(opts: VerifyOptions) -> CheckResult:
    got = {s: [tower.mod_2s_group(2, p, q, s).torsion_orders for p, q in _N2_SPOTS] for s in LEVELS}
    failures = [{"s": s, "orders": orders} for s, orders in got.items() if orders != [(2**s,), (2,), (2,), (2**s,)]]
    return _result("C3", "s5", failures, f"tower pattern (Z/2^s, Z/2, Z/2, Z/2^s) holds for {_LEVELS_TEXT}")


def check_limits(opts: VerifyOptions) -> CheckResult:
    failures = []
    ct = tower.CoefficientTower(2)
    for s in LEVELS[1:]:
        _, r = tower.transition_maps(2, 2, 3, s)
        if not r.is_zero:
            failures.append({"s": s, "r_on_ghost": r.matrix})
    for bidegree, want in (((2, 3), (0, ())), ((4, 4), (0, (2,))), ((6, 7), (1, ()))):
        lim = ct.limit(*bidegree)
        if lim.structure() != want:
            failures.append({"limit": bidegree, "orders": lim.orders, "labels": lim.labels})
    return _result(
        "C4", "s5", failures,
        "ghost transitions vanish and the three limits are 0, Z/2, Z2",
    )


def check_factorization_squares(opts: VerifyOptions) -> CheckResult:
    """t after r and r after t are multiplication by 2 at every level."""
    failures = []
    for n in (2, 3):
        ct = tower.CoefficientTower(n)
        for p, q in ct.bidegrees():
            for s in LEVELS[1:]:
                t, r = tower.transition_maps(n, p, q, s)
                squares = (("t*r", t.compose(r), t.codomain), ("r*t", r.compose(t), t.domain))
                for side, square, grp in squares:  # levels are finite: 2 * identity, reduced
                    twice = tuple(tuple(2 % o * (i == j) for j in range(grp.ngens)) for i, o in enumerate(grp.orders))
                    if square.matrix != twice:
                        failures.append({"n": n, "bidegree": (p, q), "s": s, "side": side})
    return _result(
        "s5.squares", "s5", failures,
        "coefficient inclusion after reduction is multiplication by 2",
    )


# ---------------------------------------------------------------------------
# s6: the 2-adic table against the independent tower route


def check_oracle_equivalence(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(1, min(opts.nmax, 5) + 1):
        computed = tower.etale_2adic(n)
        table = rost.rost_etale_table(n)
        a = [(e.degree, e.order, e.label, e.algebraic) for e in computed.entries]
        b = [(e.degree, e.order, e.label, e.algebraic) for e in table.entries]
        if a != b:
            failures.append({"n": n, "tower": a, "closed_form": b})
        expected_set = {(0, 0), (mod2.top_rho_exponent(n), 0)} | {
            (4 * m, 2) for m in range(1, 2 ** (n - 1))
        }
        got_set = {(e.degree, e.order) for e in computed.entries}
        if got_set != expected_set:
            failures.append({"n": n, "degree_order_set": sorted(got_set)})
    return _result(
        "C5", "s6", failures,
        "tower limit equals the closed-form table summand-by-summand (labels and flags included)",
    )


# ---------------------------------------------------------------------------
# s7: quadric decomposition, assembly, and the non-algebraic inventory


def check_decomposition_fixtures(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(2, opts.nmax + 1):
        closed_forms = (
            (2**n - 1, ((n, 0, 1), (n - 1, 1, 2 ** (n - 1) - 1))),  # minimal neighbor: M_n + M_(n-1)*T^j, j >= 1
            (2 ** (n + 1) - 3, ((n, 0, 2**n - 1),)),  # maximal neighbor
            (2 ** (n + 1) - 2, ((n, 0, 2**n),)),  # Pfister quadric
        )
        for d, want in closed_forms:  # blocks are canonical: equal blocks, equal terms
            dec = quadrics.decompose_motive(d)
            if dec.blocks != want:
                failures.append({"d": d, "terms": dec.render()})

    def sweep_ok(d):
        dec = quadrics.decompose_motive(d)
        return (
            dec.reconstructs()
            and all(a > b for a, b in zip(dec.expansion, dec.expansion[1:]))
            and dec.complex_rank() == (d + 1 if d % 2 else d + 2)
        )

    bad = [d for d in range(1, opts.dmax + 1) if not sweep_ok(d)]
    if bad:
        failures.append({"sweep_failures": bad})
    closed = f"for n=2..{opts.nmax}" if opts.nmax >= 2 else f"({_nothing(2, opts.nmax)})"
    return _result(
        "C6", "s7", failures,
        f"closed-form decompositions {closed} and sweep invariants for d<={opts.dmax}",
    )


def check_boundary(opts: VerifyOptions) -> CheckResult:
    def probe(d):
        preds = quadrics.boundary_predicates(d)
        if len(set(preds)) != 1:
            return (d, "disagree", preds)
        if preds[0] != (d >= 7):
            return (d, "wrong side", preds)
        return None

    bad = [x for x in map(probe, range(1, opts.dmax + 1)) if x is not None]
    return _result(
        "C7", "s7", bad,
        f"non-algebraic classes exist exactly for d>=7 (three agreeing predicates, d<={opts.dmax})",
    )


def check_norm_quadrics(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(3, opts.nmax + 1):
        failures += quadrics.claim_norm_quadric(n)
    return _result(
        "C8", "s7", failures,
        f"norm quadrics n=3..{opts.nmax}: 0 mod 4 degrees up to 2^(n+1)-12 are non-algebraic, free part algebraic"
        if opts.nmax >= 3 else f"norm quadrics: {_nothing(3, opts.nmax)}",
    )


def check_neighbors(opts: VerifyOptions) -> CheckResult:
    failures = []
    for n in range(3, opts.nmax + 1):
        for kind in ("minimal", "maximal"):
            failures += quadrics.claim_neighbor(kind, n)
    return _result(
        "C9", "s7", failures,
        f"Pfister neighbors n=3..{opts.nmax}: 0 mod 4 degrees below 2d-8 are non-algebraic"
        if opts.nmax >= 3 else f"Pfister neighbors: {_nothing(3, opts.nmax)}",
    )


_ASSEMBLY_FIXTURES = {
    3: {0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (1, ())},
    6: {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (2, (2,)),
        8: (1, (2,)), 10: (1, (2,)), 12: (1, ()),
    },
    7: {
        0: (1, ()), 2: (1, ()), 4: (1, (2,)), 6: (1, (2,)),
        8: (1, (2, 2)), 10: (1, (2,)), 12: (1, (2,)), 14: (1, ()),
    },
}


def check_assembly_tables(opts: VerifyOptions) -> CheckResult:
    failures = []
    for d, want in _ASSEMBLY_FIXTURES.items():
        got = quadrics.assemble_cohomology(d).profiles()
        if got != want:
            failures.append({"d": d, "profiles": got})
    return _result("s7.tables", "s7", failures, "assembled tables match the frozen fixtures")


def coefficient_change(dims: Iterable[int], levels: Iterable[int]) -> list[dict]:
    """Compare, at each level s, the printed mod-2^s table of each Q^d
    (closed form, its rows read as the CLI streams them) with the sum of
    the tower route's Rost tables, M_n*T^j shifted by 2j and M_0*T^j the
    unit Z/2^s in degree 2j.  Each d is decomposed once and each level's
    Rost tables built once for all d, only that level's held.  Returns one
    diff per d and level that disagree, sorted by (d, s)."""
    motives = [quadrics.decompose_motive(d) for d in dims]
    indices = {n for dec in motives for n, _, _ in dec.blocks} - {0}
    failures = []
    for s in levels:
        tables = {n: tower.mod_2s_table(n, s).entries for n in indices}
        for dec in motives:
            want = sorted(
                [(2 * j, 2**s, "1", (0, j)) for n, j in dec.terms if not n]
                + [(e.degree + 2 * j, e.order, e.label, (n, j)) for n, j in dec.terms if n for e in tables[n]]
            )
            rows = quadrics.iter_cohomology(dec.blocks, f"mod2s:{s}", lambda e: (e.order, e.label))
            got = sorted((c, *row) for c, segments in rows for cells, *views in segments for row in zip(*views, cells))
            if got != want:
                failures.append({"d": dec.d, "s": s, "closed_form": got, "tower": want})
    return sorted(failures, key=lambda f: (f["d"], f["s"]))


def check_coefficient_change(opts: VerifyOptions) -> CheckResult:
    """The printed mod-2^s assembly (universal coefficients on the 2-adic
    closed form) agrees with the tower route's, ghosts included."""
    failures = coefficient_change((3, 4, 5, 6, 7, 8, 15, 31), LEVELS)
    return _result(
        "s7.coeff", "s7", failures,
        f"mod-2^s quadric tables are the 2-adic tables under universal coefficients, ghosts included, for d in {{3,4,5,6,7,8,15,31}} and {_LEVELS_TEXT}",
    )


# ---------------------------------------------------------------------------
# s8: ring presentations against the assembly


def check_presentations(opts: VerifyOptions) -> CheckResult:
    failures = []
    for d in (3, 5, 6, 7, 15, 31):
        failures += presentations.compare_with_assembly(d)
    report = quadrics.nonalgebraic_report(7)
    if report.dims != ((4, 1),):
        failures.append({"d": 7, "quotient": report.dims})
    return _result(
        "C10", "s8", failures,
        "presentations match the assembly for d in {3,5,6,7,15,31}; the d=7 quotient is Z/2 in degree 4 only",
    )


# ---------------------------------------------------------------------------
# s9: the twisted flag variety of the rank-2 exceptional group


def check_flag_variety(opts: VerifyOptions) -> CheckResult:
    failures = []
    weyl = presentations.presentation("F2", (("t1", 2), ("t2", 2)), "t1^2 + t1*t2 + t2^2", "t2^3")
    weyl_table = presentations.graded_ranks(weyl, 8)
    series = {d: len(weyl_table.at(d)) for d in (0, 2, 4, 6)}
    if series != {0: 1, 2: 2, 4: 2, 6: 1}:
        failures.append({"weyl_series": series})
    gt = presentations.graded_ranks(presentations.builtin_presentation("G2_GT_mod2"), 12)
    if len(gt.entries) != 12:
        failures.append({"gt_total": len(gt.entries)})
    chow = presentations.graded_ranks(
        presentations.builtin_presentation("G2_flag_chow_mod2"), 12
    )
    if len(chow.entries) != 18:
        failures.append({"chow_total": len(chow.entries)})
    etale = presentations.graded_ranks(presentations.builtin_presentation("G2_flag_etale"), 64)
    if etale.profile(4) != (2, (2,)):
        failures.append({"etale_deg4": etale.profile(4)})
    bad_orders = [
        (e.degree, e.order) for e in etale.torsion_entries if e.order != 2
    ]
    if bad_orders:
        failures.append({"etale_torsion": bad_orders})
    # torsion comes from the doubled degree-4 relation: per degree it has
    # the dimension of the Weyl quotient four degrees down
    for k in range(0, 16, 2):
        torsion_dim = len([e for e in etale.at(k) if e.order])
        shifted = len(weyl_table.at(k - 4)) if k >= 4 else 0
        if torsion_dim != shifted:
            failures.append({"torsion_bookkeeping": {"degree": k, "dim": torsion_dim}})
    return _result(
        "C11", "s9", failures,
        "flag-variety dimensions 6/12/18, degree 4 is Z2^2 + Z/2, and all torsion through degree 64 is Z/2",
    )


# ---------------------------------------------------------------------------
# the runner


_CHECKS: tuple[tuple[str, Callable[[VerifyOptions], CheckResult]], ...] = (
    ("s2", check_mod2_rings),
    ("s3", check_pairing_fixtures),
    ("s3", check_torsion_ladder),
    ("s3", check_twist_remark),
    ("s4", check_z4_table),
    ("s4", check_les_identity),
    ("s5", check_tower_pattern),
    ("s5", check_limits),
    ("s5", check_factorization_squares),
    ("s6", check_oracle_equivalence),
    ("s7", check_decomposition_fixtures),
    ("s7", check_boundary),
    ("s7", check_norm_quadrics),
    ("s7", check_neighbors),
    ("s7", check_assembly_tables),
    ("s7", check_coefficient_change),
    ("s8", check_presentations),
    ("s9", check_flag_variety),
)

SCOPES = ("all",) + tuple(sorted({scope for scope, _ in _CHECKS}))


def run_checks(scope: str = "all", opts: Optional[VerifyOptions] = None) -> list[CheckResult]:
    if opts is None:
        opts = VerifyOptions()
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose one of {', '.join(SCOPES)}")
    results = []
    for check_scope, fn in _CHECKS:
        if scope in ("all", check_scope):
            results.append(fn(opts))
    return results
