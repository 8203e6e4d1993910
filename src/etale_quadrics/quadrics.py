"""Motive decomposition of real anisotropic quadrics and additive assembly.

Every anisotropic quadric over the reals is excellent, so its motive
splits into Tate twists of Rost motives.  The split is governed by the
alternating 2-power expansion of D = d + 2: pick n with 2^n < D <= 2^(n+1),
take the block M_n tensor T^j for the next m = D - 2^n twists, and recurse
on 2^(n+1) - D.  A residual binary form (D = 2) contributes the rank-one
Artin piece M_0 (the motive of the complex point pair), residual D <= 1 is
the empty quadric.

Additively the etale cohomology of the quadric, with mod2, mod2s:<s> or
2adic coefficients, is the sum of the shifted Rost tables of that kind:
M_n tensor T^j moves every class up by (2j in degree, j in twist).
Torsion classes keep the algebraicity of their own summand, and the
quotient by the cycle image is computed per degree from those flags.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, count
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import rost
from .errors import InvalidDimension, require_int
from .graded import Graded2Group, GradedSummand
from .mod2 import rost_etale_mod2, top_rho_exponent


class MotiveDecomposition(NamedTuple):
    """The motive of Q^d as run-length blocks (n, j0, m), M_n tensor T^j for
    j0 <= j < j0 + m, one per step of the alternating 2-power expansion:
    m >= 1, the j0 contiguous from 0 and the n strictly decreasing, so the
    O(log d) blocks are canonical and cost O(log d).  `terms` expands them
    into the (n, j) pairs of the summands, about d/2 of them."""

    d: int
    blocks: tuple[tuple[int, int, int], ...]
    residual: int  # terminal form dimension, 0 or 1

    @property
    def expansion(self) -> tuple[int, ...]:
        return tuple(n for n, _, _ in self.blocks)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, j) for n, j0, m in self.blocks for j in range(j0, j0 + m))

    def render(self) -> str:
        return " + ".join(f"M{n}" if j == 0 else f"M{n}*T{j}" for n, j in self.terms)

    def alternating_sum(self) -> int:
        return sum((-1) ** i * 2 ** (n + 1) for i, n in enumerate(self.expansion))

    def reconstructs(self) -> bool:
        """d + 2 = alternating sum of the 2-powers, up to the signed
        residual 0 or 1."""
        sign = (-1) ** len(self.blocks)
        return self.d + 2 == self.alternating_sum() + sign * self.residual

    def complex_rank(self) -> int:
        return 2 * sum(m for _, _, m in self.blocks)


def decompose_motive(d: int) -> MotiveDecomposition:
    require_int(d, 1, "quadric dimension", InvalidDimension)
    blocks = []
    j0 = 0
    D = d + 2
    while D > 1:
        n = (D - 1).bit_length() - 1  # 2^n < D <= 2^(n+1)
        m = D - (1 << n)
        blocks.append((n, j0, m))
        j0 += m
        D = (1 << (n + 1)) - D
    return MotiveDecomposition(d, tuple(blocks), residual=D)


# ---------------------------------------------------------------------------
# additive assembly


MAX_LEVEL = 14284  # the largest level s whose order 2^s prints under the default 4300-digit int-to-str limit


def parse_coefficients(spec: str) -> tuple[str, Optional[int]]:
    """(kind, level) of a coefficient spec: mod2, 2adic, or mod2s:<s> with
    <s> ASCII decimal digits, leading zeros ignored, naming a level in
    1..MAX_LEVEL.  The digits are counted before int() reads them, since
    int() refuses more than 4300."""
    if spec in ("mod2", "2adic"):
        return spec, None
    level = re.fullmatch(r"mod2s:(0*([0-9]+))", spec)
    if level is None:
        raise ValueError(f"unknown coefficient spec {spec!r} (use mod2 | mod2s:<s> | 2adic)")
    typed, digits = level.groups()
    if len(digits) > len(str(MAX_LEVEL)) or not 1 <= int(digits) <= MAX_LEVEL:
        raise ValueError(f"coefficient level {typed} is outside 1..{MAX_LEVEL}")
    return "mod2s", int(digits)


def rost_table(n: int, coeff: str = "2adic") -> Graded2Group:
    """Cohomology of the index-n Rost motive with the given coefficients,
    every entry with source (n, 0): the 2-adic table of `rost`, the mod-2
    table of `mod2`, or for Z/2^s the 2-adic table under universal
    coefficients: Z2 becomes Z/2^s, each Z/2 stays, and each degree
    c = 2 mod 4 with 0 < c < top gains a ghost Z/2, Tor of rho_bar_(c+1)."""
    kind, s = parse_coefficients(coeff)
    if kind == "mod2":
        return rost_etale_mod2(n)
    table = rost.rost_etale_table(n)  # checks n
    if kind == "2adic":
        return table
    entries = [e._replace(order=e.order or 2**s, algebraic=None) for e in table.entries]
    entries += (GradedSummand(c, 2, f"ghost(rho_bar_{c + 1})", None, (n, 0)) for c in range(2, top_rho_exponent(n), 4))
    return Graded2Group.from_entries(entries)


def iter_cohomology(
    blocks: Iterable[tuple[int, int, int]], coeff: str = "2adic",
    view: Callable[[GradedSummand], tuple] = lambda e: (e,), cell: Callable[[int, int], Any] = lambda n, j: (n, j),
) -> Iterator[tuple[int, list[tuple[Sequence, ...]]]]:
    """The cohomology of a motive given by its blocks (n, j0, m), the sum
    of the M_n tensor T^j for j0 <= j < j0 + m, with the n strictly
    decreasing: decompose_motive(d).blocks for the dimension-d quadric, or
    ((n, 0, 1),) for the Rost motive M_n.  It comes as one group
    (c, segments) per nonempty degree c, degrees ascending, up to the top
    degree read off the blocks: M_0 tensor T^j is the algebraic unit class
    in degree 2j, and M_n tensor T^j moves every class e of rost_table(n)
    up by 2j in degree.  A segment (cells, *fields) is a run of rows in
    degree c as aligned slices: the k-th row has the term's cell(n, j) as
    cells[k] and view(e), a tuple of fields, as the fields' k-th items.
    The rows come in the order of graded._sort_key with no sort: per
    degree, the blocks (n descending), j ascending, then the entries at
    c - 2j in the table's label order.  Each block cuts its entries of one
    parity, stably sorted by degree descending, into runs: maximal
    stretches with one degree step, a tie in degree ending one.  The rows
    of degree c in a run are then one slice of its views and one extended
    slice, of stride step/2, of the block's cells, found by arithmetic.
    Every Rost table makes at most two runs per parity (2-adic: pi and the
    top torsion class, then step 4 down to the unit; mod2 and mod2s: step
    2), so a table costs Θ(degrees·blocks) Python steps and the rows'
    slices in C: view runs once per entry of the Rost tables held, cell
    once per term, and nothing once per row."""
    kind, s = parse_coefficients(coeff)
    unit_order = 2**s if kind == "mod2s" else (2 if kind == "mod2" else 0)
    unit = GradedSummand(0, unit_order, "1", True, (0, 0))  # M_0 tensor T^0
    runs = ([], [])  # per parity of c: (first degree in M_n tensor T^j0, cell stride, rows, m - 1, cells, fields) per run
    top = -1
    for n, j0, m in blocks:
        table = sorted(rost_table(n, coeff).entries if n else (unit,), key=lambda e: -e.degree)  # stable
        cells = [cell(n, j) for j in range(j0, j0 + m)]
        for p in (0, 1):  # the entries of even and of odd degree
            half = [e for e in table if e.degree & 1 == p]
            i = 0
            while i < len(half):  # one run per pass
                step = half[i].degree - half[i + 1].degree if i + 1 < len(half) else 0  # 0: a tie or the last
                k = i + 1
                while step and k < len(half) and half[k - 1].degree - half[k].degree == step:
                    k += 1
                fields = tuple(zip(*map(view, half[i:k])))
                runs[p].append((half[i].degree + 2 * j0, step // 2 or 1, k - i, m - 1, cells, fields))
                i = k
        top = max(top, top_rho_exponent(n) + 2 * (j0 + m - 1))  # the top class of M_n tensor T^(j0+m-1)
    for c in range(top + 1):
        segments = []
        for g, h, length, last, cells, fields in runs[c & 1]:
            x = (c - g) >> 1  # the cell index of the run's first row, k-th row at x + h k
            lo, hi = max(0, -(x // h)), min(length, (last - x) // h + 1)
            if lo < hi:
                segments.append((cells[x + h * lo : x + h * hi : h], *[f[lo:hi] for f in fields]))
        if segments:
            yield c, segments


def assemble_cohomology(d: int, coeff: str = "2adic") -> Graded2Group:
    """The rows of iter_cohomology as a Graded2Group, already in order, each
    entry's source (n, j) the default cell of its term."""
    entries = (
        GradedSummand(c, e.order, e.label, e.algebraic, source)
        for c, segments in iter_cohomology(decompose_motive(d).blocks, coeff)
        for cells, views in segments for source, e in zip(cells, views)
    )
    return Graded2Group(tuple(entries))


class NonAlgebraicReport(NamedTuple):
    """Per-degree dimension of torsion / (algebraic torsion).  The free
    part is generated by cycle classes, so the quotient is torsion-only;
    degrees 2 mod 4 come from odd Tate twists and are reported alongside
    the 0 mod 4 column."""

    d: int
    dims: tuple[tuple[int, int], ...]  # (degree, dim), nonzero dims only

    @property
    def has_nonalgebraic(self) -> bool:
        return bool(self.dims)


def _nonalgebraic_sums(d: int, blocks: Iterable[tuple[int, int, int]]) -> Iterator[int]:
    """Per-degree dimension of the non-algebraic quotient of Q^d, lazily,
    one running sum per degree 0, 2, ..., 2d, one block (n, j0, m) of its
    decomposition at a time: a non-algebraic degree c of M_n adds +1 at
    c + 2 j0 and -1 at c + 2 (j0 + m) of a difference array, one flat list
    indexed by degree / 2 (every degree here is even).  The top class of
    M_n tensor T^(j0+m-1) sits in degree 2^(n+1) - 2 + 2 (j0 + m - 1) <= 2d
    and c <= 2^(n+1) - 4, so every index is at most d.  The block indices
    strictly decrease, so the 2^(n-1) of the blocks sum to at most d + 2
    and the array costs O(d)."""
    diff = [0] * (d + 1)
    for n, j0, m in blocks:
        if n < 1:
            continue
        for deg in rost.nonalgebraic_quotient(n):
            diff[deg // 2 + j0] += 1
            diff[deg // 2 + j0 + m] -= 1
    return accumulate(diff)


def nonalgebraic_report(d: int) -> NonAlgebraicReport:
    """Non-algebraic torsion classes of Q^d per degree: every running sum
    of _nonalgebraic_sums, the nonzero ones paired with their degrees in C
    rather than by a loop over the halves, so the report costs O(d)."""
    acc = list(_nonalgebraic_sums(d, decompose_motive(d).blocks))  # rejects an invalid d first
    return NonAlgebraicReport(d, tuple(compress(zip(count(0, 2), acc), acc)))


# ---------------------------------------------------------------------------
# claims about the non-algebraic inventory


def claim_neighbor(kind: str, n: int) -> list[dict]:
    """The claim for index n >= 3 about the minimal (d = 2^n - 1) or the
    maximal (d = 2^(n+1) - 3) Pfister neighbor, or the norm quadric, which
    is the minimal neighbor: every degree c = 0 mod 4 with 4 <= c <= 2d - 10
    carries a non-algebraic class, and for the norm quadric the free part
    is also fully algebraic.  The free classes are read per block off
    rost.free_classes, the flags each Rost table is built from, with no
    table built (the M_0 unit is algebraic by construction), so each claim
    costs O(d).  Returns the failures, empty when the claim holds."""
    require_int(n, 3, "claim index n")
    if kind not in ("minimal", "maximal", "norm"):
        raise ValueError(f"unknown neighbor kind {kind!r}")
    d = 2 ** (n + 1) - 3 if kind == "maximal" else 2**n - 1
    claim = f"norm quadric n={n} (d={d})" if kind == "norm" else f"{kind} neighbor n={n} (d={d})"
    nonalgebraic = dict(nonalgebraic_report(d).dims)
    missing = [c for c in range(4, 2 * d - 9, 4) if c not in nonalgebraic]
    failures = [{"claim": claim, "missing_degrees": missing}] if missing else []
    free = sorted(
        e.degree + 2 * j
        for k, j0, m in decompose_motive(d).blocks if k
        for e in rost.free_classes(k) if not e.algebraic
        for j in range(j0, j0 + m)
    ) if kind == "norm" else []
    if free:
        failures.append({"claim": claim, "nonalgebraic_free_degrees": free})
    return failures


def boundary_predicates(d: int) -> tuple[bool, bool, bool]:
    """Three independent readings of "the quadric has a non-algebraic
    class", off one decomposition of d: the computed quotient, whose
    running sums are read only up to the first nonzero one (degree 4 for
    every d >= 7), so no (degree, dim) pair is built; the presence of a
    Rost index >= 3 among the blocks; and the dimension bound d >= 7."""
    blocks = decompose_motive(d).blocks
    return any(_nonalgebraic_sums(d, blocks)), any(n >= 3 for n, _, _ in blocks), d >= 7
