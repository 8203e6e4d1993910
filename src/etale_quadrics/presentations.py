"""Graded ranks of finitely presented commutative rings, degree by degree.

A presentation lists generators with their (even) cohomological degrees
and homogeneous integer-coefficient relations.  The degree-k component of
the quotient is the cokernel of the integer matrix whose columns are all
products relation * monomial landing in degree k, computed by 2-local
elimination (`abelian.cokernel`) over the monomial basis; coefficients are
the 2-adic integers ("Z2", free monomial module) or the field of two
elements ("F2").

Relations in scope are few and degrees bounded, so exhaustive monomial
enumeration is exact and there is no need for any rewriting theory.

`presentation(coeff, generators, *relations)` builds one from relations
written as text, each read by `parse_poly`; every built-in family,
products included, is built this way:

    presentation("Z2", (("h", 2), ("c1", 4)), "h^4", "2*c1", "c1*h", "c1^2")

A polynomial is a sum of signed terms, each a product of integers and
powers name^k of generators, with no parentheses; spaces may stand only
next to an operator (+, -, * or ^).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .abelian import CyclicSummand, FinAb2Group, GroupHom, cokernel
from .errors import NonHomogeneousRelation, UnknownFamily
from .graded import Graded2Group, GradedSummand
from .quadrics import assemble_cohomology

Term = tuple[tuple[int, ...], int]  # (exponents, coefficient)
Poly = tuple[Term, ...]


@dataclass(frozen=True)
class RingPresentation:
    coefficients: str  # "Z2" | "F2"
    generators: tuple[tuple[str, int], ...]
    relations: tuple[Poly, ...]

    def __post_init__(self):
        if self.coefficients not in ("Z2", "F2"):
            raise ValueError(f"unknown coefficient ring {self.coefficients!r}")
        names = [name for name, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for _, deg in self.generators:
            if deg < 1:
                raise ValueError("generator degrees must be positive")
        for rel in self.relations:
            self._relation_degree(rel)

    def _relation_degree(self, rel: Poly) -> int:
        degs = {self.monomial_degree(exps) for exps, _ in rel}
        if len(degs) != 1:
            raise NonHomogeneousRelation(
                f"relation {format_poly(rel, self.generator_names)} mixes degrees {sorted(degs)}"
            )
        return degs.pop()

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(deg for _, deg in self.generators)

    def monomial_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(exps, self.generator_degrees))

    def relation_degrees(self) -> tuple[int, ...]:
        return tuple(self._relation_degree(rel) for rel in self.relations)


# ---------------------------------------------------------------------------
# polynomial plumbing


def make_poly(terms: Iterable[Term]) -> Poly:
    acc: dict[tuple[int, ...], int] = {}
    for exps, coeff in terms:
        acc[exps] = acc.get(exps, 0) + coeff
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def monomial_label(exps: tuple[int, ...], names: tuple[str, ...]) -> str:
    parts = []
    for e, name in zip(exps, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


_FACTOR = r"(?:[0-9]+|[A-Za-z][A-Za-z0-9_]*(?:\s*\^\s*[0-9]+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_POLY = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")


def parse_poly(text: str, names: tuple[str, ...]) -> Poly:
    """Parse an integer polynomial like '2*c1' or 'h*c0 - h^4'.  Text
    outside the grammar (a doubled or dangling sign, two numbers or names
    side by side, an empty string) raises ValueError, as does a name
    outside `names`."""
    if not _POLY.fullmatch(text):
        raise ValueError(f"malformed polynomial {text!r}")
    terms = []
    for chunk in re.findall(r"[+-]?[^+-]+", re.sub(r"\s", "", text)):  # spaces stand only next to operators
        coeff = -1 if chunk[0] == "-" else 1
        exps = [0] * len(names)
        for factor in chunk.lstrip("+-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in names:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[names.index(name)] += int(power or 1)
        terms.append((tuple(exps), coeff))
    return make_poly(terms)


def format_poly(poly: Poly, names: tuple[str, ...]) -> str:
    if not poly:
        return "0"
    parts = []
    for exps, coeff in poly:
        mono = monomial_label(exps, names)
        if mono == "1":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        parts.append((coeff < 0, body))
    out = parts[0][1] if not parts[0][0] else "-" + parts[0][1]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def presentation(coeff: str, generators: tuple[tuple[str, int], ...], *relations: str) -> RingPresentation:
    """The presentation over `coeff` on `generators` (name, degree), each
    relation read by parse_poly in the generator names."""
    names = tuple(name for name, _ in generators)
    return RingPresentation(coeff, generators, tuple(parse_poly(rel, names) for rel in relations))


# ---------------------------------------------------------------------------
# graded ranks


def monomial_table(degrees: tuple[int, ...], max_degree: int) -> list[list[tuple[int, ...]]]:
    """Entry k lists the exponent tuples of total degree k, lexicographically
    descending, for every k <= max_degree; built one generator at a time
    from the last."""
    table = [[()]] + [[] for _ in range(max_degree)]
    for step in reversed(degrees):
        table = [
            [(e,) + rest for e in range(k // step, -1, -1) for rest in table[k - e * step]]
            for k in range(max_degree + 1)
        ]
    return table


def graded_ranks(p: RingPresentation, max_degree: int) -> Graded2Group:
    """Free rank and torsion orders of every degree <= max_degree.

    Degree k is presented on its monomial basis modulo the columns
    relation * monomial; generator labels keep the smallest contributing
    monomial.  A monomial is coded as one integer, its exponents the digits
    in base max_degree + 1, so a product's code is the sum of its factors'
    codes, and each column is one dict of its live entries (nonzero in the
    coefficients) by row.

    Before the cokernel, a sparse 2-local reduction splits rows off.  Take
    a column whose only live entry a is in row i, where no live entry of
    row i has a smaller 2-adic valuation than a's, v.  Over the 2-local
    integers every entry of row i is then a multiple of a, so column steps
    clear row i outside that column and change no other row: the group is
    Z/2^v on row i, labeled by its monomial, plus the quotient of the other
    rows by the other columns.  An odd a (v = 0) kills row i; over F2 every
    live entry is odd, so every row split off is killed.  Dropping a row
    leaves columns with a lone entry, so a worklist runs until none
    qualifies; a row's entries stay as they are until it is dropped, so
    its least valuation is read once.  `cokernel` runs on the rows and the
    nonzero columns that remain, and its labels are read off that smaller
    elimination; for every built-in family they are those of the full one.
    The work before the cokernel is linear in the monomials and the
    relation entries.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    names = p.generator_names
    base_order = 0 if p.coefficients == "Z2" else 2
    table = monomial_table(p.generator_degrees, max_degree)
    radix = max_degree + 1

    def code(exps: tuple[int, ...]) -> int:
        c = 0
        for e in exps:
            c = c * radix + e
        return c

    codes = [[code(m) for m in monos] for monos in table]
    relations = []  # (degree, live terms (code, coefficient)), equal monomials summed
    for rel, rdeg in zip(p.relations, p.relation_degrees()):
        if rdeg <= max_degree:
            terms: dict[int, int] = {}
            for exps, coeff in rel:
                c = code(exps)
                terms[c] = terms.get(c, 0) + coeff
            relations.append((rdeg, [(c, a) for c, a in terms.items() if (a % base_order if base_order else a)]))
    entries = []
    for k, monos in enumerate(table):
        if not monos:
            continue
        index = {c: i for i, c in enumerate(codes[k])}
        cols = [
            {index[rc + mc]: a for rc, a in terms}
            for rdeg, terms in relations if rdeg <= k
            for mc in codes[k - rdeg]
        ]
        in_row: list[list[int]] = [[] for _ in monos]  # the columns live in each row
        least = [0] * len(monos)  # the least 2-part of a live entry in each row
        for j, col in enumerate(cols):
            for i, a in col.items():
                in_row[i].append(j)
                if not least[i] or a & -a < least[i]:
                    least[i] = a & -a
        split = [0] * len(monos)  # order 2^v of a row split off, 1 when killed
        work = [j for j, col in enumerate(cols) if len(col) == 1]
        while work:
            col = cols[work.pop()]
            if len(col) != 1:  # emptied since it was queued
                continue
            ((i, a),) = col.items()
            if a & -a != least[i]:
                continue
            split[i] = least[i]
            for j in in_row[i]:
                del cols[j][i]
                if len(cols[j]) == 1:
                    work.append(j)
        entries += (GradedSummand(k, o, monomial_label(monos[i], names)) for i, o in enumerate(split) if o > 1)
        rows = [i for i, o in enumerate(split) if not o]
        cols = [col for col in cols if col]
        module = FinAb2Group(
            tuple(CyclicSummand(base_order, monomial_label(monos[i], names)) for i in rows)
        )
        domain = FinAb2Group(tuple(CyclicSummand(0, f"r{i}") for i in range(len(cols))))
        hom = GroupHom(domain, module, tuple(tuple(col.get(i, 0) for col in cols) for i in rows))
        entries += (GradedSummand(k, sm.order, sm.label) for sm in cokernel(hom).summands)
    return Graded2Group.from_entries(entries)


# ---------------------------------------------------------------------------
# built-in presentations


def _norm_quadric_presentation(n: int) -> RingPresentation:
    if n < 2:
        raise UnknownFamily(f"norm quadric presentations need n >= 2, got {n}")
    return presentation(
        "Z2", (("h", 2), ("rho4", 4)),
        f"h^{2 ** n}", "2*rho4", f"h*rho4^{2 ** (n - 2)}", f"rho4*h^{2 ** (n - 1)}", f"rho4^{2 ** (n - 1)}",
    )


# The G2 rings belong to the twisted flag variety of the rank-2 exceptional
# group.  With b1 = t1^2 + t1*t2 + t2^2 and b2 = t2^3 (degrees 4 and 6), the
# etale ring is Z2[t1,t2]/(2*b1, b1^2, b2^2, b1*b2), the mod-2 Chow ring is
# F2[t1,t2]/(b1^2, b2^2, b1*b2), and GT lifts b1 and b2 beside y, y^2 = 0;
# the products are written out expanded.
_FIXED_FAMILIES = {
    "Q3": ("Z2", (("h", 2), ("c1", 4)), "h^4", "2*c1", "c1*h", "c1^2"),
    "Q5": ("Z2", (("h", 2), ("c1", 4)), "h^6", "2*c1", "c1*h^3", "c1^2"),
    "Q6": (
        "Z2", (("h", 2), ("c1", 4), ("c0", 6)),
        "h^7", "2*c1", "c1*h^4", "c1^2", "h*c0 - h^4", "c0*c1", "c0^2",
    ),
    "G2_flag_etale": (
        "Z2", (("t1", 2), ("t2", 2)),
        "2*t1^2 + 2*t1*t2 + 2*t2^2",
        "t1^4 + 2*t1^3*t2 + 3*t1^2*t2^2 + 2*t1*t2^3 + t2^4",
        "t2^6",
        "t1^2*t2^3 + t1*t2^4 + t2^5",
    ),
    "G2_flag_chow_mod2": (
        "F2", (("t1", 2), ("t2", 2)),
        "t1^4 + 2*t1^3*t2 + 3*t1^2*t2^2 + 2*t1*t2^3 + t2^4",
        "t2^6",
        "t1^2*t2^3 + t1*t2^4 + t2^5",
    ),
    "G2_GT_mod2": ("F2", (("t1", 2), ("t2", 2), ("y", 6)), "t1^2 + t1*t2 + t2^2", "t2^3", "y^2"),
}


def builtin_presentation(family: str, param: Optional[int] = None) -> RingPresentation:
    """Built-in presentations: Q3, Q5, Q6, norm (with index parameter),
    G2_flag_etale, G2_flag_chow_mod2, G2_GT_mod2, each built by
    `presentation` from its relation text.  Any other family raises
    UnknownFamily."""
    if family == "norm":
        if param is None:
            raise UnknownFamily("family 'norm' needs the index parameter")
        return _norm_quadric_presentation(param)
    if family in _FIXED_FAMILIES:
        return presentation(*_FIXED_FAMILIES[family])
    raise UnknownFamily(f"unknown presentation family {family!r}")


def presentation_for_quadric(d: int) -> RingPresentation:
    if d == 3:
        return builtin_presentation("Q3")
    if d == 5:
        return builtin_presentation("Q5")
    if d == 6:
        return builtin_presentation("Q6")
    n = (d + 1).bit_length() - 1
    if d == 2**n - 1 and n >= 3:
        return builtin_presentation("norm", n)
    raise UnknownFamily(f"no built-in presentation for dimension {d}")


def compare_with_assembly(d: int) -> list[dict]:
    """Degree-by-degree equality of the built-in ring presentation with the
    additive assembly from the motive decomposition, up to degree 2d.
    Returns one diff per degree that disagrees."""
    pres = presentation_for_quadric(d)
    table = graded_ranks(pres, 2 * d)
    assembled = assemble_cohomology(d)
    diffs = []
    for deg in range(0, 2 * d + 1):
        a = table.profile(deg)
        b = assembled.profile(deg)
        if a != b:
            diffs.append({"d": d, "degree": deg, "presentation": a, "assembly": b})
    return diffs
