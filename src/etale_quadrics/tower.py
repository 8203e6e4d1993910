"""Integral and mod-2^s cohomology of Rost motives from the Bockstein action.

This is the independent computation route.  Within one weight, every basis
monomial either maps isomorphically onto the next-degree monomial under the
Bockstein (a *pair*: the source dies integrally, the target witnesses a
2-torsion class) or is a *free class* (Bockstein-closed, not a Bockstein
image) contributing a free 2-adic summand.  Which of the two a degree p of
weight q is follows from (n, p, q) in closed form, so one bidegree costs
O(1) and a table costs O(its size); the rule is cross-checked against the
Bockstein homology at every bidegree it answers.  From that integral answer
the groups with Z/2^s coefficients follow by universal coefficients

    H^p(Z/2^s) = H^p(Z) (x) Z/2^s  (+)  Tor(H^(p+1)(Z), Z/2^s),

with the Tor part made of "ghost" generators whose tower transition maps
vanish, so they die in the 2-adic limit.  The parts of a bidegree are the
same at every level s and only the free part's order, 2^s, depends on it,
so every level and every coefficient map is read off one list of parts.
Deriving the tower this way removes every extension ambiguity; the
long-exact-sequence order identity is kept as a verification invariant,
not as the construction.

Every function here is pure and every value immutable.  Only the parts
of each bidegree are memoised, without bound: there are O(2^n) of them,
whatever the depth.  Groups and maps are built where a caller reads them:
the long-exact-sequence check builds only connecting maps, and a limit
only the MIN_DEPTH levels it reads and their reductions.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from . import mod2
from .abelian import WINDOW, CyclicSummand, FinAb2Group, GroupHom, cokernel, inverse_limit, kernel
from .errors import HigherTorsionAmbiguity
from .graded import Graded2Group, GradedSummand


# ---------------------------------------------------------------------------
# Bockstein pairing in one weight


def pairing(n: int, p: int, q: int) -> tuple[bool, bool]:
    """(free, target) of degree p in weight q: whether the monomial
    rho^p tau^(q-p) is a free class, and whether it is the Bockstein image
    of the monomial one degree down, the target of a pair."""
    mod2._check_index(n)
    if q < 0:
        raise ValueError("weight must be non-negative")
    top = mod2.top_rho_exponent(n)
    free = (p == 0 and q % 2 == 0) or (p == top and q >= top and (q - top) % 2 == 1)
    target = 1 <= p <= min(q, top) and (q - p) % 2 == 0
    return free, target


def _bockstein_homology_dim(n: int, p: int, q: int) -> int:
    """dim (ker B / im B) at bidegree (p, q), computed directly from the
    Bockstein of the basis monomial rho^p tau^(q-p) and of the one below
    it, rho^(p-1) tau^(q-p+1), rather than from the pairing."""
    if not 0 <= p <= min(q, mod2.top_rho_exponent(n)):
        return 0  # no basis monomial here
    closed = mod2.bockstein(p, q - p, n) is None
    hit = p > 0 and mod2.bockstein(p - 1, q - p + 1, n) is not None
    return closed - hit


def integral_cohomology(n: int, p: int, q: int) -> FinAb2Group:
    """2-local integral motivic cohomology at bidegree (p, q), p <= q + 1.

    Read off the pairing rule in O(1): free rank 1 when degree p is a free
    class, one Z/2 summand when p is the target of a pair.  The free rank is
    cross-checked against the Bockstein homology; a mismatch would mean the
    answer needs higher-torsion input and aborts instead of guessing.
    """
    if p > q + 1:
        raise ValueError(f"bidegree ({p},{q}) outside the pairing region p <= q+1")
    free, target = pairing(n, p, q)
    if p <= q and _bockstein_homology_dim(n, p, q) != free:
        raise HigherTorsionAmbiguity(
            f"Bockstein homology disagrees with the pairing at ({p},{q}), n={n}"
        )
    summands = []
    if free:
        summands.append(CyclicSummand(0, _free_label(n, p, q)))
    if target:
        summands.append(CyclicSummand(2, _torsion_label(p, q)))
    return FinAb2Group(tuple(summands))


def _free_label(n: int, p: int, q: int) -> str:
    top = mod2.top_rho_exponent(n)
    if p == 0:
        return "1" if q == 0 else f"tau^{q}"
    # p == top: the free class in the top degree is the cycle class of the
    # torsion-free Chow generator
    return "pi" if q == top + 1 else f"tau^{q - top - 1}*pi"


def _torsion_label(p: int, q: int) -> str:
    return f"rho_bar_{p}" if q == p else f"tau^{q - p}*rho_bar_{p}"


# ---------------------------------------------------------------------------
# universal-coefficient groups and transition maps


# What a part of each kind is at level s: its order, and its entries in t
# (level s-1 -> s) and r (level s -> s-1).  A free class gives Z (x) Z/2^s,
# which t multiplies by 2; a ghost, Tor(Z/2, Z/2^s), dies under r.
_Kind = namedtuple("_Kind", "order t r")
_KINDS = {
    "free": _Kind(lambda s: 2**s, 2, 1),
    "tors": _Kind(lambda s: 2, 0, 1),
    "ghost": _Kind(lambda s: 2, 1, 0),
}


@lru_cache(maxsize=None, typed=True)  # typed: True is refused, not read as 1
def _uct_parts(n: int, p: int, q: int) -> tuple[tuple[str, str, str], ...]:
    """(kind, label, base) of each summand of H^(p,q) with Z/2^s
    coefficients, p <= q + 1: the same list at every level s.

    Tensor parts inherit the integral label; Tor parts are marked "ghost".
    Outside p <= q the Tor input would sit beyond the model and the
    integral group there is zero, so only tensor parts can appear.
    """
    here = integral_cohomology(n, p, q).summands
    parts = [("tors" if sm.order else "free", sm.label, sm.label) for sm in here]
    if p <= q:  # otherwise (p+1, q) falls outside the pairing region
        up = integral_cohomology(n, p + 1, q).summands
        parts += (("ghost", f"ghost({sm.label})", sm.label) for sm in up if sm.order)
    return tuple(parts)


def _group_of(parts: tuple[tuple[str, str, str], ...], s: int) -> FinAb2Group:
    return FinAb2Group(tuple(CyclicSummand(_KINDS[kind].order(s), label) for kind, label, _ in parts))


def _diagonal(dom: FinAb2Group, cod: FinAb2Group, values: list[int]) -> GroupHom:
    k = len(values)
    return GroupHom(dom, cod, tuple(tuple(v if i == j else 0 for j in range(k)) for i, v in enumerate(values)))


def _check_region(p: int, q: int) -> None:
    if p > q:
        raise ValueError(f"bidegree ({p},{q}) outside the region p <= q")


def mod_2s_group(n: int, p: int, q: int, s: int) -> FinAb2Group:
    """Cohomology at bidegree (p, q) with Z/2^s coefficients, by universal
    coefficients over the integral answer.  Requires p <= q so that the
    Tor input one degree up stays inside the model."""
    if s < 1:
        raise ValueError("coefficient level s must be >= 1")
    _check_region(p, q)
    return _group_of(_uct_parts(n, p, q), s)


def transition_maps(n: int, p: int, q: int, s: int) -> tuple[GroupHom, GroupHom]:
    """(t, r) at bidegree (p, q) between coefficient levels.

    t: level s-1 -> level s, induced by the coefficient inclusion
       Z/2^(s-1) -> Z/2^s (multiplication by 2);
    r: level s -> level s-1, induced by the coefficient reduction.
    Requires p <= q, as mod_2s_group does.
    """
    if s < 2:
        raise ValueError("transition maps need s >= 2")
    _check_region(p, q)
    parts = _uct_parts(n, p, q)
    lo, hi = _group_of(parts, s - 1), _group_of(parts, s)
    t = _diagonal(lo, hi, [_KINDS[kind].t for kind, _, _ in parts])
    r = _diagonal(hi, lo, [_KINDS[kind].r for kind, _, _ in parts])
    return t, r


def _delta(n: int, p: int, q: int, s: int) -> GroupHom:
    """The connecting map delta: level 1 at (p, q) -> level s-1 at (p+1, q)
    of 0 -> Z/2^(s-1) -> Z/2^s -> Z/2 -> 0.  It factors as the
    mod-2^(s-1) reduction of the integral Bockstein, so it sends a ghost
    generator to the matching integral torsion class one degree up and
    kills everything in the image of the reduction.  Requires p <= q, as
    mod_2s_group does."""
    _check_region(p, q)
    parts, up = _uct_parts(n, p, q), _uct_parts(n, p + 1, q)
    rows = tuple(
        tuple(int(kind == "ghost" and up_kind == "tors" and base == up_base) for kind, _, base in parts)
        for up_kind, _, up_base in up
    )
    return GroupHom(_group_of(parts, 1), _group_of(up, s - 1), rows)


# ---------------------------------------------------------------------------
# the coefficient tower


# The ghost chain settles one level late, so a limit reads two stabilized levels
# only from WINDOW + 2 levels on: the levels a limit builds.
MIN_DEPTH = WINDOW + 2


@dataclass(frozen=True)
class CoefficientTower:
    """All Z/2^s groups of one Rost motive over its bidegrees, with the
    transition maps and the long-exact-sequence bookkeeping."""

    n: int

    def __post_init__(self):
        mod2._check_index(self.n)

    def bidegrees(self) -> list[tuple[int, int]]:
        top = mod2.top_rho_exponent(self.n)
        out = []
        for p in range(0, top + 2):
            for q in (p, p + 1):
                out.append((p, q))
        return out

    def les_order_identity(self, p: int, q: int, s: int) -> bool:
        """|H^p(Z/2^s)| = |ker(delta at p)| * |coker(delta at p-1)| with the
        connecting maps computed from the ghost bookkeeping."""
        if s < 2:
            raise ValueError("the identity compares level s with level s-1")
        delta_p = _delta(self.n, p, q, s)
        coker_grp = cokernel(_delta(self.n, p - 1, q, s)) if p else mod_2s_group(self.n, p, q, s - 1)
        rhs = (*kernel(delta_p).torsion_orders, *coker_grp.torsion_orders)
        return prod(mod_2s_group(self.n, p, q, s).torsion_orders) == prod(rhs)

    def limit(self, p: int, q: int) -> FinAb2Group:
        """Inverse limit at (p, q) along the reductions r, read off one list
        of parts: levels 1..MIN_DEPTH, whose limit every deeper tower shares."""
        _check_region(p, q)
        parts = _uct_parts(self.n, p, q)
        levels = [_group_of(parts, s) for s in range(1, MIN_DEPTH + 1)]
        r = [_KINDS[kind].r for kind, _, _ in parts]
        return inverse_limit(levels, [_diagonal(hi, lo, r) for lo, hi in zip(levels, levels[1:])])


def twist_bidegree(degree: int) -> tuple[int, int]:
    """Bidegree carrying the twist-matched coefficient sheaf in an even
    cohomological degree: (4m, 4m) or (4m+2, 4m+3)."""
    if degree % 2:
        raise ValueError("twisted coefficient degrees are even")
    return (degree, degree) if degree % 4 == 0 else (degree, degree + 1)


def etale_2adic(n: int) -> Graded2Group:
    """2-adic etale cohomology of the index-n Rost motive in the twisted
    even-degree grading, assembled as the inverse limit of the reduction
    tower in every degree.  Algebraicity flags come from the mod-2 cycle
    image degrees."""
    tower = CoefficientTower(n)
    algebraic_degrees = mod2.cycle_image_mod2(n)
    entries = []
    for degree in range(0, mod2.top_rho_exponent(n) + 1, 2):
        limit = tower.limit(*twist_bidegree(degree))
        entries += (GradedSummand(degree, sm.order, sm.label, degree in algebraic_degrees) for sm in limit.summands)
    return Graded2Group.from_entries(entries)


def mod_2s_table(n: int, s: int) -> Graded2Group:
    """The index-n Rost table with Z/2^s coefficients, one mod_2s_group per even degree."""
    mod2._check_index(n)  # a negative n would give an empty table
    return Graded2Group.from_entries(
        GradedSummand(c, sm.order, sm.label, None, (n, 0))
        for c in range(0, mod2.top_rho_exponent(n) + 1, 2)
        for sm in mod_2s_group(n, *twist_bidegree(c), s).summands
    )
