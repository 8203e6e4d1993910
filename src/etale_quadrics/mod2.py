"""Mod-2 motivic model of the Rost motive of a norm quadric over the reals.

The bigraded mod-2 cohomology is one-dimensional in each bidegree (p, q)
of the region p <= q, spanned by the monomial rho^p tau^(q-p), where rho
is the degree-1 weight-1 class of -1 and tau the degree-0 weight-1 class,
truncated by rho^(2^(n+1) - 1) = 0.  The Bockstein acts as a derivation
with bockstein(tau) = rho and bockstein(rho) = 0.

Also here: the mod-2 etale ring (a truncated polynomial ring on rho), the
degrees hit by the mod-2 cycle map, and the non-algebraic complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidIndex


def top_rho_exponent(n: int) -> int:
    """Largest surviving power of rho for the index-n Rost motive."""
    return 2 ** (n + 1) - 2


def _check_index(n: int) -> None:
    """The package's one Rost-index check: an int (not a bool) >= 1.
    The formulas are exact for every such n; table size bounds belong
    to the CLI."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidIndex(f"Rost index must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class Monomial:
    """rho^rho_exp * tau^tau_exp; degree = rho_exp, weight = rho_exp + tau_exp."""

    rho_exp: int
    tau_exp: int

    def __post_init__(self):
        if self.rho_exp < 0 or self.tau_exp < 0:
            raise ValueError("exponents must be non-negative")

    @property
    def degree(self) -> int:
        return self.rho_exp

    @property
    def weight(self) -> int:
        return self.rho_exp + self.tau_exp

    def label(self) -> str:
        parts = []
        if self.rho_exp:
            parts.append("rho" if self.rho_exp == 1 else f"rho^{self.rho_exp}")
        if self.tau_exp:
            parts.append("tau" if self.tau_exp == 1 else f"tau^{self.tau_exp}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class BigradedF2Module:
    """Bidegree-indexed basis of the mod-2 model for one Rost index."""

    n: int

    def __post_init__(self):
        _check_index(self.n)

    @property
    def top(self) -> int:
        return top_rho_exponent(self.n)

    def basis(self, p: int, q: int) -> tuple[Monomial, ...]:
        if p > q:
            raise ValueError(
                f"bidegree ({p},{q}) outside the modeled region p <= q"
            )
        if 0 <= p <= min(q, self.top):
            return (Monomial(p, q - p),)
        return ()

    def dimension(self, p: int, q: int) -> int:
        return len(self.basis(p, q))


def bockstein(m: Monomial, n: int) -> Optional[Monomial]:
    """Bockstein of a monomial in the index-n model; None means zero.

    Derivation rule over F2: the image is rho^(a+1) tau^(b-1) when the tau
    exponent b is odd, zero when b is even or the rho truncation applies.
    """
    _check_index(n)
    if m.rho_exp > top_rho_exponent(n):
        raise ValueError(f"monomial exceeds the rho truncation for n={n}")
    if m.tau_exp % 2 == 0:
        return None
    if m.rho_exp + 1 > top_rho_exponent(n):
        return None
    return Monomial(m.rho_exp + 1, m.tau_exp - 1)


@dataclass(frozen=True)
class Mod2EtaleRing:
    """Truncated polynomial ring on rho: one basis class per degree
    0 .. 2^(n+1) - 2."""

    n: int

    def __post_init__(self):
        _check_index(self.n)

    @property
    def top_degree(self) -> int:
        return top_rho_exponent(self.n)

    def degrees(self) -> range:
        return range(self.top_degree + 1)

    def dimension(self, degree: int) -> int:
        return 1 if 0 <= degree <= self.top_degree else 0

    def basis_label(self, degree: int) -> str:
        if not self.dimension(degree):
            raise ValueError(f"degree {degree} has no basis class")
        return "1" if degree == 0 else ("rho" if degree == 1 else f"rho^{degree}")


def rost_etale_mod2(n: int) -> Mod2EtaleRing:
    """Mod-2 etale cohomology ring of the index-n Rost motive."""
    return Mod2EtaleRing(n)


@dataclass(frozen=True)
class CycleClassMod2:
    """One mod-2 cycle class: a Chow generator and the power of rho it hits."""

    label: str
    chow_index: Optional[int]  # None for the unit class
    degree: int  # etale degree of the rho power
    chow_weight: int  # codimension of the Chow class
    tau_exponent: int  # degree + tau_exponent = chow_weight


@dataclass(frozen=True)
class CycleImageMod2:
    n: int
    classes: tuple[CycleClassMod2, ...]

    @property
    def degrees(self) -> frozenset[int]:
        return frozenset(c.degree for c in self.classes)


def cycle_image_mod2(n: int) -> CycleImageMod2:
    """Degrees of the mod-2 cycle map image: 0 together with
    2^(n+1) - 2^(i+1) for 0 <= i <= n-1, with Chow weight bookkeeping."""
    _check_index(n)
    classes = [CycleClassMod2("1", None, 0, 0, 0)]
    for i in range(n):
        degree = 2 ** (n + 1) - 2 ** (i + 1)
        weight = 2**n - 2**i
        classes.append(CycleClassMod2(f"c{i}", i, degree, weight, -(2**n) + 2**i))
    return CycleImageMod2(n, tuple(classes))


def nonalgebraic_mod2_degrees(n: int) -> frozenset[int]:
    """Degrees 1 .. 2^(n+1) - 2 whose mod-2 class is not a cycle class."""
    _check_index(n)
    algebraic = cycle_image_mod2(n).degrees
    return frozenset(c for c in range(1, top_rho_exponent(n) + 1) if c not in algebraic)
