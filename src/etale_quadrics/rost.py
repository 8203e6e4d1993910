"""Closed-form tables for Rost motives of norm quadrics over the reals.

The 2-adic etale cohomology in the twisted even-degree grading is free on
the unit class and on pi (the cycle class of the torsion-free Chow
generator, sitting in the top degree 2^(n+1) - 2), plus one Z/2 class
rho_bar_{4m} in every degree 4m with 1 <= m <= 2^(n-1) - 1.  The cycle map
hits the free part and exactly the torsion classes in the Chow torsion
degrees 2^(n+1) - 2^(i+1), 1 <= i <= n-1.  Multiplicatively the torsion is
the positive part of a truncated polynomial ring on rho_bar_4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import Graded2Group, GradedSummand
from .mod2 import _check_index, top_rho_exponent


def chow_torsion_degrees(n: int) -> tuple[int, ...]:
    """Degrees 2^(n+1) - 2^(i+1) of the 2-torsion Chow classes c_i,
    i = 1 .. n-1, in ascending i, so in descending degree."""
    _check_index(n)
    return tuple(2 ** (n + 1) - 2 ** (i + 1) for i in range(1, n))


def torsion_degrees(n: int) -> tuple[int, ...]:
    """All torsion degrees 4m, 1 <= m <= 2^(n-1) - 1."""
    _check_index(n)
    return tuple(4 * m for m in range(1, 2 ** (n - 1)))


@dataclass(frozen=True)
class RostTable:
    """2-adic etale cohomology of one Rost motive with algebraicity flags."""

    n: int
    free: tuple[GradedSummand, ...]
    torsion: tuple[GradedSummand, ...]

    @property
    def top_degree(self) -> int:
        return top_rho_exponent(self.n)

    def graded(self) -> Graded2Group:
        return Graded2Group.from_entries(self.free + self.torsion)

    def algebraic_torsion_degrees(self) -> tuple[int, ...]:
        return tuple(e.degree for e in self.torsion if e.algebraic)

    def ring_power_degrees(self) -> tuple[int, ...]:
        """Degrees of rho_bar_4^m in the truncated-ring form; the power
        2^(n-1) and beyond vanish."""
        return tuple(4 * m for m in range(1, 2 ** (self.n - 1)))


def rost_etale_table(n: int) -> RostTable:
    _check_index(n)
    top = top_rho_exponent(n)
    free = (
        GradedSummand(0, 0, "1", twist=0, algebraic=True, source=(n, 0)),
        GradedSummand(top, 0, "pi", twist=(top // 2) % 2, algebraic=True, source=(n, 0)),
    )
    algebraic = set(chow_torsion_degrees(n))
    torsion = tuple(
        GradedSummand(
            d,
            2,
            f"rho_bar_{d}",
            twist=(d // 2) % 2,
            algebraic=d in algebraic,
            source=(n, 0),
        )
        for d in torsion_degrees(n)
    )
    return RostTable(n, free, torsion)


def chow_ring(n: int) -> Graded2Group:
    """Chow groups: free on 1 and c_0 (top degree), one Z/2 class c_i in
    degree 2^(n+1) - 2^(i+1) for i = 1 .. n-1."""
    _check_index(n)
    top = top_rho_exponent(n)
    entries = [
        GradedSummand(0, 0, "1", twist=0, algebraic=True),
        GradedSummand(top, 0, "c0", twist=(top // 2) % 2, algebraic=True),
    ]
    for i in range(1, n):
        d = 2 ** (n + 1) - 2 ** (i + 1)
        entries.append(GradedSummand(d, 2, f"c{i}", twist=(d // 2) % 2, algebraic=True))
    return Graded2Group.from_entries(entries)


@dataclass(frozen=True)
class CycleImage2adic:
    """Image of the 2-adic cycle map inside the etale table."""

    n: int
    free_labels: tuple[str, ...]  # the whole free part is algebraic
    algebraic_torsion_degrees: tuple[int, ...]
    generator_map: tuple[tuple[str, str], ...]  # Chow generator -> etale class


def cycle_image_2adic(n: int) -> CycleImage2adic:
    _check_index(n)
    degrees = chow_torsion_degrees(n)
    gen_map = [("1", "1"), ("c0", "pi")]
    gen_map += [(f"c{i}", f"rho_bar_{2 ** (n + 1) - 2 ** (i + 1)}") for i in range(1, n)]
    return CycleImage2adic(n, ("1", "pi"), degrees, tuple(gen_map))


def nonalgebraic_quotient(n: int) -> tuple[int, ...]:
    """Degrees carrying a Z/2 class not hit by the cycle map: the torsion
    degrees 4m that are not Chow torsion degrees."""
    _check_index(n)
    algebraic = set(chow_torsion_degrees(n))
    return tuple(d for d in torsion_degrees(n) if d not in algebraic)


@dataclass(frozen=True)
class ComplexRealization:
    """Cohomology of the complex points and the restriction map data."""

    n: int
    classes: Graded2Group  # Z{1, y} with y in the top degree
    restriction: tuple[tuple[str, int, str], ...]  # (source, coefficient, target)
    rational_chow_labels: tuple[str, ...]
    mod2_image_labels: tuple[str, ...]


def complex_realization(n: int) -> ComplexRealization:
    """Complexification: free classes 1 and y; the torsion-free Chow
    generator restricts onto 2y, rho and all torsion restrict to zero, so
    the mod-2 restriction image is spanned by the unit class alone."""
    _check_index(n)
    top = top_rho_exponent(n)
    classes = Graded2Group.from_entries(
        [
            GradedSummand(0, 0, "1", twist=0, algebraic=None),
            GradedSummand(top, 0, "y", twist=(top // 2) % 2, algebraic=None),
        ]
    )
    restriction = [("1", 1, "1"), ("c0", 2, "y"), ("rho", 0, "")]
    restriction += [(f"c{i}", 0, "") for i in range(1, n)]
    restriction += [(f"rho_bar_{d}", 0, "") for d in torsion_degrees(n)]
    return ComplexRealization(
        n,
        classes,
        tuple(restriction),
        rational_chow_labels=("1", "c0"),
        mod2_image_labels=("1",),
    )
