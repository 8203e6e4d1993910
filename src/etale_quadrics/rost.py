"""Closed-form tables for Rost motives of norm quadrics over the reals.

The 2-adic etale cohomology in the twisted even-degree grading is free on
the unit class and on pi (the cycle class of the torsion-free Chow
generator, sitting in the top degree 2^(n+1) - 2), plus one Z/2 class
rho_bar_{4m} in every degree 4m with 1 <= m <= 2^(n-1) - 1.  The cycle map
hits the free part and exactly the torsion classes in the Chow torsion
degrees 2^(n+1) - 2^(i+1), 1 <= i <= n-1.  Multiplicatively the torsion is
the positive part of a truncated polynomial ring on rho_bar_4.

Here: the index rule and top degree; the Chow torsion degrees, read only
by the non-algebraic quotient (the torsion degrees that are not Chow
degrees); and the table as a Graded2Group, flagged off that quotient.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidIndex, require_int
from .graded import Graded2Group, GradedSummand


def top_rho_exponent(n: int) -> int:
    """Largest surviving power of rho for the index-n Rost motive."""
    return 2 ** (n + 1) - 2


def _check_index(n: int) -> None:
    """The Rost index n >= 1: exact for every such n; table size bounds belong to the CLI."""
    require_int(n, 1, "Rost index", InvalidIndex)


def chow_torsion_degrees(n: int) -> tuple[int, ...]:
    """Degrees 2^(n+1) - 2^(i+1) of the 2-torsion Chow classes c_i,
    i = 1 .. n-1, in ascending i, so in descending degree."""
    _check_index(n)
    return tuple(2 ** (n + 1) - 2 ** (i + 1) for i in range(1, n))


def torsion_degrees(n: int) -> tuple[int, ...]:
    """All torsion degrees 4m, 1 <= m <= 2^(n-1) - 1."""
    _check_index(n)
    return tuple(4 * m for m in range(1, 2 ** (n - 1)))


def free_classes(n: int) -> tuple[GradedSummand, GradedSummand]:
    """The free classes of the index-n Rost motive, source (n, 0): the unit 1
    and pi in the top degree, both algebraic.  O(1), so a reader of the free
    part does not build the Θ(2^n) table."""
    _check_index(n)
    return GradedSummand(0, 0, "1", True, (n, 0)), GradedSummand(top_rho_exponent(n), 0, "pi", True, (n, 0))


def rost_etale_table(n: int) -> Graded2Group:
    """2-adic etale cohomology of the index-n Rost motive, every entry with
    source (n, 0): the free classes 1 and pi, one Z/2 class rho_bar_d in each
    torsion degree, flagged algebraic exactly when d is not in the
    non-algebraic quotient."""
    free = free_classes(n)  # checks n
    nonalgebraic = set(nonalgebraic_quotient(n))
    torsion = [
        GradedSummand(d, 2, f"rho_bar_{d}", d not in nonalgebraic, (n, 0))
        for d in torsion_degrees(n)
    ]
    return Graded2Group.from_entries([*free, *torsion])


@lru_cache(maxsize=None, typed=True)  # typed: True is refused, not read as 1
def nonalgebraic_quotient(n: int) -> tuple[int, ...]:
    """Degrees carrying a Z/2 class not hit by the cycle map: the torsion
    degrees 4m that are not Chow torsion degrees, computed once per index
    (the report of every Q^d reads them per block, the table per build)."""
    algebraic = set(chow_torsion_degrees(n))  # checks n
    return tuple(d for d in torsion_degrees(n) if d not in algebraic)
