"""Mod-2 motivic model of the Rost motive of a norm quadric over the reals.

The bigraded mod-2 cohomology is one-dimensional in each bidegree (p, q)
of the region p <= q, spanned by the monomial rho^p tau^(q-p), where rho
is the degree-1 weight-1 class of -1 and tau the degree-0 weight-1 class,
truncated by rho^(2^(n+1) - 1) = 0.  The Bockstein acts as a derivation
with bockstein(tau) = rho and bockstein(rho) = 0; a monomial is handled
as its exponent pair (a, b) = (p, q - p).

Also here: the degrees hit by the mod-2 cycle map and the mod-2 etale
table (a truncated polynomial ring on rho) as a Graded2Group flagged by
that image; its unflagged degrees are the non-algebraic complement.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidIndex
from .graded import Graded2Group, GradedSummand


def top_rho_exponent(n: int) -> int:
    """Largest surviving power of rho for the index-n Rost motive."""
    return 2 ** (n + 1) - 2


def _check_index(n: int) -> None:
    """The package's one Rost-index check: an int (not a bool) >= 1.
    The formulas are exact for every such n; table size bounds belong
    to the CLI."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidIndex(f"Rost index must be an integer >= 1, got {n!r}")


def bockstein(a: int, b: int, n: int) -> Optional[tuple[int, int]]:
    """Bockstein of rho^a tau^b in the index-n model, as the exponent pair
    of the image; None means zero.

    Derivation rule over F2: the image is rho^(a+1) tau^(b-1) when the tau
    exponent b is odd, zero when b is even or the rho truncation applies.
    """
    _check_index(n)
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    if a > top_rho_exponent(n):
        raise ValueError(f"monomial exceeds the rho truncation for n={n}")
    if b % 2 == 0 or a + 1 > top_rho_exponent(n):
        return None
    return a + 1, b - 1


def cycle_image_mod2(n: int) -> frozenset[int]:
    """Degrees of the mod-2 cycle map image: 0 for the unit class and
    2^(n+1) - 2^(i+1) for the Chow class c_i, 0 <= i <= n-1."""
    _check_index(n)
    return frozenset({0} | {2 ** (n + 1) - 2 ** (i + 1) for i in range(n)})


def rost_etale_mod2(n: int) -> Graded2Group:
    """Mod-2 etale cohomology of the index-n Rost motive, a truncated
    polynomial ring on rho: one class rho^c in each degree
    0 <= c <= 2^(n+1) - 2, flagged algebraic on the cycle image, built in
    print order with no sort, every entry with the one source (n, 0)."""
    algebraic, source = cycle_image_mod2(n), (n, 0)
    return Graded2Group(tuple(
        GradedSummand(c, 2, "1" if c == 0 else ("rho" if c == 1 else f"rho^{c}"), c in algebraic, source)
        for c in range(top_rho_exponent(n) + 1)
    ))

