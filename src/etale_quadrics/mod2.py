"""Mod-2 motivic model of the Rost motive of a norm quadric over the reals.

The bigraded mod-2 cohomology is one-dimensional in each bidegree (p, q)
of the region p <= q, spanned by the monomial rho^p tau^(q-p), where rho
is the degree-1 weight-1 class of -1 and tau the degree-0 weight-1 class,
truncated by rho^(2^(n+1) - 1) = 0.  The Bockstein acts as a derivation
with bockstein(tau) = rho and bockstein(rho) = 0; a monomial is handled
as its exponent pair (a, b) = (p, q - p).

Also here: the mod-2 etale table (a truncated polynomial ring on rho),
flagged off rost's 2-adic table, and the mod-2 cycle image, which only the
tower route's oracle reads.  The index rule and top degree live in rost.
"""

from __future__ import annotations

from typing import Optional

from . import rost
from .errors import require_int
from .graded import Graded2Group, GradedSummand
from .rost import _check_index, top_rho_exponent


def bockstein(a: int, b: int, n: int) -> Optional[tuple[int, int]]:
    """Bockstein of rho^a tau^b in the index-n model, as the exponent pair
    of the image; None means zero.

    Derivation rule over F2: the image is rho^(a+1) tau^(b-1) when the tau
    exponent b is odd, zero when b is even or the rho truncation applies.
    """
    _check_index(n)
    require_int(a, 0, "exponent a")
    require_int(b, 0, "exponent b")
    if a > top_rho_exponent(n):
        raise ValueError(f"monomial exceeds the rho truncation for n={n}")
    if b % 2 == 0 or a + 1 > top_rho_exponent(n):
        return None
    return a + 1, b - 1


def cycle_image_mod2(n: int) -> frozenset[int]:
    """Degrees of the mod-2 cycle map image: 0 for the unit class and
    2^(n+1) - 2^(i+1) for the Chow class c_i, 0 <= i <= n-1: the oracle's
    own statement, read by tower.etale_2adic and by no printed table."""
    _check_index(n)
    return frozenset({0} | {2 ** (n + 1) - 2 ** (i + 1) for i in range(n)})


def rost_etale_mod2(n: int) -> Graded2Group:
    """Mod-2 etale cohomology of the index-n Rost motive, a truncated
    polynomial ring on rho: one class rho^c in each degree
    0 <= c <= 2^(n+1) - 2, built in print order with no sort, every entry
    with the one source (n, 0).  By universal coefficients rho^c is
    algebraic exactly when the 2-adic table has an algebraic class in
    degree c: a tensor part keeps its flag, a Tor part is not algebraic."""
    algebraic, source = {e.degree for e in rost.rost_etale_table(n).entries if e.algebraic}, (n, 0)  # checks n
    return Graded2Group(tuple(
        GradedSummand(c, 2, "1" if c == 0 else ("rho" if c == 1 else f"rho^{c}"), c in algebraic, source)
        for c in range(top_rho_exponent(n) + 1)
    ))

