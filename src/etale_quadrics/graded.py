"""Graded 2-local groups: per-degree lists of labeled cyclic summands.

The common output shape of the table generators: each summand carries its
cohomological degree, order (0 = free over the 2-adic integers), generator
label, an algebraicity flag (None when not meaningful) and optionally the
motive term it came from.  Tables use the twisted even-degree grading,
where degree c carries the coefficients Z2(c/2), so a summand holds no
twist: its parity is a function of the degree, and the printer
(cli._write_table) writes it from c mod 4.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional


class GradedSummand(NamedTuple):
    degree: int
    order: int  # 0 = free rank 1 over the 2-adic integers, else a power of 2
    label: str
    algebraic: Optional[bool] = None
    source: Optional[tuple[int, int]] = None  # (rost index n, tate twist j)


def _sort_key(e: GradedSummand):
    n, j = e.source if e.source is not None else (-1, 0)
    return (e.degree, -n, j, e.label)


_degree = attrgetter("degree")


def _profile(here: Iterable[GradedSummand]) -> tuple[int, tuple[int, ...]]:
    orders = [e.order for e in here]
    return orders.count(0), tuple(sorted(filter(None, orders), reverse=True))


class Graded2Group(NamedTuple):
    """Entries sorted by degree (from_entries sorts; assemble_cohomology
    and mod2.rost_etale_mod2 build them in order), so at(c) bisects:
    O(log size + answer)."""

    entries: tuple[GradedSummand, ...]

    @classmethod
    def from_entries(cls, entries: Iterable[GradedSummand]) -> "Graded2Group":
        return cls(tuple(sorted(entries, key=_sort_key)))

    def at(self, degree: int) -> tuple[GradedSummand, ...]:
        lo = bisect_left(self.entries, degree, key=_degree)
        return self.entries[lo : bisect_right(self.entries, degree, lo, key=_degree)]

    def profile(self, degree: int) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion orders sorted descending) in one degree."""
        return _profile(self.at(degree))

    def profiles(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {c: _profile(here) for c, here in groupby(self.entries, key=_degree)}

    @property
    def torsion_entries(self) -> tuple[GradedSummand, ...]:
        return tuple(e for e in self.entries if e.order)
