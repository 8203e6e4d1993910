"""Cost contracts: how the work of a table grows with its size.

A Rost table of index n has Θ(2^n) entries, so building it should cost
Θ(2^n) too: about ×2 per step of n.  The work is counted as profiler
events (every Python and C call and return), which depend on the code
alone, not on the host, so the ratio between two indices is exact on
every Python.  Only ratios are asserted, never counts, because the
interpreter's own calls differ between Python versions.
"""

import sys

import pytest

from etale_quadrics.quadrics import rost_table

# ×2 per n is the target; the rest is headroom for terms that are
# constant in n.  A Θ(4^n) table reads close to ×4.
MAX_RATIO = 2.5


def profile_events(fn, *args):
    count = 0

    def count_event(frame, event, arg):
        nonlocal count
        count += 1

    previous = sys.getprofile()
    sys.setprofile(count_event)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("coeff", ("2adic", "mod2", "mod2s:3"))
def test_rost_table_cost_doubles_per_index(coeff):
    rost_table(1, coeff)  # first-use caches (the coefficient-spec regex) fill here
    ratio = profile_events(rost_table, 10, coeff) / profile_events(rost_table, 9, coeff)
    assert ratio <= MAX_RATIO, f"rost_table(n, {coeff!r}) grows x{ratio:.2f} per n"
