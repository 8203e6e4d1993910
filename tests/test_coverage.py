"""The coverage map: every table the CLI can print, as (subcommand,
coefficient kind, target), names the verify check that re-derives it
along an independent route.  A table kind with no check fails here; a
known gap is a strict xfail that names the ROADMAP item closing it."""

import argparse

import pytest

from etale_quadrics import cli, verify
from etale_quadrics.quadrics import parse_coefficients


def cli_tables() -> list[tuple[str, str | None, str]]:
    """Read off the parser: each subcommand but verify, each coefficient
    kind its --coeff help lists, each target it takes (a quadric dimension,
    or a Rost index with --rost)."""
    tables = []
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subcommands.choices.items():
        if name == "verify":
            continue
        options = {a.dest: a for a in sub._actions}
        targets = ["quadric"] + (["rost"] if "rost" in options else [])
        kinds = [None]
        if "coeff" in options:
            specs = options["coeff"].help.split(":", 1)[1].split("(")[0].split("|")
            kinds = [parse_coefficients(spec.strip().replace("<s>", "1"))[0] for spec in specs]
        tables += [(name, kind, target) for kind in kinds for target in targets]
    return tables


# table -> the check that covers it, and how
COVERAGE = {
    # closed-form decompositions and the sweep invariants for every d <= --dmax
    # (512 by default)
    ("decompose", None, "quadric"): "C6",
    # the report's running sums for every d <= --dmax (512 by default) against
    # two other readings of the boundary
    ("nonalgebraic", None, "quadric"): "C7",
    # ring presentations against the assembly, d in {3, 5, 6, 7, 15, 31}
    ("cohomology", "2adic", "quadric"): "C10",
    # tower limits against the closed form, labels and flags included,
    # n <= min(--nmax, 5)
    ("cohomology", "2adic", "rost"): "C5",
    # the mod-2 ring, one class per degree, and its cycle image, n <= --nmax
    ("cohomology", "mod2", "rost"): "C1",
    # universal coefficients on the 2-adic quadric tables against the sum of
    # the tower route's mod-2^s Rost tables, d in {3, 4, 5, 6, 7, 8, 15, 31}
    # and s = 1..6 and 14284
    ("cohomology", "mod2s", "quadric"): "s7.coeff",
    # the same comparison reads, along both routes, the mod-2^s Rost table
    # of every M_n those quadrics contain, n <= 5, at the same levels s
    ("cohomology", "mod2s", "rost"): "s7.coeff",
}

GAPS = {
    ("cohomology", "mod2", "quadric"): (
        "no verify check re-derives the mod-2 quadric tables; the real "
        "Grassmannian route of ROADMAP item 6 would"
    ),
}


@pytest.fixture(scope="module")
def check_ids():
    return {r.check_id for r in verify.run_checks("all")}


@pytest.mark.parametrize(
    "table",
    [
        pytest.param(t, marks=pytest.mark.xfail(strict=True, reason=GAPS[t])) if t in GAPS else t
        for t in cli_tables()
    ],
    ids=lambda t: " ".join(str(part) for part in t),
)
def test_every_table_has_a_check(check_ids, table):
    assert COVERAGE.get(table) in check_ids


def test_the_map_names_only_printable_tables():
    tables = cli_tables()
    assert len(tables) == len(set(tables)) == 8
    assert set(COVERAGE) | set(GAPS) == set(tables)
    assert not set(COVERAGE) & set(GAPS)
