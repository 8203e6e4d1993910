"""Workloads: the seeded argv each benchmark round sends to the CLI.

A round is the workload's fixed list of timed calls.  All rounds of one
run repeat the same argv, so every repeat is also a determinism check.
Each table call draws d from the top JITTER + 1 values of its band: the
seed varies the inputs, while a round's cost and its peak memory (which
grow like d^2) stay within a few percent of each other across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gate import Call, nonalgebraic_rows, table_rows

VERIFY_ARGV = ("verify", "--scope", "all", "--format", "json")


@dataclass(frozen=True)
class Draw:
    """One table call before its closed-form row count is known."""

    kind: str  # cohomology | nonalgebraic
    d: int
    coeff: str = "2adic"  # 2adic | mod2 | mod2s:<s>
    band: str = ""

    @property
    def argv(self) -> tuple[str, ...]:
        if self.kind == "nonalgebraic":
            return ("nonalgebraic", str(self.d))
        if self.coeff == "2adic":
            return ("cohomology", str(self.d))
        return ("cohomology", str(self.d), "--coeff", self.coeff)

    @property
    def metric(self) -> str:
        if self.kind == "nonalgebraic":
            return "nonalgebraic_s"
        return "cohomology_" + self.coeff.split(":")[0] + "_s"

    @property
    def header(self) -> str:
        if self.kind == "nonalgebraic":
            return f"# Q^{self.d}  non-algebraic quotient (torsion only; free part is algebraic)"
        return f"# Q^{self.d}  coefficients={self.coeff}"


JITTER = 7


def _near(rng: random.Random, hi: int) -> int:
    return rng.randint(hi - JITTER, hi)


# verify-all: the only path through tower, abelian and presentations; the
# C7 boundary sweep dominates it, so changes to quadrics' per-term loops
# and to the lattice kernels show here, while CLI rendering is negligible.
def _verify_all(rng: random.Random) -> list:
    return [Call("verify", VERIFY_ARGV, metric="verify_s")]


# quadric-2adic: decompose, nonalgebraic and cohomology of one d from
# each ROADMAP band (about 511, about 1022, and 1980-2046 drawn whole;
# 2046 is the largest d within the Rost index bound 10).  It stresses
# assembly, the Graded2Group sort and text rendering, which are
# Theta(d^2), and never enters tower or abelian: a change there must show
# no change here.  decompose is asked for JSON, which the gate checks.
def _quadric_2adic(rng: random.Random) -> list:
    draws = []
    for lo, hi in ((511 - JITTER, 511), (1022 - JITTER, 1022), (1980, 2046)):
        d = rng.randint(lo, hi)
        band = f"{lo}-{hi}"
        draws.append(Call("decompose", ("decompose", str(d), "--format", "json"), "decompose_s", band))
        draws.append(Draw("nonalgebraic", d, band=band))
        draws.append(Draw("cohomology", d, band=band))
    return draws


# quadric-truncated: the same CLI table layer fed by mod2 and by per-term
# tower.mod_2s_group instead of graded.  A table-pipeline change that
# helps 2-adic tables but slows these shows here.  d stays in [256, 767]
# for mod2 and in [128, 383] for mod2s (which grows faster than its
# output), two sizes each: the tops of the lower and upper half-bands.
def _quadric_truncated(rng: random.Random) -> list:
    draws = [Draw("cohomology", _near(rng, hi), "mod2", band=f"{hi - JITTER}-{hi}") for hi in (511, 767)]
    draws += [
        Draw("cohomology", _near(rng, hi), f"mod2s:{rng.randint(2, 8)}", band=f"{hi - JITTER}-{hi}")
        for hi in (255, 383)
    ]
    return draws


WORKLOADS = {
    "verify-all": _verify_all,
    "quadric-2adic": _quadric_2adic,
    "quadric-truncated": _quadric_truncated,
}


def draw_round(workload: str, seed: int) -> list:
    """The round's calls: gate.Call for verify and decompose, Draw for
    table calls (they still need their closed-form row counts)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def resolve(draw, terms_of) -> Call:
    """Turn a Draw into a Call, given terms_of(d) -> decomposition terms
    (None when decompose failed: the row count then goes unchecked, and
    the run already counts a failure)."""
    if isinstance(draw, Call):
        return draw
    terms = terms_of(draw.d)
    if terms is None:
        rows = None
    elif draw.kind == "nonalgebraic":
        rows = nonalgebraic_rows(terms)
    else:
        rows = table_rows(terms, draw.coeff.split(":")[0])
    return Call(draw.kind, draw.argv, draw.metric, draw.band, rows, draw.header)
