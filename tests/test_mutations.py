"""Mutants that `verify --scope all` must catch.

Each mutant is one exact text replacement in a copy of the package's
source; the test runs `verify --scope all --format json` on the copy and
asserts the exact set of checks that fail.  The closed-form route reads
the Chow degrees once, in rost.nonalgebraic_quotient, and the tower route
flags its limit by mod2.cycle_image_mod2 alone, so a wrong degree on
either route shows in C1 (printed mod-2 flags against the oracle's image)
and in C5 (the two 2-adic tables).  Standard library only.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (file, old, new, the checks that fail)
MUTANTS = {
    # a wrong Chow degree: the degree-8 Z/2 of every M_n, n >= 4, flagged algebraic
    "M1": ("rost.py", "set(chow_torsion_degrees(n))", "set(chow_torsion_degrees(n)) | {8}", {"C1", "C5"}),
    # the oracle's image loses pi's degree: only the tower route moves
    "M2": ("mod2.py", "for i in range(n)", "for i in range(1, n)", {"C1", "C5"}),
    # the mod-2 M_0 unit becomes Z/4
    "M3": ("quadrics.py", '(2 if kind == "mod2" else 0)', '(4 if kind == "mod2" else 0)', {"s7.tables"}),
    # the 2-adic M_0 unit becomes Z/2
    "M4": ("quadrics.py", '(2 if kind == "mod2" else 0)', '(2 if kind == "mod2" else 2)', {"s7.tables"}),
    # the closed form loses its top torsion class
    "M5": ("rost.py", "range(1, 2 ** (n - 1))", "range(1, 2 ** (n - 1) - 1)", {"C1", "C5", "s7.tables", "s7.coeff", "C10"}),
}

# tests/test_cli.py's pin of `cohomology --rost 4 --coeff mod2`
ROST4_MOD2 = "744f089411146b34582ab5d69adf8ee6d4c0cce2522e7ca0baa3fbd65abbf6f0"


def mutant(tmp_path, name):
    """A copy of src/ with the named replacement applied, its old text
    matched exactly once."""
    file, old, new, _ = MUTANTS[name]
    root = tmp_path / "src"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "etale_quadrics" / file
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new))
    return root


def run(root, *argv):
    """The CLI of the copy at root, spawned with only the copy importable."""
    env = {**os.environ, "PYTHONPATH": str(root)}
    return subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *argv], cwd=root, env=env, capture_output=True, timeout=120
    )


def failing(root, *options):
    res = run(root, "verify", "--scope", "all", "--format", "json", *options)
    assert res.returncode == 1, res.stderr
    return {c["check"] for c in json.loads(res.stdout)["checks"] if not c["passed"]}


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_catches_the_mutant(tmp_path, name):
    assert failing(mutant(tmp_path, name)) == MUTANTS[name][3]


def test_wrong_chow_degree_fails_at_the_table_bounds(tmp_path):
    assert failing(mutant(tmp_path, "M1"), "--dmax", "2046", "--nmax", "10") == MUTANTS["M1"][3]


def test_oracle_image_feeds_no_printed_table(tmp_path):
    """The printed mod-2 flags are read off rost's 2-adic table, so a wrong
    oracle image leaves the table's bytes as pinned."""
    res = run(mutant(tmp_path, "M2"), "cohomology", "--rost", "4", "--coeff", "mod2")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == ROST4_MOD2
