"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
every comparison is exact integer equality, no tolerances anywhere.  The
whole suite is also reachable as `etale-quadrics verify --scope all`.
"""

import subprocess
import sys

import pytest

from etale_quadrics import verify
from etale_quadrics.verify import VerifyOptions

OPTS = VerifyOptions(dmax=512, nmax=6)


def _verdict(name, result):
    line = f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}"
    print(line)
    assert result.passed, f"{name} failed: {result.diff}"


@pytest.fixture(scope="module")
def report():
    """run_checks("all", OPTS), run once for the module: each check's
    result under its id, in registry order."""
    return {r.check_id: r for r in verify.run_checks("all", OPTS)}


@pytest.mark.parametrize("position", range(len(verify._CHECKS)), ids=[fn.__name__ for _, fn in verify._CHECKS])
def test_registered_check(report, position):
    """Every check of the registry, each printing its own id's line."""
    result = list(report.values())[position]
    _verdict(result.check_id, result)


def test_registry_declares_each_check_once():
    """The registry holds the check_* functions in definition order, the
    order in which the benchmark harness calls them from vars(verify); the
    ids are unique, each result carries its registered scope, and the
    scopes s2..s9, run one by one and joined, are the whole report."""
    assert [fn.__name__ for _, fn in verify._CHECKS] == [
        name for name, fn in vars(verify).items() if name.startswith("check_") and callable(fn)
    ]
    opts = VerifyOptions(dmax=16, nmax=3)
    registered = [(scope, fn(opts)) for scope, fn in verify._CHECKS]
    assert len({r.check_id for _, r in registered}) == len(registered) == 18
    assert all(r.scope == scope for scope, r in registered)
    assert verify.SCOPES == ("all", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9")
    by_scope = [verify.run_checks(scope, opts) for scope in verify.SCOPES[1:]]
    for scope, results in zip(verify.SCOPES[1:], by_scope):
        assert results == [r for s, r in registered if s == scope]
    assert [r for results in by_scope for r in results] == verify.run_checks("all", opts)


def test_criterion_01_mod2_ring_and_cycle_image(report):
    _verdict("criterion-01", report["C1"])


def test_criterion_02_z4_table(report):
    _verdict("criterion-02", report["C2"])


def test_criterion_03_tower_pattern(report):
    _verdict("criterion-03", report["C3"])


def test_criterion_04_limit_vanishing(report):
    _verdict("criterion-04", report["C4"])


def test_criterion_05_oracle_equivalence(report):
    _verdict("criterion-05", report["C5"])


def test_criterion_06_decomposition_fixtures_and_sweep(report):
    _verdict("criterion-06", report["C6"])


def test_criterion_07_boundary_at_dimension_seven(report):
    _verdict("criterion-07", report["C7"])


def test_criterion_08_norm_quadric_inventory(report):
    _verdict("criterion-08", report["C8"])


def test_criterion_09_pfister_neighbors(report):
    _verdict("criterion-09", report["C9"])


def test_criterion_10_presentations_match_assembly(report):
    _verdict("criterion-10", report["C10"])


def test_criterion_11_flag_variety_dimensions(report):
    _verdict("criterion-11", report["C11"])


def test_criterion_13_truncated_tables_follow_universal_coefficients(report):
    _verdict("criterion-13", report["s7.coeff"])


def _run_verify():
    return subprocess.run(
        [sys.executable, "-m", "etale_quadrics", "verify", "--scope", "all"],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_12_determinism():
    first = _run_verify()
    second = _run_verify()
    ok = first.returncode == second.returncode == 0 and first.stdout == second.stdout
    print(f"{'PASS' if ok else 'FAIL'} criterion-12: byte-identical reports")
    assert ok
    # the report itself says every check passed
    assert first.stdout.strip().endswith("checks)")
    assert "FAIL" not in first.stdout
