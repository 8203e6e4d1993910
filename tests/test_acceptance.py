"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
every comparison is exact integer equality, no tolerances anywhere.  The
whole suite is also reachable as `etale-quadrics verify --scope all`.
"""

import subprocess
import sys

from etale_quadrics import verify
from etale_quadrics.verify import VerifyOptions

OPTS = VerifyOptions(dmax=512, nmax=6)


def _verdict(name, result):
    line = f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}"
    print(line)
    assert result.passed, f"{name} failed: {result.diff}"


def test_criterion_01_mod2_ring_and_cycle_image():
    _verdict("criterion-01", verify.check_mod2_rings(OPTS))


def test_criterion_02_z4_table():
    _verdict("criterion-02", verify.check_z4_table(OPTS))


def test_criterion_03_tower_pattern():
    _verdict("criterion-03", verify.check_tower_pattern(OPTS))


def test_criterion_04_limit_vanishing():
    _verdict("criterion-04", verify.check_limits(OPTS))


def test_criterion_05_oracle_equivalence():
    _verdict("criterion-05", verify.check_oracle_equivalence(OPTS))


def test_criterion_06_decomposition_fixtures_and_sweep():
    _verdict("criterion-06", verify.check_decomposition_fixtures(OPTS))


def test_criterion_07_boundary_at_dimension_seven():
    _verdict("criterion-07", verify.check_boundary(OPTS))


def test_criterion_08_norm_quadric_inventory():
    _verdict("criterion-08", verify.check_norm_quadrics(OPTS))


def test_criterion_09_pfister_neighbors():
    _verdict("criterion-09", verify.check_neighbors(OPTS))


def test_criterion_10_presentations_match_assembly():
    _verdict("criterion-10", verify.check_presentations(OPTS))


def test_criterion_11_flag_variety_dimensions():
    _verdict("criterion-11", verify.check_flag_variety(OPTS))


def test_criterion_13_truncated_tables_follow_universal_coefficients():
    _verdict("criterion-13", verify.check_coefficient_change(OPTS))


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
