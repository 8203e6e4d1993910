"""CLI behavior: formats, exit codes, determinism, round-trips."""

import hashlib
import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def records_by_degree(payload):
    out = {}
    for r in payload["records"]:
        out.setdefault(r["degree"], []).append(r["order"])
    return out


def test_decompose_text():
    res = run_cli("decompose", "7")
    assert res.returncode == 0
    assert "M3 + M2*T1 + M2*T2 + M2*T3" in res.stdout


def test_decompose_rejects_zero():
    res = run_cli("decompose", "0")
    assert res.returncode == 2
    assert "dimension" in res.stderr


def test_decompose_json():
    res = run_cli("decompose", "6", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["terms"] == [{"n": 2, "j": j} for j in range(4)]
    assert payload["expansion"] == [2]
    assert payload["residual"] == 0


def test_cohomology_rost_mod4():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "mod2s:2", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert records_by_degree(payload) == {0: [4], 2: [2], 4: [2], 6: [4]}


def test_cohomology_rost_2adic():
    res = run_cli("cohomology", "--rost", "3", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    free = sorted(r["degree"] for r in payload["records"] if r["order"] == 0)
    torsion = sorted(r["degree"] for r in payload["records"] if r["order"] == 2)
    assert free == [0, 14]
    assert torsion == [4, 8, 12]


def test_cohomology_quadric_2adic_table():
    res = run_cli("cohomology", "7", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    by_degree = records_by_degree(payload)
    assert by_degree[8] == [2, 0, 2]  # sorted by Rost index desc, twist asc
    assert sorted(by_degree) == [0, 2, 4, 6, 8, 10, 12, 14]
    degree4 = [r for r in payload["records"] if r["degree"] == 4]
    assert [r["algebraic"] for r in degree4] == [False, True]


def test_cohomology_mod2():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "mod2", "--format", "json")
    payload = json.loads(res.stdout)
    assert [r["degree"] for r in payload["records"]] == list(range(7))
    assert all(r["order"] == 2 for r in payload["records"])
    algebraic = [r["degree"] for r in payload["records"] if r["algebraic"]]
    assert algebraic == [0, 4, 6]


def test_cohomology_quadric_mod2_records():
    res = run_cli("cohomology", "7", "--coeff", "mod2", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["records"]
    assert len(records) == 15 + 3 * 7  # M3 + M2*T1 + M2*T2 + M2*T3
    assert all(r["order"] == 2 for r in records)
    assert all((r["twist"] is None) == (r["degree"] % 2 == 1) for r in records)
    degree4 = [(r["generator"], r["source"], r["algebraic"]) for r in records if r["degree"] == 4]
    assert degree4 == [
        ("rho^4", {"n": 3, "j": 0}, False),
        ("rho^2", {"n": 2, "j": 1}, False),
        ("1", {"n": 2, "j": 2}, True),
    ]
    top = [r["degree"] for r in records if r["source"] == {"n": 3, "j": 0} and r["algebraic"]]
    assert top == [0, 8, 12, 14]


def test_cohomology_quadric_mod2s_records():
    res = run_cli("cohomology", "7", "--coeff", "mod2s:3", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["records"]
    assert records_by_degree({"records": records}) == {
        0: [8], 2: [2, 8], 4: [2, 2, 8], 6: [2, 2, 2, 8],
        8: [2, 8, 2, 2], 10: [2, 8, 2], 12: [2, 8], 14: [8],
    }
    ghosts = [(r["degree"], r["source"]["n"]) for r in records if r["generator"].startswith("ghost(")]
    assert ghosts == [(2, 3), (4, 2), (6, 3), (6, 2), (8, 2), (10, 3)]
    assert all(r["algebraic"] is None for r in records)
    assert all(r["twist"] == (r["degree"] // 2) % 2 for r in records)


# stdout digests pinning the truncated-coefficient quadric tables byte for byte
TABLE_DIGESTS = {
    ("7", "--coeff", "mod2s:3"):
        "6c1d096613025683362d7e50f322cd13bfd65581908524b690e1725df2dfe1fe",
    ("7", "--coeff", "mod2s:3", "--format", "json"):
        "2cce8d752fdc5889c5ecd22ab0749d6bede9e8fd51cbed811a8e77bb867f2541",
    ("7", "--coeff", "mod2", "--format", "json"):
        "d80638e0faea943acb1f822da9df9c92100e6b976d96dd2f0551bf56ff1efeac",
    ("31", "--coeff", "mod2", "--format", "csv"):
        "e254f3413cbe36b8507f9597a62cb3b9c739bfa27b9c24a060b8d1955bc866e7",
    ("31", "--coeff", "mod2s:2", "--format", "json"):
        "f686a32a2c2e3d1105af3511640de6ee9d79e225ce93ce5841cdd2447c7c830a",
}


@pytest.mark.parametrize("argv", sorted(TABLE_DIGESTS))
def test_truncated_table_digests(argv):
    res = run_cli("cohomology", *argv)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == TABLE_DIGESTS[argv]


# stdout digests pinning the single-motive tables of every coefficient kind
# and the full verify report byte for byte
REPORT_DIGESTS = {
    ("cohomology", "--rost", "4", "--coeff", "2adic"):
        "3ca385dfcf5d3a12f9fe90d808447966c837c09ffe695965509a44e7927be119",
    ("cohomology", "--rost", "4", "--coeff", "2adic", "--format", "json"):
        "c57fe1c0d520800fa1689d7b5497df60d602f2c84b7a8b1f276cd359b56dc63f",
    ("cohomology", "--rost", "4", "--coeff", "mod2"):
        "744f089411146b34582ab5d69adf8ee6d4c0cce2522e7ca0baa3fbd65abbf6f0",
    ("cohomology", "--rost", "4", "--coeff", "mod2", "--format", "json"):
        "db75d1258d113fca337160f180d79a94184345943ce0da28d6bd469a8b746d0a",
    ("cohomology", "--rost", "4", "--coeff", "mod2s:3"):
        "1942e585b05f25896ba9e7c392d0f1861132421681ae50ed6d61d748e0966007",
    ("cohomology", "--rost", "4", "--coeff", "mod2s:3", "--format", "json"):
        "78cba092fcf7cf9a9256ef021975619f460c1c788a01449166851fa6ef17d7d8",
    ("verify", "--scope", "all", "--format", "json"):
        "5c361a3307efd20d92806a4f0f8f6bfb58a9651eae7e332e4f7ee49cb7032edd",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS), ids=" ".join)
def test_report_digests(argv):
    res = run_cli(*argv)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == REPORT_DIGESTS[argv]


COEFFS = ("2adic", "mod2", "mod2s:3")

# argv and the two strings stderr must name: the user's quantity and its range
OUT_OF_BOUND = [
    *((("cohomology", "2047", "--coeff", c), "quadric dimension 2047", "1..2046") for c in COEFFS),
    *((("cohomology", "--rost", "11", "--coeff", c), "--rost 11", "1..10") for c in COEFFS),
    *((("cohomology", "--rost", n, "--coeff", "mod2s:1"), f"--rost {n}", "1..10") for n in ("-1", "-2")),
    (("nonalgebraic", "2047"), "quadric dimension 2047", "1..2046"),
    (("decompose", "2047"), "quadric dimension 2047", "1..2046"),
    # a level whose order 2^s would not print under the 4300-digit limit
    (("cohomology", "7", "--coeff", "mod2s:15000"), "coefficient level 15000", "1..14284"),
    (("cohomology", "7", "--coeff", "mod2s:0"), "coefficient level 0 ", "1..14284"),
    # more digits than int() converts: bounded before it reads them
    (("cohomology", "7", "--coeff", "mod2s:" + "9" * 4301), "coefficient level 999", "1..14284"),
    # levels are ASCII decimals, not any spelling int() accepts
    *((("cohomology", "7", "--coeff", c), repr(c), "mod2 | mod2s:<s> | 2adic") for c in ("mod2s:abc", "mod2s:+2")),
    (("verify", "--nmax", "11"), "--nmax 11", "1..10"),
    (("verify", "--nmax", "0"), "--nmax 0", "1..10"),
    (("verify", "--dmax", "2047"), "--dmax 2047", "1..2046"),
    # the tower flags are checked for every scope, also one that builds no tower
    (("verify", "--scope", "s2", "--smax", "-5"), "--smax -5", "6.."),
    (("verify", "--window", "2"), "--window 2", "3.."),
    (("verify", "--smax", "4", "--window", "4"), "--smax 4", "6.."),
    # a tower limit needs window + 2 levels: the ghost chain settles one level late
    (("verify", "--scope", "s5", "--smax", "5", "--window", "4"), "--smax 5", "6.."),
    (("verify", "--scope", "s3", "--smax", "4", "--window", "3"), "--smax 4", "5.."),
]


@pytest.mark.parametrize(
    "argv, quantity, bound", OUT_OF_BOUND, ids=[" ".join(case[0])[:60] for case in OUT_OF_BOUND]
)
def test_table_bound_rejects(argv, quantity, bound):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1  # no traceback
    assert quantity in res.stderr and bound in res.stderr
    assert "max_index" not in res.stderr and "int()" not in res.stderr
    assert "int_max_str_digits" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        *(("cohomology", "--rost", "10", "--coeff", c) for c in COEFFS),
        ("cohomology", "--rost", "1", "--coeff", "mod2s:14284"),
        ("cohomology", "--rost", "1", "--coeff", "mod2s:" + "0" * 4300 + "3"),
        ("nonalgebraic", "2046"),
        ("decompose", "2046"),
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
def test_table_bound_accepts(argv):
    assert run_cli(*argv).returncode == 0


def test_cohomology_requires_one_target():
    assert run_cli("cohomology", "7", "--rost", "2").returncode == 2
    assert run_cli("cohomology").returncode == 2
    assert run_cli("cohomology", "7", "--coeff", "mod3").returncode == 2


def test_record_sort_order():
    res = run_cli("cohomology", "7", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    keys = [
        (r["degree"], -r["source"]["n"], r["source"]["j"], r["generator"])
        for r in payload["records"]
    ]
    assert keys == sorted(keys)


def test_json_round_trip():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    assert json.dumps(payload, indent=2) + "\n" == res.stdout


def test_csv_output():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "2adic", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "degree,twist,order,generator,n,j,algebraic"
    assert "4,0,2,rho_bar_4,2,0,true" in lines


def test_nonalgebraic_fixtures():
    res = run_cli("nonalgebraic", "7", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["has_nonalgebraic"] is True
    assert payload["records"] == [{"degree": 4, "dim": 1, "mod4": 0}]
    res = run_cli("nonalgebraic", "5", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["has_nonalgebraic"] is False
    assert payload["records"] == []
    res = run_cli("nonalgebraic", "15", "--format", "json")
    payload = json.loads(res.stdout)
    mod4 = [r["degree"] for r in payload["records"] if r["mod4"] == 0]
    assert mod4 == [4, 8, 12, 16, 20]


def test_verify_scope_pass():
    res = run_cli("verify", "--scope", "s2")
    assert res.returncode == 0
    assert "PASS C1" in res.stdout


def test_verify_deterministic():
    args = ("verify", "--scope", "s7", "--dmax", "96")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_out_writes_identical_bytes(tmp_path):
    target = tmp_path / "table.json"
    res = run_cli("cohomology", "--rost", "2", "--coeff", "2adic", "--format", "json")
    res2 = run_cli(
        "cohomology", "--rost", "2", "--coeff", "2adic", "--format", "json",
        "--out", str(target),
    )
    assert res2.returncode == 0 and res2.stdout == ""
    assert target.read_text() == res.stdout


@pytest.mark.parametrize(
    "argv",
    [("decompose", "7"), ("cohomology", "7"), ("nonalgebraic", "7"), ("verify", "--scope", "s2")],
    ids=lambda argv: argv[0],
)
def test_out_to_an_unwritable_path(tmp_path, argv):
    target = tmp_path / "missing" / "x.txt"
    res = run_cli(*argv, "--out", str(target))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_verify_json_format():
    res = run_cli("verify", "--scope", "s9", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_rejects_unknown_scope():
    assert run_cli("verify", "--scope", "s99").returncode == 2


def test_verify_exit_code_on_mismatch(monkeypatch, capsys):
    from etale_quadrics import cli
    from etale_quadrics.verify import CheckResult

    fabricated = [CheckResult("X0", "s2", False, "fabricated mismatch", {"got": 1})]
    monkeypatch.setattr(cli, "run_checks", lambda scope, opts: fabricated)
    assert cli.main(["verify", "--scope", "s2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL X0" in out and '"got": 1' in out
