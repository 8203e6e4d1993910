"""Command-line surface: compute, verify, and emit tables.

Subcommands: decompose (motive decomposition of a quadric), cohomology
(tables with mod2 / mod2s:<s> / 2adic coefficients for a quadric or a
single Rost motive), nonalgebraic (per-degree quotient by the cycle
image), verify (the built-in exactness sweeps).

Output is deterministic: identical invocations produce identical bytes,
records are sorted by (degree, Rost index descending, Tate twist, label),
and nothing carries a timestamp.  Exit codes: 0 success, 1 verification
mismatch, 2 invalid input or usage (an --out path that cannot be written
included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import __version__
from .graded import Graded2Group
from .quadrics import (
    assemble_cohomology,
    decompose_motive,
    nonalgebraic_report,
    parse_coefficients,
    rost_table,
)
from .verify import SCOPES, VerifyOptions, run_checks


RECORD_FIELDS = ("degree", "twist", "order", "generator", "n", "j", "algebraic")

# The table bound: the largest Rost index the CLI tabulates.  The table of
# M_n has about 2^n rows and that of Q^d grows like d^2; `cohomology 2046
# --coeff mod2` already takes 21 s and 1.0 GB on a 2-core host.  The library
# itself has no bound.
MAX_INDEX = 10
# Q^d splits into Rost motives M_n with n <= MAX_INDEX exactly when
# d + 2 <= 2^(MAX_INDEX + 1), so the dimension bound follows from it.
MAX_DIMENSION = 2 ** (MAX_INDEX + 1) - 2
# The largest coefficient level s whose order 2^s still prints under the
# interpreter's default limit of 4300 digits for int-to-str conversion.
MAX_LEVEL = 14284


def _check_bound(name: str, value: int | str, bound: Optional[int], low: int = 1) -> None:
    """Reject a value outside low..bound (no upper end when bound is None),
    naming what the user passed: an int, or the ASCII digits of a level
    typed inside a spec.  Digits longer than the bound are out of range
    unread, so int() never sees them (it refuses more than 4300)."""
    if isinstance(value, str):
        digits = value.lstrip("0") or "0"
        inside = len(digits) <= len(str(bound)) and low <= int(digits) <= bound
    else:
        inside = low <= value and (bound is None or value <= bound)
    if not inside:
        raise ValueError(f"{name} {value} is outside {low}..{'' if bound is None else bound}")


def _order_str(order: int) -> str:
    return "Z2" if order == 0 else f"Z/{order}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # reported as invalid input, like any bad argument
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _render_table(target: str, coefficients: str, table: Graded2Group, fmt: str) -> str:
    if fmt == "json":
        records = [
            {
                "degree": e.degree,
                "twist": e.twist,
                "order": e.order,
                "generator": e.label,
                "source": {"n": e.source[0], "j": e.source[1]},
                "algebraic": e.algebraic,
            }
            for e in table.entries
        ]
        payload = {"target": target, "coefficients": coefficients, "records": records}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(
            (
                e.degree,
                "" if e.twist is None else e.twist,
                e.order,
                e.label,
                *e.source,
                "" if e.algebraic is None else str(e.algebraic).lower(),
            )
            for e in table.entries
        )
        return buf.getvalue()
    lines = [f"# {target}  coefficients={coefficients}"]
    lines.append(f"{'degree':>6}  {'twist':>5}  {'order':>6}  {'generator':<24}  {'source':<10}  algebraic")
    for e in table.entries:
        src = f"M{e.source[0]}*T{e.source[1]}"
        alg = "-" if e.algebraic is None else ("yes" if e.algebraic else "NO")
        twist = "-" if e.twist is None else str(e.twist)
        lines.append(
            f"{e.degree:>6}  {twist:>5}  {_order_str(e.order):>6}  {e.label:<24}  {src:<10}  {alg}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    _check_bound("quadric dimension", args.d, MAX_DIMENSION)
    dec = decompose_motive(args.d)
    if args.format == "json":
        payload = {
            "d": dec.d,
            "expansion": list(dec.expansion),
            "residual": dec.residual,
            "terms": [{"n": t.n, "j": t.j} for t in dec.terms],
            "rendered": dec.render(),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("n", "j"))
        for t in dec.terms:
            writer.writerow((t.n, t.j))
        _emit(buf.getvalue(), args.out)
    else:
        lines = [
            f"Q^{dec.d}: {dec.render()}",
            f"expansion: {list(dec.expansion)} residual: {dec.residual}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cohomology(args) -> int:
    kind, _, level = args.coeff.partition(":")
    if kind == "mod2s" and level.isascii() and level.isdigit():
        _check_bound("coefficient level", level, MAX_LEVEL)  # before int() reads it
    parse_coefficients(args.coeff)  # a bad spec is reported before a bad target
    if (args.d is None) == (args.rost is None):
        raise ValueError("give exactly one target: a quadric dimension or --rost <n>")
    if args.rost is not None:
        _check_bound("--rost", args.rost, MAX_INDEX)
        target, table = f"M{args.rost}", rost_table(args.rost, args.coeff)
    else:
        _check_bound("quadric dimension", args.d, MAX_DIMENSION)
        target, table = f"Q^{args.d}", assemble_cohomology(args.d, args.coeff)
    _emit(_render_table(target, args.coeff, table, args.format), args.out)
    return 0


def _cmd_nonalgebraic(args) -> int:
    _check_bound("quadric dimension", args.d, MAX_DIMENSION)
    report = nonalgebraic_report(args.d)
    rows = [{"degree": deg, "dim": dim, "mod4": deg % 4} for deg, dim in report.dims]
    if args.format == "json":
        payload = {
            "target": f"Q^{args.d}",
            "has_nonalgebraic": report.has_nonalgebraic,
            "records": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("degree", "dim", "mod4"))
        for r in rows:
            writer.writerow((r["degree"], r["dim"], r["mod4"]))
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"# Q^{args.d}  non-algebraic quotient (torsion only; free part is algebraic)"]
        if rows:
            lines.append(f"{'degree':>6}  {'dim':>3}  c mod 4")
            lines += [f"{r['degree']:>6}  {r['dim']:>3}  {r['mod4']}" for r in rows]
        else:
            lines.append("all classes algebraic")
        lines.append(f"has_nonalgebraic: {str(report.has_nonalgebraic).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    _check_bound("--dmax", args.dmax, MAX_DIMENSION)
    _check_bound("--nmax", args.nmax, MAX_INDEX)
    # the rules of abelian.inverse_limit and tower.CoefficientTower, checked
    # for every scope so that the error names the flag
    _check_bound("--window", args.window, None, low=3)
    _check_bound("--smax", args.smax, None, low=args.window + 2)
    opts = VerifyOptions(smax=args.smax, dmax=args.dmax, nmax=args.nmax, window=args.window)
    results = run_checks(args.scope, opts)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "scope": args.scope,
            "passed": ok,
            "checks": [r.as_dict() for r in results],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{mark} {r.check_id}: {r.detail}"
            if not r.passed:
                line += f"  diff={json.dumps(r.diff, sort_keys=True)}"
            lines.append(line)
        lines.append(f"{'OK' if ok else 'MISMATCH'} ({sum(r.passed for r in results)}/{len(results)} checks)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etale-quadrics",
        description=(
            "Exact 2-adic etale cohomology tables, cycle-map images and "
            "non-algebraic class inventories for anisotropic quadrics over the reals."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default: text)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    p = sub.add_parser("decompose", help="motive decomposition of the dimension-d quadric")
    p.add_argument("d", type=int, help="quadric dimension (>= 1)")
    add_common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cohomology", help="cohomology table of a quadric or a Rost motive")
    p.add_argument("d", type=int, nargs="?", help="quadric dimension (>= 1)")
    p.add_argument("--rost", type=int, metavar="N", help="target the index-N Rost motive instead")
    p.add_argument(
        "--coeff", default="2adic", metavar="SPEC",
        help="coefficients: mod2 | mod2s:<s> | 2adic (default: 2adic)",
    )
    add_common(p)
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("nonalgebraic", help="per-degree quotient by the cycle-map image")
    p.add_argument("d", type=int, help="quadric dimension (>= 1)")
    add_common(p)
    p.set_defaults(fn=_cmd_nonalgebraic)

    p = sub.add_parser("verify", help="run the built-in exactness sweeps")
    p.add_argument(
        "--scope", default="all", choices=SCOPES,
        help="check group to run (default: all)",
    )
    p.add_argument("--smax", type=int, default=8, help="tower depth (default: 8)")
    p.add_argument("--dmax", type=int, default=512, help="dimension sweep bound (default: 512)")
    p.add_argument("--nmax", type=int, default=6, help="Rost index bound (default: 6)")
    p.add_argument("--window", type=int, default=4, help="stabilization window (default: 4)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
