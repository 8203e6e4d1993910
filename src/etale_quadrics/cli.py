"""Command-line surface: compute, verify, and emit tables.

Subcommands: decompose (motive decomposition of a quadric), cohomology
(tables with mod2 / mod2s:<s> / 2adic coefficients for a quadric or a
single Rost motive), nonalgebraic (per-degree quotient by the cycle
image), verify (the built-in exactness sweeps).

Output is deterministic: identical invocations produce identical bytes,
and nothing carries a timestamp.  Table records are emitted in the order
(degree, Rost index descending, Tate twist, label) in which
quadrics.iter_cohomology yields them, one group of segments per degree,
not sorted here, and written while they are computed: each Rost entry's
text is formatted once, each term's source cell once, and a segment
comes as aligned slices of these, so its rows are interleaved with the
degree's prefix by slice assignment and joined once, with no Python run
per row.  Exit codes: 0 success (also when the reader of stdout stops
early or is gone before it starts), 1 verification mismatch, 2 invalid
input or usage (an --out path that cannot be written, or a stdout closed
before the process started, included); run() alone handles a gone
reader, and ends a process at its last flush.

A table is written in pieces of about CHUNK_BYTES = 64 KiB of text, into
a pipe on stdout grown to hold 16 (PIPE_BYTES, 1 MiB), so a write blocks
only while the reader of stdout is 16 pieces behind, and each side works
while the other does.  The cap counts characters, not rows, so JSON rows
(about 190 B) and text rows (about 64 B) make writes of one size.

Each process imports only what its subcommand and output format run,
since every process pays its imports (and, without a bytecode cache,
compiles them): the module itself loads argparse, os and sys alone, so
--version, --help and usage errors load nothing more, and fcntl only when
stdout is written.  The three table subcommands load quadrics (with rost,
mod2 and graded) when they run, and only verify loads verify,
presentations, tower and abelian.  Only verify loads json, for its report
and a failed check's diff: every other JSON, like every CSV row, is
written from plain text pieces, since no label, target or coefficient
spec the tables print needs escaping or quoting, so csv is never loaded.
"""

import argparse
import os
import sys

from . import __version__


RECORD_FIELDS = ("degree", "twist", "order", "generator", "n", "j", "algebraic")
# Text held before a table write, in characters, and what a pipe on stdout
# is grown to hold, 16 writes: the module docstring says why.  Against 4096
# rows (260 KB of text, 780 KB of JSON) a write of 64 KiB gave 10% more
# records/s on the quadric-2adic workload; writes of 256 KiB or 1 MiB into
# the 1 MiB pipe were slower (`cohomology 2046`: 95, 113, 121 ms).  Its mod2
# JSON table read through a pipe takes 0.34 s with 16.4 MB resident (2-core
# Xeon host, Python 3.11, spawned, best of 5).
CHUNK_BYTES = 1 << 16
PIPE_BYTES = 16 * CHUNK_BYTES  # 1 MiB: the default pipe-max-size, the most a user may ask for

# The table bound: the largest Rost index the CLI tabulates.  The table of
# M_n has about 2^n rows and that of Q^d grows like d^2; `cohomology 2046
# --coeff mod2` writes 134 MB in 0.18 s to /dev/null and in 0.21 s through
# a pipe, with 16 MB resident, on a 2-core Xeon host (Python 3.11, spawned,
# best of 5), where the table built whole took 19 s and 1.0 GB.  The
# library bounds no d or n; its one bound, quadrics.MAX_LEVEL, belongs to
# the mod2s:<s> spec grammar, since no order 2^s past it prints.
MAX_INDEX = 10
# Q^d splits into Rost motives M_n with n <= MAX_INDEX exactly when
# d + 2 <= 2^(MAX_INDEX + 1), so the dimension bound follows from it.
MAX_DIMENSION = 2 ** (MAX_INDEX + 1) - 2
# verify.SCOPES; like the VerifyOptions defaults in build_parser, pinned by a test
SCOPES = ("all", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9")


def _check_bound(name: str, value: int, bound: int) -> None:
    """Reject a value outside 1..bound, naming what the user passed."""
    if not 1 <= value <= bound:
        raise ValueError(f"{name} {value} is outside 1..{bound}")


def _order_str(order: int) -> str:
    return "Z2" if order == 0 else f"Z/{order}"


def _emit(path: str | None, produce):
    """Run produce(write) and return what it returns; write is the write
    function of stdout, whose pipe, if it is one, is first grown to
    PIPE_BYTES (never shrunk, and left as it is where that fails), or of
    the --out file, opened here after the arguments are checked and before
    anything is computed.  A path that cannot be written (the empty one
    too) or a closed stdout is invalid input, like any bad argument."""
    if path is None:
        if sys.stdout is None:  # fd 1 was closed before the process started
            raise ValueError("cannot write stdout: it is closed")
        try:
            import fcntl

            fd = sys.stdout.fileno()
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, max(PIPE_BYTES, fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)))
        except (ImportError, AttributeError, OSError, ValueError):  # no such call, no pipe, a size refused
            pass
        result = produce(sys.stdout.write)
        sys.stdout.flush()  # a reader gone fails here, before main returns its code
        return result
    try:
        with open(path, "w", encoding="utf-8") as fh:
            return produce(fh.write)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _row_parts(fmt: str, e) -> tuple[str, str]:
    """What a row of Rost entry e (a graded.GradedSummand) keeps under every
    shift M_n tensor T^j, split around the j column (the source column in
    text): order, generator label and n, formatted once per entry, then
    the tail, the algebraicity flag: a string constant per format and
    flag value, so all rows with one flag share one string."""
    flag = 2 if e.algebraic is None else 1 - e.algebraic  # True, False, None: 0, 1, 2
    if fmt == "json":  # no label needs escaping, and the flag is true, false or null
        return (
            f'      "order": {e.order},\n      "generator": "{e.label}",\n'
            f'      "source": {{\n        "n": {e.source[0]},\n        "j": ',
            ('\n      },\n      "algebraic": true\n    }', '\n      },\n      "algebraic": false\n    }',
             '\n      },\n      "algebraic": null\n    }')[flag],
        )
    if fmt == "csv":  # no label holds a comma, quote or line break: nothing to quote
        return f"{e.order},{e.label},{e.source[0]},", (",true\n", ",false\n", ",\n")[flag]
    return f"{_order_str(e.order):>6}  {e.label:<24}  ", ("  yes\n", "  NO\n", "  -\n")[flag]


def _write_table(write, fmt: str, target: str, coeff: str, groups) -> None:
    """Write per-degree groups (c, segments), segments (cells, mids, tails)
    as iter_cohomology yields them with view _row_parts(fmt, _) and the j
    column of each term as its cell, as they come, so that no table is
    ever held whole: the text held, the header first, is written once it
    reaches CHUNK_BYTES characters, checked after each degree, so every
    write but the last holds at least CHUNK_BYTES and less than CHUNK_BYTES
    plus one degree's rows.  The degree-and-twist prefix, the head of each
    row in degree c, is formatted once per degree, with the twist string
    looked up by degree mod 4 (0 and 2: parity 0 and 1, odd: none).  A
    segment's rows are one list, the head repeated with the mids, cells
    and tails put in by three slice assignments, and one join, so no
    Python runs per row.  A JSON head starts with the separator, which the
    table's first row drops.  The JSON is byte for byte
    json.dumps(payload, indent=2) of the whole table, written as text
    without json: only verify loads json, for its report and a failed
    check's diff."""
    if fmt == "json":  # Q^d or Mn, and a spec parse_coefficients accepted: nothing to escape
        header = f'{{\n  "target": "{target}",\n  "coefficients": "{coeff}",\n  "records": ['
        twists = ("0", "null", "1", "null")
        prefix = lambda c: f',\n    {{\n      "degree": {c},\n      "twist": {twists[c & 3]},\n'
    elif fmt == "csv":
        header = ",".join(RECORD_FIELDS) + "\n"
        twists = ("0", "", "1", "")
        prefix = lambda c: f"{c},{twists[c & 3]},"
    else:
        header = (
            f"# {target}  coefficients={coeff}\n"
            f"{'degree':>6}  {'twist':>5}  {'order':>6}  {'generator':<24}  {'source':<10}  algebraic\n"
        )
        twists = ("0", "-", "1", "-")
        prefix = lambda c: f"{c:>6}  {twists[c & 3]:>5}  "
    cut = fmt == "json"  # the length of the separator the next row drops: 1 before the first JSON row
    chunk, held = [header], len(header)
    for c, segments in groups:
        head = prefix(c)
        for cells, mids, tails in segments:
            rows = [head] * (4 * len(cells))
            rows[1::4], rows[2::4], rows[3::4] = mids, cells, tails
            rows[0], cut = head[cut:], 0
            chunk.append("".join(rows))
            held += len(chunk[-1])
        if held >= CHUNK_BYTES:
            write("".join(chunk))
            chunk, held = [], 0
    if fmt == "json":
        chunk.append("]\n}\n" if cut else "\n  ]\n}\n")
    write("".join(chunk))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    _check_bound("quadric dimension", args.d, MAX_DIMENSION)
    from . import quadrics

    def produce(write):
        dec = quadrics.decompose_motive(args.d)
        if args.format == "json":  # ints and the rendering (M, digits, *T, " + "): nothing to escape
            expansion = ",\n    ".join(map(str, dec.expansion))  # d >= 1: never empty, nor are the terms
            terms = ",\n".join(f'    {{\n      "n": {n},\n      "j": {j}\n    }}' for n, j in dec.terms)
            write(
                f'{{\n  "d": {dec.d},\n  "expansion": [\n    {expansion}\n  ],\n  "residual": {dec.residual},\n'
                f'  "terms": [\n{terms}\n  ],\n  "rendered": "{dec.render()}"\n}}\n'
            )
        elif args.format == "csv":  # integers only: nothing to quote
            write("n,j\n" + "".join(f"{n},{j}\n" for n, j in dec.terms))
        else:
            write(f"Q^{dec.d}: {dec.render()}\n")
            write(f"expansion: {list(dec.expansion)} residual: {dec.residual}\n")

    _emit(args.out, produce)
    return 0


def _cmd_cohomology(args) -> int:
    from functools import partial

    from . import quadrics

    quadrics.parse_coefficients(args.coeff)  # a bad spec is reported before a bad target
    if (args.d is None) == (args.rost is None):
        raise ValueError("give exactly one target: a quadric dimension or --rost <n>")
    if args.rost is not None:
        _check_bound("--rost", args.rost, MAX_INDEX)
        target, blocks = f"M{args.rost}", ((args.rost, 0, 1),)
    else:
        _check_bound("quadric dimension", args.d, MAX_DIMENSION)
        target, blocks = f"Q^{args.d}", quadrics.decompose_motive(args.d).blocks
    view = partial(_row_parts, args.format)
    cell = (lambda n, j: f"M{n}*T{j}".ljust(10)) if args.format == "text" else (lambda n, j: str(j))
    groups = quadrics.iter_cohomology(blocks, args.coeff, view, cell)  # a generator: nothing runs yet
    _emit(args.out, lambda write: _write_table(write, args.format, target, args.coeff, groups))
    return 0


def _cmd_nonalgebraic(args) -> int:
    _check_bound("quadric dimension", args.d, MAX_DIMENSION)
    from . import quadrics

    def produce(write):
        report = quadrics.nonalgebraic_report(args.d)
        if args.format == "json":  # ints and one bool: nothing to escape
            rows = ",".join(
                f'\n    {{\n      "degree": {deg},\n      "dim": {dim},\n      "mod4": {deg % 4}\n    }}'
                for deg, dim in report.dims
            )
            close = "\n  ]" if rows else "]"
            write(
                f'{{\n  "target": "Q^{args.d}",\n  "has_nonalgebraic": {str(report.has_nonalgebraic).lower()},\n'
                f'  "records": [{rows}{close}\n}}\n'
            )
        elif args.format == "csv":  # integers only: nothing to quote
            write("degree,dim,mod4\n" + "".join(f"{deg},{dim},{deg % 4}\n" for deg, dim in report.dims))
        else:
            lines = [f"# Q^{args.d}  non-algebraic quotient (torsion only; free part is algebraic)"]
            if report.dims:
                lines.append(f"{'degree':>6}  {'dim':>3}  c mod 4")
                lines += [f"{deg:>6}  {dim:>3}  {deg % 4}" for deg, dim in report.dims]
            else:
                lines.append("all classes algebraic")
            lines.append(f"has_nonalgebraic: {str(report.has_nonalgebraic).lower()}")
            write("\n".join(lines) + "\n")

    _emit(args.out, produce)
    return 0


def _cmd_verify(args) -> int:
    _check_bound("--dmax", args.dmax, MAX_DIMENSION)
    _check_bound("--nmax", args.nmax, MAX_INDEX)
    from . import verify

    opts = verify.VerifyOptions(dmax=args.dmax, nmax=args.nmax)

    def produce(write) -> bool:
        results = verify.run_checks(args.scope, opts)
        ok = all(r.passed for r in results)
        if args.format == "json":
            import json

            payload = {
                "scope": args.scope,
                "passed": ok,
                "checks": [r.as_dict() for r in results],
            }
            write(json.dumps(payload, indent=2) + "\n")
        else:
            lines = []
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                line = f"{mark} {r.check_id}: {r.detail}"
                if not r.passed:
                    import json

                    line += f"  diff={json.dumps(r.diff, sort_keys=True)}"
                lines.append(line)
            lines.append(f"{'OK' if ok else 'MISMATCH'} ({sum(r.passed for r in results)}/{len(results)} checks)")
            write("\n".join(lines) + "\n")
        return ok

    return 0 if _emit(args.out, produce) else 1


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
    p.add_argument("--dmax", type=int, default=512, help="dimension sweep bound (default: %(default)s)")
    p.add_argument("--nmax", type=int, default=6, help="Rost index bound (default: %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand argv names and return its exit code, 2 for invalid
    input, also when stderr is closed and its message is lost; a gone
    reader of stdout raises BrokenPipeError, for run() to end."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        if sys.stderr is not None:  # None: fd 2 was closed before the process started
            try:
                print(f"error: {exc}", file=sys.stderr)
            except OSError:  # fd 2 unwritable: after `2>&-` a launcher script may hold it read-only
                pass
        return 2


def run() -> None:
    """The process entry (python -m etale_quadrics, the etale-quadrics
    script), and the one place that handles a reader of stdout that has
    gone: the exit code of main(), of argparse's SystemExit, or 0 for a
    BrokenPipeError out of main (the reader stopped early, `| head`), ends
    the process through os._exit once stdout and stderr are flushed,
    skipping the interpreter's teardown.  Nothing is left for it to do:
    the package registers no atexit handler, and _emit closes an --out
    file in its with block.  A stdout whose reader has gone flushes its
    last text into os.devnull, so `--help | true` exits 0.  A code that
    is no int, a stream that is None or another flush that raises ends
    through sys.exit.  No other exception is caught, so a bug prints its
    traceback and exits 1."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    except BrokenPipeError:  # the reader of stdout stopped early (`| head`)
        code = 0
    if isinstance(code, int) and None not in (sys.stdout, sys.stderr):
        try:
            try:
                sys.stdout.flush()
            except BrokenPipeError:  # its reader is gone: what stdout holds goes nowhere
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
