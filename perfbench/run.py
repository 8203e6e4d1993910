"""Benchmark of the etale-quadrics CLI in the checkout it runs from.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` drives the CLI as a closed
loop, one client and one child process at a time (``python -m
etale_quadrics`` with ``PYTHONPATH=src``), repeating the workload's round
of calls until ``--seconds`` have passed, and prints the end-to-end
metrics.  ``--trace 1`` runs the same round in-process, alternately
without and with the layer wrappers of ``tracer.py``, and prints the
per-layer metrics plus the tracing overhead.  The gated times of ``--trace
0`` are normalised for host speed by a reference loop timed between calls
(see ``Run.normalised``).  Every output is checked by
``gate.py``; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json``.  Full results (metadata, samples, failures) and
the spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Call, Gate, StreamDigest, TextSink, decomposition_terms, rows_of, self_test
from plan import WORKLOADS, Draw, draw_round, resolve
from tracer import Tracer, installed

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9  # --version runs per run; setup_s is their median
MIN_ROUNDS = 2  # so every run repeats its argv at least once
SELF_TEST_D = 7  # smallest quadric with a non-algebraic class
REF_S = 0.08  # reference_s() time of the host that normalised times are scaled to
HOST_ELASTICITY = 0.6  # exponent on the loop-time ratio in Run.normalised


class Abort(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# Runs one CLI child and reports its exit code, wall time and peak resident
# set on the file descriptor given as argv[1].  Linux carries the parent's
# resident-set high-water mark into a spawned child's ru_maxrss, so the CLI
# is spawned from this small interpreter, not from the benchmark process.
LAUNCHER = """
import os, sys, time
report = int(sys.argv[1])
os.set_inheritable(report, False)
cmd = [sys.executable, "-m", "etale_quadrics", *sys.argv[2:]]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, cmd, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(report, f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}".encode())
"""


def run_child(argv) -> tuple[int, StreamDigest, float, int]:
    """Run the CLI once; returns (exit code, stdout digest, wall seconds,
    peak resident set in KiB)."""
    out = StreamDigest()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    report_r, report_w = os.pipe()
    try:
        cmd = [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w), *argv]
        with subprocess.Popen(
            cmd, cwd=ROOT, env=env, pass_fds=(report_w,), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            os.close(report_w)
            report_w = -1
            try:
                while chunk := proc.stdout.read(1 << 16):
                    out.feed(chunk)
            except BaseException:  # interrupted: take the CLI child down too
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        with os.fdopen(report_r, "rb") as fh:
            report_r = -1
            report = fh.read().split()
    finally:
        for fd in (report_r, report_w):
            if fd >= 0:
                os.close(fd)
    if proc.returncode != 0 or len(report) != 3:
        return proc.returncode or 1, out, 0.0, 0
    return int(report[0]), out, float(report[1]), int(report[2])


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop (integer arithmetic, tuple
    keys, dict updates, a sort), independent of the package.  It is timed
    before and after every timed call to gauge the host's speed at that
    moment (see Run.normalised)."""
    t0 = time.perf_counter()
    table: dict = {}
    x = 1
    for i in range(30000):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 1024, i % 61)
        table[key] = table.get(key, 0) + (x << 33) // (i + 1)
    sorted(table.items())
    return time.perf_counter() - t0


@dataclasses.dataclass
class Sample:
    call: Call
    wall: float
    start: float
    end: float
    ref: int  # index in Run.refs of the reference loop timed just before
    rows: int


class Run:
    """State of one benchmark run: gate, samples, reference loops and peak
    memory."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.gate = Gate()
        self.peak_rss_kib = 0
        self.samples: list[Sample] = []
        self.refs: list[tuple[float, float]] = []  # (midpoint, seconds) of each reference loop
        self.self_test_missed: list[str] = []

    def child(self, call: Call) -> tuple[StreamDigest, float, bool]:
        """Run and judge one call: (stdout digest, wall seconds, correct)."""
        code, out, wall, rss = run_child(call.argv)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        ok = self.gate.judge(call, code, out) is None
        return out, wall, ok

    def _reference(self) -> None:
        t0 = time.perf_counter()
        seconds = reference_s()
        self.refs.append((t0 + seconds / 2, seconds))

    def timed(self, call: Call) -> None:
        """Run, judge and record one call between two reference loops;
        consecutive timed calls share the loop between them."""
        if not self.refs:
            self._reference()
        start = time.perf_counter()
        out, wall, _ = self.child(call)
        end = time.perf_counter()
        self._reference()
        self.samples.append(Sample(call, wall, start, end, len(self.refs) - 2, rows_of(call, out)))

    def normalised(self, s: Sample) -> float:
        """The sample's wall time on a host that runs reference_s() in REF_S.

        The machine the benchmark was written on shares its cores with
        other tenants, and its speed drifts by tens of percent within
        seconds to minutes.  The reference loop slows down with it, by
        more than the CLI does: over repeats of one call, the log of its
        wall time moved by 0.6 to 0.75 times the log of the loop time
        (correlation about 0.8).  So the wall time is scaled by (REF_S /
        loop time) ** HOST_ELASTICITY, where the loop time is the mean of
        the loops timed within one call length of the call, at least the
        two that flank it: a long call, which averages the host's speed
        over its own length, is compared with loops spread over as long a
        time."""
        span = s.end - s.start
        lo, hi = s.ref, s.ref + 1
        while lo > 0 and self.refs[lo - 1][0] >= s.start - span:
            lo -= 1
        while hi + 1 < len(self.refs) and self.refs[hi + 1][0] <= s.end + span:
            hi += 1
        loop = statistics.fmean(t for _, t in self.refs[lo : hi + 1])
        return s.wall * (REF_S / loop) ** HOST_ELASTICITY

    def measure_setup(self) -> None:
        from_src = _package_version()
        call = Call("version", ("--version",), metric="setup_s", header=f"etale-quadrics {from_src}")
        for _ in range(SETUP_SAMPLES):
            self.timed(call)

    def run_self_test(self) -> None:
        terms = self.decompose(SELF_TEST_D)
        call = resolve(Draw("cohomology", SELF_TEST_D), lambda d: terms)
        code, out, _, _ = run_child(call.argv)
        if terms is None or code != 0 or not out.complete:
            self.self_test_missed = ["self-test table could not be produced"]
        else:
            self.self_test_missed = self_test(call, out.head)

    def decompose(self, d: int):
        """Motive decomposition terms of Q^d from the CLI, untimed; None
        when the call failed (the gate has counted it)."""
        out, _, ok = self.child(Call("decompose", ("decompose", str(d), "--format", "json")))
        return decomposition_terms(json.loads(out.head), d) if ok else None

    def calls(self) -> list[Call]:
        cache: dict[int, list] = {}

        def terms_of(d):
            if d not in cache:
                cache[d] = self.decompose(d)
            return cache[d]

        return [resolve(draw, terms_of) for draw in draw_round(self.workload, self.seed)]


def _package_version() -> str:
    text = (SRC / "etale_quadrics" / "__init__.py").read_text()
    for line in text.splitlines():
        if line.startswith("__version__"):
            return line.split("=", 1)[1].strip().strip("\"'")
    raise Abort("src/etale_quadrics/__init__.py defines no __version__")


# ---------------------------------------------------------------------------
# the untraced closed loop


def run_loop(run: Run, calls: list[Call], seconds: float) -> None:
    """Repeat the round's calls in order until `seconds` have passed, after
    at least MIN_ROUNDS whole rounds; the last round may stop part way."""
    t0 = time.perf_counter()
    for i in itertools.count():
        if i >= MIN_ROUNDS * len(calls) and time.perf_counter() - t0 >= seconds:
            return
        run.timed(calls[i % len(calls)])


def end_to_end(run: Run, calls: list[Call]) -> dict[str, float]:
    """setup_s is the median normalised time of --version; round_norm_s
    sums, over the round's calls, each call's median normalised time across
    rounds; records_norm_per_s divides the rows of the cohomology (or
    verify) calls by the same medians.  The *_wall_* values are the same
    over wall times, and host_ref_s the median reference loop: they are
    printed, not gated."""
    times: dict[str, dict[tuple, list[float]]] = {"norm": {}, "wall": {}}
    rows: dict[tuple, int] = {}
    for s in run.samples:
        times["norm"].setdefault(s.call.argv, []).append(run.normalised(s))
        times["wall"].setdefault(s.call.argv, []).append(s.wall)
        rows[s.call.argv] = s.rows
    table = [c.argv for c in calls if c.kind in ("cohomology", "verify")]
    table_rows = sum(rows[a] for a in table)
    out = {"peak_rss_mb": run.peak_rss_kib * 1024 / 1e6, "host_ref_s": statistics.median(t for _, t in run.refs)}
    for suffix, by_argv in times.items():
        median = {argv: statistics.median(t) for argv, t in by_argv.items()}
        out["setup_s" if suffix == "norm" else "setup_wall_s"] = median[("--version",)]
        out[f"round_{suffix}_s"] = sum(median[c.argv] for c in calls)
        out[f"records_{suffix}_per_s"] = table_rows / sum(median[a] for a in table)
    return out


def top_percentile(values: list[float]):
    """(p, value) for the highest of p99/p95/p90/p75/p50 that has at least
    ten samples above it, else None."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * len(ordered) // 100)  # nearest-rank percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def per_call_summary(run: Run) -> list[dict]:
    """Median wall time, count and top percentile per timed command and
    band, and the median normalised time."""
    groups: dict[tuple[str, str], list[Sample]] = {}
    for s in run.samples:
        groups.setdefault((s.call.metric, s.call.band), []).append(s)
    out = []
    for (metric, band), samples in sorted(groups.items()):
        walls = [s.wall for s in samples]
        row = {
            "metric": metric, "band": band, "unit": "s", "median": statistics.median(walls), "n": len(walls),
            "norm_median": statistics.median(run.normalised(s) for s in samples),
        }
        top = top_percentile(walls)
        if top:
            row[f"p{top[0]}"] = top[1]
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# the in-process traced run


def _import_package():
    sys.path.insert(0, str(SRC))
    import etale_quadrics
    from etale_quadrics import cli, verify

    if not Path(etale_quadrics.__file__).resolve().is_relative_to(SRC.resolve()):
        raise Abort(f"imported etale_quadrics from {etale_quadrics.__file__}, not {SRC}")
    return cli, verify


class InProcess:
    """Runs a round's calls in this process, traced or not."""

    def __init__(self, run: Run, calls: list[Call]) -> None:
        self.run = run
        self.calls = calls
        self.cli, self.verify = _import_package()
        self.checks = [f for k, f in vars(self.verify).items() if k.startswith("check_") and callable(f)]
        self.check_ids: list[str] = []

    def _verify_options(self, argv):
        args = self.cli.build_parser().parse_args(list(argv))
        names = {f.name for f in dataclasses.fields(self.verify.VerifyOptions)}
        return self.verify.VerifyOptions(**{k: v for k, v in vars(args).items() if k in names})

    def _verify(self, call: Call, tracer) -> tuple[int, StreamDigest]:
        """The public check_* functions, called directly, one span each.
        A check that raises makes the call exit with code 1."""
        out = StreamDigest()
        try:
            opts = self._verify_options(call.argv)
            results = []
            for i, fn in enumerate(self.checks):
                if tracer is None:
                    results.append(fn(opts))
                else:
                    check_id = self.check_ids[i] if i < len(self.check_ids) else fn.__name__
                    results.append(tracer.call(f"verify.{check_id}", fn, opts))
            self.check_ids = [r.check_id for r in results]
            ok = all(r.passed for r in results)
            payload = {"scope": "all", "passed": ok, "checks": [r.as_dict() for r in results]}
        except Exception:
            return 1, out
        out.feed((json.dumps(payload, indent=2) + "\n").encode())
        return 0, out

    def _cli(self, call: Call) -> tuple[int, StreamDigest]:
        """cli.main on the call's argv; an exception it raises makes the
        call exit with code 1, as an uncaught one would in a child."""
        sink = TextSink()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = 1
        return code, sink.digest

    def round(self, tracer=None) -> float:
        total = 0.0
        for call in self.calls:
            t0 = time.perf_counter()
            if call.kind == "verify":
                code, out = self._verify(call, tracer)
            else:
                code, out = self._cli(call)
            total += time.perf_counter() - t0
            self.run.gate.judge(call, code, out)
            if tracer is not None and call.kind != "verify":
                tracer.counters["cli.bytes_out"] += out.nbytes
                tracer.counters["cli.rows_out"] += rows_of(call, out)
        return total


def run_traced(run: Run, calls: list[Call], seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced rounds until `seconds` have passed.
    Per-layer values are per traced round; trace.overhead_s is the traced
    minus the untraced wall time of one round."""
    inproc = InProcess(run, calls)
    tracer = Tracer()
    plain = traced = 0.0
    pairs = 0
    t0 = time.perf_counter()
    while pairs < 1 or time.perf_counter() - t0 < seconds:
        plain += inproc.round()
        with installed(tracer):
            traced += inproc.round(tracer)
        pairs += 1
    tracer.write_spans(spans_path)
    totals = tracer.totals()
    metrics = {k: (v if k in tracer.maxima else v / pairs) for k, v in totals.items()}
    metrics["trace.overhead_s"] = (traced - plain) / pairs
    metrics["trace.rounds"] = pairs
    return metrics


# ---------------------------------------------------------------------------
# metadata and output


def _git_commit():
    """HEAD of the checkout's own .git, read without running git (which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, calls: list[Call]) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "argv": [list(c.argv) for c in calls],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etale_quadrics" / "cli.py").is_file():
        raise Abort(f"no etale_quadrics package under {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    run.run_self_test()
    calls = run.calls()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = []
    if args.trace:
        measured = run_traced(run, calls, args.seconds, OUT / f"{stem}.spans.jsonl")
    else:
        run.measure_setup()
        run_loop(run, calls, args.seconds)
        measured = end_to_end(run, calls)
        summary = per_call_summary(run)
    error_rate = run.gate.failed / run.gate.attempted
    correct = run.gate.failed == 0 and not run.self_test_missed
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    meta = metadata(args, calls)

    result = {
        "meta": meta,
        "correct": correct,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "error_rate": error_rate,
        "self_test_missed": run.self_test_missed,
        "failures": run.gate.failures,
        "metrics": measured,
        "per_call": summary,
        "samples": [[list(x.call.argv), x.wall, run.normalised(x), x.start, x.end, x.ref] for x in run.samples],
        "refs": run.refs,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    for row in summary:
        extra = "".join(f"  {k} {row[k]:.4f}" for k in row if k.startswith("p"))
        band = f" [d {row['band']}]" if row["band"] else ""
        print(f"{row['metric']}{band}: median {row['median']:.4f} s  n={row['n']}{extra}  normalised {row['norm_median']:.4f} s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for name in ("setup_wall_s", "round_wall_s", "records_wall_per_s", "host_ref_s"):
        if name in measured:
            print(f"{name}: {measured[name]:.6g} (not gated)")
    print(f"error_rate: {error_rate:.6g} ({run.gate.failed}/{run.gate.attempted} calls failed)")
    for failure in run.gate.failures[:10]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    for missed in run.self_test_missed:
        print(f"SELF-TEST MISSED: {missed}")
    print("meta: " + json.dumps(meta))
    print(
        json.dumps(
            {"correct": correct, "attempted": run.gate.attempted, "failed": run.gate.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Abort as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
