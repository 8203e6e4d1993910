"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload quadric-2adic --seeds 1-10 [--json out.json]

Run from the root of a checkout.  Each run is untraced and lasts
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
prints the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (third minus first
quartile) as a share of the median, next to the metric's bound in
BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds, "all_correct": ok, "metrics": {}}
    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": m.get("bound"), "values": vals,
        }
        bound = f"  bound {m['bound']}" if "bound" in m else ""
        print(f"{m['name']}: median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.2%}{bound}")
    print(f"all runs correct: {ok}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
