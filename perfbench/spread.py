#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload inhost [--runs 10] [--first-seed 1]
        [--seconds <s>] [--trace 0]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for each metric, the median of the runs, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. With --trace 0 each spread is compared against the
metric's bound in BENCHMARK.json: "ok" means below a third of the bound.
setup_s is exempt from the spread check (its bound limits drift of the
median between two sets of runs instead). Exits 1 when any run fails or
any checked spread reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        host = next((json.loads(l)["provenance"] for l in lines
                     if l.startswith('{"provenance"')), {})
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()) +
            f" host_steal_share={host.get('host_steal_share', 0):.3f}",
            flush=True)

    print(f"\n{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ""
        if args.trace == 0 and name in bounds and name != "setup_s":
            limit = bounds[name] / 3
            verdict = f"{limit:8.3f} " + ("ok" if spread < limit else "WIDE")
            ok = ok and spread < limit
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
