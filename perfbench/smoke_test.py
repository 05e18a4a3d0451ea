#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Short runs (--seconds 1) of every workload in BENCHMARK.json, checking:
  * each run exits 0 and its last line is the result object with exactly
    the keys correct/attempted/failed/metrics, correct true, failed 0;
  * --trace 0 emits exactly the end_to_end metrics and --trace 1 exactly
    the per_layer metrics, each with the unit BENCHMARK.json names;
  * the traced run's trace file parses and holds a span for every layer;
  * determinism: the same seed gives the same input digest and the same
    exact counts; another seed gives another input digest;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the command exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_DIR = ROOT / ".bench_build" / "perfbench" / "traces"
LAYERS = ("ring", "sim", "core.batch_engine", "core.campaign",
          "core.verification", "runtime.inhost", "telemetry",
          "core.model_checker")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def result_of(proc, what):
    check(proc.returncode == 0,
          f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{what}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted {result['attempted']}")
    provenance = next(json.loads(l)["provenance"] for l in lines
                      if l.startswith('{"provenance"'))
    return result, provenance


def check_metrics(result, expected, what):
    want = {m["name"]: m["unit"] for m in expected}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    check(got == want, f"{what}: metrics {got} != {want}")
    for name, metric in result["metrics"].items():
        check(set(metric) == {"value", "unit"} and
              isinstance(metric["value"], (int, float)),
              f"{what}: malformed metric {name}")


def main():
    counts = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, prov1 = result_of(run(workload, 1, 0), f"{workload} trace 0")
        check_metrics(plain, SPEC["end_to_end"], f"{workload} trace 0")
        for name, metric in plain["metrics"].items():
            check(metric["value"] > 0, f"{workload}: {name} is not positive")
        _, prov2 = result_of(run(workload, 2, 0), f"{workload} seed 2")
        check(prov1["inputs_digest"] != prov2["inputs_digest"],
              f"{workload}: input digest does not change with the seed")

        traced, prov = result_of(run(workload, 1, 1), f"{workload} trace 1")
        check_metrics(traced, SPEC["per_layer"], f"{workload} trace 1")
        check(prov["inputs_digest"] == prov1["inputs_digest"],
              f"{workload}: input digest differs for the same seed")
        counts[workload] = prov["counts_digest"]
        trace = json.loads((TRACE_DIR / f"{workload}-seed1.json").read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        missing = [layer for layer in LAYERS if layer not in names]
        check(not missing, f"{workload}: no spans for {missing}")
        print(f"ok  {workload}")

    # The ledger's exact counts depend on the seed alone.
    check(len(set(counts.values())) == 1,
          f"exact counts differ between runs with seed 1: {counts}")
    print("ok  exact counts repeat for a seed")

    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a directory without the sources produced a result")
    print("ok  refuses to run without the sources")


if __name__ == "__main__":
    main()
