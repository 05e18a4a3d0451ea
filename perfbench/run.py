#!/usr/bin/env python3
"""Builds and runs the hring benchmark.

    python3 perfbench/run.py --workload <sweep|inhost> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake project that compiles the library sources under
src/) into .bench_build/perfbench with CMAKE_BUILD_TYPE=Release, then runs
one measurement. Build output goes to standard error; the benchmark's
report goes to standard output, whose last line is the JSON result. The
traced run (--trace 1) also writes its spans to
.bench_build/perfbench/traces/<workload>-seed<n>.json (Chrome/Perfetto
trace format). The exit code is 0 only when every timed operation passed
its correctness checks.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hring_perfbench"
WORKLOADS = ("sweep", "inhost")
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_logged(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, text=True)
    sys.stderr.write(proc.stdout)
    return proc.returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if run_logged(configure, BUILD_TIMEOUT_S) != 0:
            fail("configuring the benchmark failed", 1)
    if run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                  BUILD_TIMEOUT_S) != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if (run_logged(configure, BUILD_TIMEOUT_S) != 0 or
                run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                           BUILD_TIMEOUT_S) != 0):
            fail("building the benchmark failed", 1)


def source_digest():
    """sha256 over the library and benchmark sources (path and content)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    args = parse_args()
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; the benchmark builds "
             "the library from source")
    build()
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-out", str(trace_out),
           "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
