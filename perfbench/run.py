#!/usr/bin/env python3
"""Build and run the dbpsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which compiles the
simulator libraries from src/) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset, then runs the benchmark
binary. Its report goes to stdout; the simulated-results digest is compared
with the one recorded in perfbench/digests.json; the last stdout line is the
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then build; all tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def digest_note(line, seed):
    """Compare a 'digest <workload> <seed> <hex>' line with the record."""
    _, workload, _, value = line.split()
    recorded = json.loads((HERE / "digests.json").read_text())
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        return f"digest check: no digest recorded for {workload} seed {seed}"
    if want == value:
        return "digest check: every simulated statistic equals the record"
    return (f"digest check: CHANGED for {workload} seed {seed}: "
            f"{value}, recorded {want}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for need in ("src/CMakeLists.txt", "bench/bench_common.hh"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a full dbpsim checkout")

    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]

    # The binary stops by itself after about --seconds plus one check
    # pass (a few seconds); the timeout only guards against a hang.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=args.seconds + 110)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.splitlines()
    result = lines.pop() if lines else ""
    for line in lines:
        print(line)
        if line.startswith("digest "):
            print(digest_note(line, args.seed))
    try:
        parsed = json.loads(result)
    except json.JSONDecodeError:
        parsed = None
    if proc.returncode or not isinstance(parsed, dict) or \
            set(parsed) != RESULT_KEYS:
        print(result, file=sys.stderr)
        fail(f"benchmark failed (exit code {proc.returncode})")
    print(result, flush=True)


if __name__ == "__main__":
    main()
