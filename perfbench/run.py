#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload, or all.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the repository root.  Every run configures and builds a Release
tree under $CARGO_TARGET_DIR (default .bench_build), in a directory named
after this checkout's path, so checkouts that share one target directory
never build each other's sources; later runs only rebuild what changed.
The last line of standard output is the result JSON printed by the
benchmark binary.  `--workload all` runs every workload untraced and then
traced, so one command prints every end-to-end and per-layer metric.  The
exit code is nonzero when the build fails or any output check fails.  See
perfbench/METRICS.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fork_join", "fiber_ops", "paper_nbody", "multitenant")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170  # a run must end within 180 s, build excluded


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(cmd)} failed ({rc}); log in {log_path}", 1)


def run_one(build_dir, args, workload, trace):
    """Runs one workload, prints its output, and returns its exit code."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", os.path.join(build_dir, f"spans-{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited {proc.returncode} without a result", proc.returncode or 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload untraced, then traced; --trace is ignored")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's test")
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    checkout = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, target, f"perfbench-{checkout}")
    build(build_dir)

    if args.workload != "all":
        sys.exit(run_one(build_dir, args, args.workload, args.trace))
    codes = [run_one(build_dir, args, w, t) for t in (0, 1) for w in WORKLOADS]
    sys.exit(next((c for c in codes if c != 0), 0))


if __name__ == "__main__":
    main()
