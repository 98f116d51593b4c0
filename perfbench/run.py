#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv|ring-wide|recover --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
froram library and the benchmark binary from source into .bench_build/
(Release); later runs reuse that build. The binary's output is passed
through: a diagnostics line, then as the last line one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
binary's (non-zero when a check failed or the build is impossible). A run
that takes longer than 60 s plus 5 s per second of --seconds is stopped
and exits with code 3.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv", "ring-wide", "recover")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "oram_system.hpp")):
        log("froram sources (src/) not found next to perfbench/")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def commit_id():
    """The checkout's git commit, or "unknown" outside a repository."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    binary = build()
    if binary is None:
        return 2

    run_dir = os.path.join(build_dir(), "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--commit", commit_id()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".csv")]
    timeout = 60 + 5 * args.seconds
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %.0f s" % timeout)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
