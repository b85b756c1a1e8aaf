#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's own sources into .bench_build/
(CMake, Release). After every fresh build the benchmark's self-tests run once
before any workload. The benchmark binary prints the metrics; its last stdout
line is the JSON result. Exit code 0 only when the build, the self-tests and
every correctness check pass. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = root / BUILD_DIR
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        log("no library sources next to perfbench/; run from a full checkout")
        return None
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return out


def run(cmd, timeout):
    """Runs cmd with stdout passed through; returns its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1


def selftest(out, force):
    """Runs the self-tests unless they already passed on this binary."""
    binary = out / "perfbench_selftest"
    stamp = out / "selftest.passed"
    mtime = str(binary.stat().st_mtime_ns)
    if not force and stamp.is_file() and stamp.read_text() == mtime:
        return True
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        log("self-tests failed")
        return False
    stamp.write_text(mtime)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    root = pathlib.Path.cwd()
    out = build(root)
    if out is None:
        return 1
    if not selftest(out, args.selftest):
        return 1
    if args.selftest:
        return 0
    return run([str(out / "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
