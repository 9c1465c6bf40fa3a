#!/usr/bin/env python3
"""Builds and runs the deddb service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (a CMake project that compiles the engine
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs the benchmark binary. The binary's report
goes to standard output; its last line is the JSON result. Build output goes
to standard error. The exit code is the binary's; no result line is printed
when the build or the run fails.

    python3 perfbench/run.py --selftest     # the harness self-tests only

BENCHMARK.json at the repository root lists the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the deddb sources (src/) are missing; nothing to build")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "deddb_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "deddb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    workdir = os.path.join(out, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        # The traced run's spans outlive the run; its databases do not.
        spans = os.path.join(workdir, "spans.tsv")
        if os.path.isfile(spans):
            kept = os.path.join(out, "spans-%s-%d.tsv" % (args.workload, args.seed))
            os.replace(spans, kept)
            print("perfbench: spans written to %s" % kept, file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
