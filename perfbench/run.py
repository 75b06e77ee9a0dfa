#!/usr/bin/env python3
"""pfsim campaign benchmark: build it from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_1c --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark program (perfbench/src) is built with CMake into .bench_build/
on first use; later runs only re-check the build.  Build output goes to
stderr, so the last line of stdout is the program's JSON result.  --trace 1
also writes the run-level spans to .bench_build/spans/.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pfsim_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(argv):
    try:
        result = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="traced-vs-untraced fidelity check")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    build()
    store = ["--store-dir", os.path.join(BUILD, "store-%d" % os.getpid())]
    if args.selftest:
        return run([BINARY, "--selftest"] + store)

    argv = [BINARY, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--golden-dir", os.path.join(HERE, "golden")] + store
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        argv += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
