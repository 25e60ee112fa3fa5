#!/usr/bin/env python3
"""Builds and runs the AIMS benchmark.

    python3 aimsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library (../src) and aims_bench in Release mode under .bench_build/; later
runs reuse that build. Build output goes to stderr, so the last line of
stdout is aims_bench's JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "aimsbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("ingest_mixed", "query_olap", "live_recognition")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "aims_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: AIMS sources (src/) not found next to aimsbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "aims_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
