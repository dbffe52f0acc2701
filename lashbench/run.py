#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the checkout root):
    python3 lashbench/run.py --workload offline-mine|serve-zipf|router-2shard \
        --seed N --seconds S --trace 0|1

The benchmark is its own CMake package (lashbench/CMakeLists.txt) that
compiles the library from the checkout's src/ tree. Build files, cached
snapshots and span files go under $CARGO_TARGET_DIR (default .bench_build)
at the checkout root. The last line of stdout is the result JSON; build
output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-mine", "serve-zipf", "router-2shard")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "lash_api.h")):
        sys.stderr.write("lashbench: no library sources at src/ next to the "
                         "benchmark directory; run from a full checkout\n")
        sys.exit(2)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lashbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "lashbench-cmake"))
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("lashbench: build failed: %s\n" % e)
        return 2
    work_dir = os.path.join(out_dir, "lashbench-work")
    os.makedirs(work_dir, exist_ok=True)

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("lashbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write("lashbench: no result line\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
