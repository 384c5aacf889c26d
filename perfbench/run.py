#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload trace_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The library is compiled from ../src by
perfbench/CMakeLists.txt into .bench_build/perfbench (incremental after the
first run); the workload then runs in its own process, which checks its
outputs and prints one JSON result line. That line is the last line of this
script's standard output; build logs and progress go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("trace_stream", "sampled_serve", "paper_sweep")
# The workload process gets what is left of the 180 s a run may take after
# an incremental build.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "serve", "server.hpp")):
        fail(f"no library sources under {os.path.join(root, 'src')}; "
             "run from the root of a full checkout")
    binary = build(root)
    work_dir = os.path.join(root, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", code=3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload exited with code {proc.returncode}", code=proc.returncode or 4)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("workload printed a malformed result line", code=4)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
