#!/usr/bin/env python3
"""Builds and runs the ALID end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: detect_static, ingest_heavy, serve_churn, shard_fanout. The
library and the benchmark binary are built from source into
.bench_build/e2ebench on first use (a later call only rebuilds what
changed). The binary runs in its
own process; its standard output is passed through, and its last line is
the JSON result. Build output goes to standard error. The exit code is the
binary's (non-zero when a correctness check failed, the build failed or the
run overran its time limit).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-trace")
WORKLOADS = ("detect_static", "ingest_heavy", "serve_churn", "shard_fanout")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("e2ebench: the ALID sources (CMakeLists.txt, src/) are missing "
              "next to " + HERE, file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("e2ebench: cmake not found", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    env = dict(os.environ)
    env.pop("ALID_TRACE", None)  # the program's own recorder stays off
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
