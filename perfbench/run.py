#!/usr/bin/env python3
"""Engine benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from the repository's src/ tree) on first use, then runs one
workload:

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 10 --trace 0

Workloads: cold-neuro, warm-serve, sharded-serve, continuous-churn.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is non-zero
when a result disagrees with its reference (see --inject-fault), when a
stationarity guard trips, or when the program cannot be built.

    python3 perfbench/run.py --self-test     # the benchmark's own arithmetic

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the directory the command runs from.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; nothing to build")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one measured result; the run must "
                             "then fail")
    parser.add_argument("--self-test", action="store_true",
                        help="run the arithmetic self-tests and exit")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build()
    if args.self_test:
        cmd = [os.path.join(out, "perfbench_selftest")]
    else:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.inject_fault:
            cmd.append("--inject-fault")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
