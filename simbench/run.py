#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

Usage, from the repository root:

    python3 simbench/run.py --workload paper_idle501 --seed 42 --seconds 10 --trace 0

Configures and builds simbench/ with CMake into .bench_build/simbench, then
runs the benchmark binary. It prints one line per metric and, as its last
line, one JSON object {correct, attempted, failed, metrics}. The exit code
is the binary's: 0 when every check passed. Without the simulator's sources
or a working toolchain the script prints no result and exits non-zero.
With --trace 1 the spans are written to
.bench_build/simbench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    # Build output goes to stderr: stdout must end with the JSON result.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print("simbench: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([
        os.path.join(BUILD, "simbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--golden", os.path.join(ROOT, "results", "fig15_successors.csv"),
        "--trace-out", os.path.join(BUILD, "trace-%s-%d.json" % (args.workload, args.seed)),
    ])


if __name__ == "__main__":
    sys.exit(main())
