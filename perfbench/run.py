#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan_solo --seed 1 --seconds 10 \
        --trace 0

Workloads are scan_solo, serve_mix and ingest_mix (see README.md here).
The build lands in .bench_build/perfbench; build output goes to standard
error, so standard output carries only the benchmark's report, ending
with one JSON line. The exit code is the benchmark's: 0 when every check
passed, 1 when one failed, 2 on bad arguments, 3 when the build failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then brings the binary up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: no engine sources next to perfbench/ "
                  "(missing %s)" % needed, file=sys.stderr)
            return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", str(nproc())]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan_solo", "serve_mix", "ingest_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every dataset and pool size")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
