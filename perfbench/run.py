#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile_s17 --seed 1 --seconds 25 --trace 0

The first call configures and builds qmaplib plus the perfbench program under
.bench_build/perfbench (about two minutes on four cores); later calls only
rebuild what changed. Build output goes to stderr. The program's output is
passed through unchanged: one line per metric, then the JSON result object
as the last line of stdout. A traced run (--trace 1) also writes its spans
to .bench_build/perfbench/traces/<workload>-seed<n>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_s17", "serve_mixed", "stream_qx5")


def build():
    """Configures (once) and builds the program; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs]

    def attempt():
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        return subprocess.run(compile_, stdout=sys.stderr).returncode == 0

    if attempt():
        return True
    # A cache left by another checkout or an interrupted configure: start
    # over once from an empty build directory.
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return attempt()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
