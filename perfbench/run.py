#!/usr/bin/env python3
"""Build and run the host-clock benchmark.

    python3 perfbench/run.py --workload fleet_serve --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs rebuild incrementally. The benchmark binary prints progress on
stderr and, as its last stdout line, one JSON result object, which this
script passes through. Exits non-zero, printing no result, when the
checkout lacks the sources or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_serve", "fleet_install", "cloud_update")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def run(cmd, timeout):
    """Run a command with stdout sent to stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              check=False).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build():
    """Configure (once) and build the benchmark; return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ beside perfbench/; run from a full "
              "checkout", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run(cmd, BUILD_TIMEOUT_S):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
