#!/usr/bin/env python3
"""Builds the benchmark program from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The benchmark (perfbench/src/) and the program it measures are built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root); later runs only re-check the build. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. README.md in this directory documents the benchmark.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            sys.stderr.write(f"perfbench: {ROOT} has no {required}; the "
                             "benchmark builds the program from a full "
                             "checkout\n")
            return 2
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: "
                             + " ".join(step) + "\n")
            return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench"),
                           *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
