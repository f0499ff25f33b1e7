#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_fit|fleet|monitor \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the program from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary. Build output goes to stderr; the binary's
standard output is passed through, and its last line is the JSON
result. The exit code is the binary's: 0 when every correctness check
passed, 1 when one failed, 2 on bad usage or a failed build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (first time only) and build; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "gpupm_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under %s/src; run from a "
              "full checkout" % ROOT, file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "gpupm_perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
