#!/usr/bin/env python3
"""Build the host sim-rate benchmark from source, then run one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench) and is
incremental, so only the first run in a checkout compiles. Every
argument is passed to the benchmark binary; its last line of output is
the JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build(bdir):
    """Configure (once) and build the benchmark; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no simulator sources beside the benchmark; "
                 "run it from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DZERODEV_ASSERTS=OFF"])
    steps.append(["cmake", "--build", bdir, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("hostbench: build failed: " + " ".join(cmd))


def main():
    bdir = build_dir()
    build(bdir)
    binary = os.path.join(bdir, "hostbench")
    out_dir = os.path.join(bdir, "out")
    proc = subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:],
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
