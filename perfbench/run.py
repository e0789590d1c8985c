#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_flow --seed 1 --seconds 10 --trace 0

The first call configures and builds `.bench_build/perfbench` (a
Release build of src/ plus perfbench/src/); later calls only re-run the
incremental build.  Build output goes to stderr, so the last line of
stdout is the binary's JSON result.  Any other arguments are passed to
the binary unchanged (see `perfbench/README.md`).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "aim", "Aim.hh")):
        sys.stderr.write("perfbench: library sources (src/) not found "
                         "next to perfbench/; nothing to build\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(BUILD, "perfbench")
    # The binary writes trace files under .bench_build/traces.
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
