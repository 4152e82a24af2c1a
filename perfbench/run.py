#!/usr/bin/env python3
"""Build the DUEL benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repl|remote|serve --seed N \
        --seconds S --trace 0|1

Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  The exit code is the benchmark's: 0 when every output was
correct, non-zero otherwise or when the build fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of a DUEL checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
