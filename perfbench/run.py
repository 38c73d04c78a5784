#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload linux-cold --seed 1 --seconds 20 --trace 0

It builds perfbench/main.exe and bin/analyze.exe with dune (first run:
a full build), then runs the benchmark with the same arguments.  The
last line of standard output is the result as one JSON object; see
perfbench/README.md.  Exits nonzero, without a result, when the
checkout lacks the sources it builds from.
"""
import os
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
ANALYZE = os.path.join("_build", "default", "bin", "analyze.exe")


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            print(f"perfbench: no {needed} here; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe", "./bin/analyze.exe"],
        env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    bench = subprocess.run([MAIN, *sys.argv[1:], "--analyze", ANALYZE])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
