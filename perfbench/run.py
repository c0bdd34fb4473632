#!/usr/bin/env python3
"""Build the fixed-work controller benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --repeat K [--seed N] [--seconds S]
    python3 perfbench/run.py selftest

Builds perfbench/main.exe with dune (shared build cache off, so the
build writes only under _build/) and passes every argument on to it.
Exits non-zero, printing no result, when the tree cannot be built; the
benchmark itself exits non-zero when any output check fails.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the repository root (no dune-project or lib/ here)\n"
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
