#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The OCaml harness is built with dune into the checkout's own _build
directory; build output goes to stderr so that the last line of standard
output is the harness's JSON result. Exits non-zero, without a result,
when the checkout does not hold the sources the harness links against.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(
                "perfbench: %s missing; run from the repository root\n" % need
            )
            return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
