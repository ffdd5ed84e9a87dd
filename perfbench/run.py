#!/usr/bin/env python3
"""Build and run the wall-clock benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, with the shared dune cache off so
that nothing is written outside the checkout, then runs it with the same
arguments.  The last line of standard output is the JSON result; the exit
code is the benchmark's (1 when a correctness gate fails).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print("perfbench: no dune-project and lib/ here; run from a source checkout",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
