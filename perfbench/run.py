#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <catalog_sweep|serve_mix|cbm_stream> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the library tree, the
shipped serve daemon and the driver) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "-j", jobs],
    ):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 3
    # Scratch files (sockets, containers, traces) live in the build
    # directory, named relative to the root so socket paths stay short.
    scratch = os.path.relpath(build, root)
    binary = os.path.join(build, "perfbench")
    return subprocess.call([binary] + sys.argv[1:] + ["--scratch", scratch])


if __name__ == "__main__":
    sys.exit(main())
