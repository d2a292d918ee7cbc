#!/usr/bin/env python3
"""Builds the benchmark from source and runs it pinned to one CPU.

Run from the repository root:

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark binary unchanged (see perfbench/README.md).
The build uses every CPU; the run is pinned to one CPU of the allowed set so
that the single-threaded closed loop is never migrated between CPUs while it
is timed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    # Build output goes to stderr: stdout carries only the benchmark's report.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
