#!/usr/bin/env python3
"""Builds the Stardust benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload agg-burst --seed 1 --seconds 12 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. The exit code is the benchmark's: 0 on success, non-zero
when the build fails, an output check fails, or the run times out.
"""

import os
import subprocess
import sys
import time

# A run must finish within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "stardust-perfbench")
    started = time.monotonic()
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
