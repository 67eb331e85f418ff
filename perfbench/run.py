#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); results
and spans are written under `<target dir>/perfbench`. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out", out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
