#!/usr/bin/env python3
"""Builds the period benchmark from source and runs one workload.

Usage, from the repository root:

    python3 periodbench/run.py --workload paper-mpc --seed 1 --seconds 12 --trace 0

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Cargo's output goes to stderr, so the benchmark's result
JSON stays the last line of stdout. Traced runs write their Chrome trace and
breakdown under periodbench/out/. Exits non-zero, without a result, when the
build fails; exits non-zero with `"correct": false` when an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("periodbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "periodbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(HERE, "out")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
