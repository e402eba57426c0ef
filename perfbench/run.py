#!/usr/bin/env python3
"""Builds the verified-answer benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mixed_d2 --seed 1 --seconds 12 --trace 0

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default: .bench_build at the root). Every argument is handed to the
benchmark binary; its last line of output is the JSON result. Per-run
results and, with --trace 1, the spans are written under perfbench/results/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
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
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "vaq-perfbench")
    out = os.path.join(HERE, "results")
    return subprocess.run([binary, *sys.argv[1:], "--out", out], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
