#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload paper-all|ext-explore|serve-session \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds the `perfbench` binary
(perfbench/Cargo.toml) and the repository's `harness` binary into
$CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark, which
prints one JSON result line last. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "multiscalar-harness", "--bin", "harness"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--harness", os.path.join(release, "harness"),
        "--out", os.path.join(target, "perfbench"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
