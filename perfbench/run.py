#!/usr/bin/env python3
"""Build the LedgerView benchmark from source and run one invocation.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <views|audit|ingest|tpcc|all> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Cargo's output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. The exit code is the benchmark's: non-zero when the build
fails or an oracle fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
