#!/usr/bin/env python3
"""Build and run one evobench workload.

    python3 evobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` runs the end-to-end binary
(`evobench`), `--trace 1` the traced one (`evobench-trace`). The build goes
to $CARGO_TARGET_DIR, or to evobench/target when it is unset. The last line
of standard output is the run's JSON result; the exit code is the binary's,
or non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    binary = "evobench-trace" if trace == "1" else "evobench"
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("evobench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", binary)] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
