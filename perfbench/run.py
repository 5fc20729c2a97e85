#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload view_storm --seed 1 --seconds 10 --trace 0

Cargo's output goes to standard error; the benchmark's report, ending in
one JSON line, goes to standard output. Traced runs (`--trace 1`) also
write their spans as JSON lines under `<target dir>/perfbench-spans/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    args = sys.argv[1:]
    following = dict(zip(args, args[1:]))
    if following.get("--trace") == "1" and "--spans" not in following:
        name = "spans-{}-seed{}.jsonl".format(following.get("--workload"), following.get("--seed"))
        args += ["--spans", os.path.join(target, "perfbench-spans", name)]
    return subprocess.run([os.path.join(target, "release", "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
