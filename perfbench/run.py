#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ao --seed 1 --seconds 45 --trace 0

Arguments are passed to the `perfbench` binary unchanged (see
perfbench/README.md). The build goes to `$CARGO_TARGET_DIR`, or to
`.bench_build` when that is unset. The last line of standard output is
the binary's JSON result. Exits non-zero, without printing a result, when
the build fails or the run fails or overruns its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


def main():
    env = dict(os.environ)
    # Library code reads RIP_* knobs (fault injection, shared artifact and
    # trace directories); the benchmark runs with all of them unset.
    for name in [k for k in env if k.startswith("RIP_")]:
        del env[name]
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
