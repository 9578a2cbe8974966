#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-closed --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/main.exe with dune, runs
one workload and passes its output through: one line per metric and
check, then one JSON object as the last line. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exits non-zero, without a JSON line, when the build fails, and with
code 1 when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv-closed", "serve-open", "failover-open"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build did not run: {e}")
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(run.stdout)
        sys.exit(f"perfbench: no result line (exit code {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode if run.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
