#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

Builds the `perfbench` package (release, offline) against the repository's
crates, then runs it. The benchmark's own output passes through unchanged;
its last line is the JSON result. Exits with the benchmark's exit code, or
nonzero without a result when the build or the run fails.

Workloads: winsum-ingest, topk-compute, tenants-drr (or `all`, which runs
the three in one process). The default seed is 1; seed 8191 is held out for
confirming claims (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 8191
# The first run in a fresh checkout compiles the workspace; later runs find
# the build done. A run itself ends well within a minute at --seconds 45.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def capture(cmd, cwd):
    """One line of a command's output, or None when it is unavailable."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"the repository's crates are not next to {BENCH_DIR.name}/; nothing to build")

    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail("build failed")

    git_rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git_rev = capture(["git", "rev-parse", "HEAD"], ROOT) or "unknown"
    rustc = capture(["rustc", "--version"], ROOT) or "unknown"

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", str(target / "perfbench-traces"),
           "--rustc", rustc, "--git-rev", git_rev]
    # Pin glibc's mmap threshold at its default: left adaptive, it flips
    # between two allocation regimes in the middle of a run, and repeated
    # set-ups alternate between ~0.2 ms and ~0.8 ms with it.
    run_env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
