#!/usr/bin/env python3
"""Builds parisax_bench (Release) and runs one workload, or all five.

    python3 bench/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1]

Run from anywhere inside a checkout of the repository. The build goes to
bench/suite/build; inputs, oracle answers, result JSON and traces go to
$PARISAX_BENCH_DIR (default bench/suite/.work). The last line printed is
parisax_bench's result object for the (last) workload run. Without
--workload every workload runs in turn and the exit code is non-zero if
any of them failed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["mem_exact", "mem_ingest", "disk_exact", "snap_hard", "mem_approx"]
# One run must end within 180 s; a wedged run is killed before that.
RUN_TIMEOUT_S = 170

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = SUITE / "build"


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no parisax sources at {ROOT}; run.py must live in bench/suite "
            "of a repository checkout")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "parisax_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed:", " ".join(step))
            sys.exit(2)
    return BUILD / "parisax_bench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    work = os.environ.get("PARISAX_BENCH_DIR", str(SUITE / ".work"))
    sha = git_sha()
    worst = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work, "--git-sha", sha]
        try:
            code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
            code = 124
        if code < 0:  # killed by a signal
            code = 128 - code
        if code != 0:
            log(f"{workload}: exit code {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
