#!/usr/bin/env python3
"""Appends one parent-vs-change entry to the repo-root BENCH_suite.json.

    python3 tools/bench_trajectory.py PARENT_DIR CHANGE_DIR --pr N

PARENT_DIR and CHANGE_DIR are two PARISAX_BENCH_DIR sets of untraced
bench/suite runs (their results/*-trace0.json files), one made from the
parent commit's checkout and one from the change's, with the same seeds.
Runs are paired by (workload, seed); a seed run on one side only is left
out. For each workload and each end-to-end metric of BENCHMARK.json the
entry records each side's [q1, median, q3] (statistics.quantiles, n=4)
over the paired runs and how many pairs the change won, that is, where its
value is strictly better in the metric's direction.

The entry also records both commits (the runs' git_sha), hw_threads and
the CPU model. The script refuses sets that mix commits or hosts, and sets
with a run that was not correct or had failed requests: such a record
would not say what it seems to. Standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_suite.json"


def fail(message):
    print(f"bench_trajectory.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_set(path):
    """{(workload, seed): result} from a work directory's untraced runs."""
    path = Path(path)
    if (path / "results").is_dir():
        path = path / "results"
    runs = {}
    for f in sorted(path.glob("*-trace0.json")):
        result = json.loads(f.read_text())
        if not result.get("correct") or result.get("failed", 0) != 0:
            fail(f"{f}: run is not correct or has failed requests")
        runs[(result["workload"], result["seed"])] = result
    if not runs:
        fail(f"{path}: no *-trace0.json results")
    return runs


def only(runs, field, side):
    values = {run[field] for run in runs.values()}
    if len(values) != 1:
        fail(f"{side} runs disagree on {field}: {sorted(map(str, values))}")
    return values.pop()


def quartiles(values):
    """[q1, median, q3] as statistics.quantiles(n=4) gives them, to six
    significant digits."""
    if len(values) == 1:
        values = values * 2
    return [float(f"{v:.6g}") for v in statistics.quantiles(values, n=4)]


def dumps(trajectory):
    """JSON with every list of numbers on one line."""
    text = json.dumps(trajectory, indent=2)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(
                      v.strip() for v in m.group(1).split(",")) + "]",
                  text) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change's pull request")
    args = parser.parse_args()

    parent = load_set(args.parent_dir)
    change = load_set(args.change_dir)
    host = {}
    for field in ("hw_threads", "cpu"):
        host[field] = only(parent, field, "parent")
        if only(change, field, "change") != host[field]:
            fail(f"parent and change ran on different hosts ({field})")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent
                       if w == workload and (w, s) in change)
        if not seeds:
            continue
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            p = [parent[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"]
                 for s in seeds]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            rows[name] = {"better": metric["better"],
                          "parent": quartiles(p),
                          "change": quartiles(c),
                          "change_wins": wins}
        workloads[workload] = {"seeds": seeds, "metrics": rows}
    if not workloads:
        fail("the two sets share no (workload, seed) pair")

    entry = {"pr": args.pr,
             "parent_sha": only(parent, "git_sha", "parent"),
             "change_sha": only(change, "git_sha", "change"),
             "hw_threads": host["hw_threads"],
             "cpu": host["cpu"],
             "workloads": workloads}
    trajectory = (json.loads(TRAJECTORY.read_text())
                  if TRAJECTORY.is_file() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(dumps(trajectory))
    print(f"appended PR {args.pr} ({len(workloads)} workloads) to "
          f"{TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
