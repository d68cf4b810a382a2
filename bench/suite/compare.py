#!/usr/bin/env python3
"""Compares two sets of parisax_bench runs, metric by metric.

    python3 bench/suite/compare.py SET_A SET_B [--benchmark BENCHMARK.json]

Each set is a directory holding result files written by parisax_bench
(<work dir>/results/*.json; run each set with its own PARISAX_BENCH_DIR),
or the work directory itself. For every (workload, metric) the script
prints each set's median and quartiles and the change of B's median
against A's. For the end-to-end metrics of BENCHMARK.json it also gives
a verdict:

    ok          medians within the metric's bound
    unresolved  a set's quartile spread exceeds the bound (noise is
                larger than what the bound can resolve)
    DISAGREE    B's median differs from A's by more than the bound

Per-layer metrics have no bound and are printed for reference. The exit
code is 1 when any pair disagrees or any run was incorrect or had
failed requests, else 0. Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load_runs(path):
    """{(workload, trace): [result, ...]} from a results directory."""
    path = Path(path)
    if (path / "results").is_dir():
        path = path / "results"
    runs = defaultdict(list)
    for f in sorted(path.glob("*.json")):
        if f.name.endswith(".trace.json"):
            continue
        result = json.loads(f.read_text())
        runs[(result["workload"], result["trace"])].append(result)
    return runs


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parents[2] /
                                    "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a_runs, b_runs = load_runs(args.set_a), load_runs(args.set_b)

    failing = False
    for name, runs in (("A", a_runs), ("B", b_runs)):
        for (workload, _), results in sorted(runs.items()):
            for r in results:
                if not r["correct"] or r["failed"] != 0:
                    print(f"set {name}: {workload} seed {r['seed']} "
                          f"correct={r['correct']} failed={r['failed']}: "
                          f"{r['first_mismatch']}")
                    failing = True

    header = (f"{'workload':11s} {'metric':34s} {'A q1/med/q3':>30s} "
              f"{'B q1/med/q3':>30s} {'change':>8s}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, _ = key
        names = sorted(set().union(*(r["metrics"] for r in a_runs[key])) &
                       set().union(*(r["metrics"] for r in b_runs[key])))
        for metric in names:
            a = [r["metrics"][metric]["value"] for r in a_runs[key]
                 if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in b_runs[key]
                 if metric in r["metrics"]]
            (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
            change = (bm - am) / am if am else 0.0
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]["bound"]
                if abs(change) > bound:
                    verdict = "DISAGREE"
                    failing = True
                elif spread(a) > bound or spread(b) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                better = bounds[metric]["better"]
                verdict += f" (bound {bound:.2f}, {better} is better)"
            print(f"{workload:11s} {metric:34s} "
                  f"{a1:9.4g}/{am:9.4g}/{a3:9.4g} "
                  f"{b1:9.4g}/{bm:9.4g}/{b3:9.4g} {change:+8.2%}  {verdict}")
    only = sorted(set(a_runs) ^ set(b_runs))
    if only:
        print("present in one set only:",
              ", ".join(f"{w} (trace {int(t)})" for w, t in only))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
