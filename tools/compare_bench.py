#!/usr/bin/env python3
"""Compare micro_kernels runs of a change against runs of its parent.

Python-stdlib only (CI runners need nothing installed). The runs and the
baselines are google-benchmark JSON: benchmarks[] keyed by "name", metric
"real_time" (normalized to ns), lower is better.

Usage:
  compare_bench.py --tolerance 0.15 change1.json change2.json change3.json \
      --baseline parent1.json parent2.json parent3.json
  compare_bench.py --tolerance 0.15 --gate PARENT_BIN CHANGE_BIN OUT_DIR

The first form judges runs already made. Each benchmark's median across
the runs is compared against its median across the baseline files, so
one noisy sample on either side cannot flake the gate. The baseline
files are meant to be runs of the parent commit's binary on the same
host, interleaved with the change's runs: a committed baseline from
other hardware measures the host, not the code. Any regression beyond
the tolerance fails the process with exit code 1 and a table of every
benchmark on stderr/stdout. Benchmarks present in the runs but in no
baseline file (new benchmarks) are reported but never fail.

The second form is the micro-kernels gate. It runs the parent's and the
change's micro_kernels binaries interleaved five times each, alternating
which goes first, and judges them as above. Only the kernels that set
flags are timed again, in a second interleaved 5+5 set, and the gate
fails only on a kernel that both sets flag: on a 4-vCPU host one 5+5 set
still flags unchanged kernels at 0.73x-0.86x. A kernel missing from the
change's runs fails at once. Every run's JSON lands in OUT_DIR
(*_run<i>.json, then *_confirm<i>.json). The parent's runs drop
GITHUB_SHA from their environment, so their JSON names the commit the
parent binary was built from, not the change.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
RUNS_PER_SET = 5
# POSIX extended-regex metacharacters, escaped in a --benchmark_filter.
ERE_SPECIAL = re.compile(r"([][\\.*^$+?(){}|])")


def load_micro(path):
    """benchmark name -> real_time in ns. Lower is better."""
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        scale = TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
        metrics[row["name"]] = float(row["real_time"]) * scale
    return metrics


def medians(docs):
    """benchmark name -> median real_time over the docs that have it."""
    names = sorted({name for doc in docs for name in doc})
    return {
        name: statistics.median(doc[name] for doc in docs if name in doc)
        for name in names
    }


def judge(run_paths, baseline_paths, tolerance):
    """Prints the comparison table; returns {benchmark: verdict}, where
    the verdict is "ok", "REGRESSED" or "MISSING" (from every run)."""
    baseline = medians([load_micro(path) for path in baseline_paths])
    runs = [load_micro(path) for path in run_paths]

    verdicts = {}
    rows = []
    for key in sorted(baseline):
        samples = [run[key] for run in runs if key in run]
        if not samples:
            verdicts[key] = "MISSING"
            rows.append((key, baseline[key], None, None))
            continue
        median = statistics.median(samples)
        base = baseline[key]
        ratio = base / median if median else float("inf")
        regressed = median > base * (1.0 + tolerance)
        verdicts[key] = "REGRESSED" if regressed else "ok"
        rows.append((key, base, median, ratio))

    extra = sorted({k for run in runs for k in run if k not in baseline})

    print(
        f"micro-kernels real_time_ns (lower is better), median of "
        f"{len(runs)} run(s) vs median of {len(baseline_paths)} baseline "
        f"run(s), tolerance {tolerance:.0%}"
    )
    width = max((len(r[0]) for r in rows), default=10)
    print(f"  {'benchmark':<{width}}  {'baseline':>12}  {'median':>12}  "
          f"{'vs base':>8}  verdict")
    for key, base, median, ratio in rows:
        med = f"{median:.4g}" if median is not None else "-"
        rat = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"  {key:<{width}}  {base:>12.4g}  {med:>12}  "
              f"{rat:>8}  {verdicts[key]}")
    for key in extra:
        print(f"  {key:<{width}}  (not in baseline; informational)")
    return verdicts


def flagged(verdicts):
    return [key for key, verdict in verdicts.items() if verdict != "ok"]


def run_set(parent_bin, change_bin, out_dir, tag, bench_filter):
    """Runs both binaries RUNS_PER_SET times each, interleaved with
    alternating order; returns (change JSON paths, parent JSON paths)."""
    parent_env = {k: v for k, v in os.environ.items() if k != "GITHUB_SHA"}
    sides = {"parent": (parent_bin, parent_env), "change": (change_bin, None)}
    paths = {"parent": [], "change": []}
    for i in range(1, RUNS_PER_SET + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            binary, env = sides[side]
            path = os.path.join(out_dir, f"{side}_{tag}{i}.json")
            with open(path, "w") as out:
                subprocess.run(
                    [binary, "--benchmark_format=json",
                     f"--benchmark_filter={bench_filter}"],
                    stdout=out, env=env, check=True)
            paths[side].append(path)
    return paths["change"], paths["parent"]


def gate(parent_bin, change_bin, out_dir, tolerance):
    # Minutes pass between the two tables; show each as it is judged.
    sys.stdout.reconfigure(line_buffering=True)
    os.makedirs(out_dir, exist_ok=True)
    print(f"== first set: every kernel, {RUNS_PER_SET} runs a side")
    first = judge(*run_set(parent_bin, change_bin, out_dir, "run", "."),
                  tolerance)
    missing = [key for key, verdict in first.items() if verdict == "MISSING"]
    if missing:
        print(f"FAIL: missing from the change's runs: {' '.join(missing)}",
              file=sys.stderr)
        return 1
    suspects = flagged(first)
    if not suspects:
        print("\nPASS: no benchmark regressed beyond tolerance")
        return 0

    print(f"\n== second set: the flagged kernels again, {RUNS_PER_SET} runs "
          f"a side: {' '.join(suspects)}")
    names = "|".join(ERE_SPECIAL.sub(r"\\\1", key) for key in suspects)
    second = judge(
        *run_set(parent_bin, change_bin, out_dir, "confirm", f"^({names})$"),
        tolerance)
    confirmed = [key for key in suspects if second.get(key, "ok") != "ok"]
    if confirmed:
        print(f"FAIL: flagged by both sets: {' '.join(confirmed)}",
              file=sys.stderr)
        return 1
    print("\nPASS: no kernel flagged by both sets")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument(
        "--baseline",
        nargs="+",
        help="JSON files from repeat runs of the parent; their "
        "per-benchmark median is the baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression vs baseline (default 0.15)",
    )
    parser.add_argument(
        "--gate",
        nargs=3,
        metavar=("PARENT_BIN", "CHANGE_BIN", "OUT_DIR"),
        help="run and judge the two micro_kernels binaries in two sets",
    )
    parser.add_argument("runs", nargs="*", help="JSON files from repeat runs")
    args = parser.parse_args()

    if args.gate:
        if args.runs or args.baseline:
            parser.error("--gate takes no JSON files")
        return gate(*args.gate, args.tolerance)
    if not args.runs or not args.baseline:
        parser.error("give the runs' JSON files and --baseline, or --gate")

    verdicts = judge(args.runs, args.baseline, args.tolerance)
    failures = flagged(verdicts)
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for key in failures:
            print(f"  {key}: {verdicts[key]}", file=sys.stderr)
        return 1
    print("\nPASS: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
