#!/usr/bin/env python3
"""Compare micro_kernels runs of a change against runs of its parent.

Python-stdlib only (CI runners need nothing installed). The runs and the
baselines are google-benchmark JSON: benchmarks[] keyed by "name", metric
"real_time" (normalized to ns), lower is better.

Usage:
  compare_bench.py --tolerance 0.15 change1.json change2.json change3.json \
      --baseline parent1.json parent2.json parent3.json

Each benchmark's median across the runs is compared against its median
across the baseline files, so one noisy sample on either side cannot
flake the gate. The baseline files are meant to be runs of the parent
commit's binary on the same host, interleaved with the change's runs:
a committed baseline from other hardware measures the host, not the
code. Any regression beyond the tolerance fails the process with exit
code 1 and a table of every benchmark on stderr/stdout. Benchmarks
present in the runs but in no baseline file (new benchmarks) are
reported but never fail.
"""

import argparse
import json
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        required=True,
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
    parser.add_argument("runs", nargs="+", help="JSON files from repeat runs")
    args = parser.parse_args()

    baseline = medians([load_micro(path) for path in args.baseline])
    runs = [load_micro(path) for path in args.runs]

    failures = []
    rows = []
    for key in sorted(baseline):
        samples = [run[key] for run in runs if key in run]
        if not samples:
            failures.append((key, "missing from all runs"))
            rows.append((key, baseline[key], None, None, "MISSING"))
            continue
        median = statistics.median(samples)
        base = baseline[key]
        ratio = base / median if median else float("inf")
        regressed = median > base * (1.0 + args.tolerance)
        verdict = "REGRESSED" if regressed else "ok"
        if regressed:
            failures.append(
                (key, f"median {median:.4g} vs baseline {base:.4g}")
            )
        rows.append((key, base, median, ratio, verdict))

    extra = sorted({k for run in runs for k in run if k not in baseline})

    print(
        f"micro-kernels real_time_ns (lower is better), median of "
        f"{len(runs)} run(s) vs median of {len(args.baseline)} baseline "
        f"run(s), tolerance {args.tolerance:.0%}"
    )
    width = max((len(r[0]) for r in rows), default=10)
    print(f"  {'benchmark':<{width}}  {'baseline':>12}  {'median':>12}  "
          f"{'vs base':>8}  verdict")
    for key, base, median, ratio, verdict in rows:
        med = f"{median:.4g}" if median is not None else "-"
        rat = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"  {key:<{width}}  {base:>12.4g}  {med:>12}  "
              f"{rat:>8}  {verdict}")
    for key in extra:
        print(f"  {key:<{width}}  (not in baseline; informational)")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for key, why in failures:
            print(f"  {key}: {why}", file=sys.stderr)
        return 1
    print("\nPASS: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
