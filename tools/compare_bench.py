#!/usr/bin/env python3
"""Compare bench JSON runs against a committed baseline.

Python-stdlib only (CI runners need nothing installed). These bench JSON
dialects are understood:

  serve    serve_throughput's own JSON: results[] rows keyed by
           (policy, clients), metric "qps", higher is better.
  micro    google-benchmark JSON: benchmarks[] keyed by "name", metric
           "real_time" (normalized to ns), lower is better.
  persist  persist_roundtrip's JSON: results[] rows keyed by
           "algorithm", metric "load_speedup" (snapshot load vs full
           rebuild -- a ratio, so it transfers across runner hardware
           better than absolute seconds), higher is better.
  append   append_ingest's JSON: results[] rows keyed by "algorithm",
           metric "delta_speedup" (full-save vs delta-save seconds --
           also a hardware-portable ratio), higher is better.
  frontend serve_frontend's JSON: results[] rows keyed by "regime"
           (no_overload / overload), metric "qps" measured end-to-end
           through the TCP front end, higher is better.

Usage:
  compare_bench.py --kind serve --baseline bench/baselines/serve_throughput.json \
      --tolerance 0.15 run1.json run2.json run3.json

Each metric's median across the runs (CI noise absorption) is compared
against the baseline; any regression beyond the tolerance fails the
process with exit code 1 and a table of every metric on stderr/stdout.
Metrics present in the runs but not in the baseline (new benchmarks) are
reported but never fail.
"""

import argparse
import json
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_serve(path):
    """(policy, clients) -> qps. Higher is better."""
    with open(path) as f:
        doc = json.load(f)
    return {
        (row["policy"], row["clients"]): float(row["qps"])
        for row in doc["results"]
    }


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


def load_persist(path):
    """algorithm -> load_speedup (load vs rebuild). Higher is better."""
    with open(path) as f:
        doc = json.load(f)
    return {
        row["algorithm"]: float(row["load_speedup"])
        for row in doc["results"]
    }


def load_append(path):
    """algorithm -> delta_speedup (full save vs delta save). Higher is
    better."""
    with open(path) as f:
        doc = json.load(f)
    return {
        row["algorithm"]: float(row["delta_speedup"])
        for row in doc["results"]
    }


def load_frontend(path):
    """regime -> end-to-end qps through the TCP front end. Higher is
    better."""
    with open(path) as f:
        doc = json.load(f)
    return {row["regime"]: float(row["qps"]) for row in doc["results"]}


LOADERS = {
    "serve": (load_serve, "qps", "higher"),
    "frontend": (load_frontend, "qps", "higher"),
    "micro": (load_micro, "real_time_ns", "lower"),
    "persist": (load_persist, "load_speedup", "higher"),
    "append": (load_append, "delta_speedup", "higher"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=sorted(LOADERS), required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression vs baseline (default 0.15)",
    )
    parser.add_argument("runs", nargs="+", help="JSON files from repeat runs")
    args = parser.parse_args()

    loader, metric_name, better = LOADERS[args.kind]
    baseline = loader(args.baseline)
    runs = [loader(path) for path in args.runs]

    failures = []
    rows = []
    for key in sorted(baseline, key=str):
        samples = [run[key] for run in runs if key in run]
        if not samples:
            failures.append((key, "missing from all runs"))
            rows.append((key, baseline[key], None, None, "MISSING"))
            continue
        median = statistics.median(samples)
        base = baseline[key]
        if better == "higher":
            ratio = median / base if base else float("inf")
            regressed = median < base * (1.0 - args.tolerance)
        else:
            ratio = base / median if median else float("inf")
            regressed = median > base * (1.0 + args.tolerance)
        verdict = "REGRESSED" if regressed else "ok"
        if regressed:
            failures.append(
                (key, f"median {median:.4g} vs baseline {base:.4g}")
            )
        rows.append((key, base, median, ratio, verdict))

    extra = sorted(
        {k for run in runs for k in run if k not in baseline}, key=str
    )

    print(
        f"bench-regression [{args.kind}] {metric_name} "
        f"({better} is better), median of {len(runs)} run(s), "
        f"tolerance {args.tolerance:.0%}"
    )
    width = max((len(str(r[0])) for r in rows), default=10)
    print(f"  {'metric':<{width}}  {'baseline':>12}  {'median':>12}  "
          f"{'vs base':>8}  verdict")
    for key, base, median, ratio, verdict in rows:
        med = f"{median:.4g}" if median is not None else "-"
        rat = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"  {str(key):<{width}}  {base:>12.4g}  {med:>12}  "
              f"{rat:>8}  {verdict}")
    for key in extra:
        print(f"  {str(key):<{width}}  (not in baseline; informational)")

    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for key, why in failures:
            print(f"  {key}: {why}", file=sys.stderr)
        return 1
    print("\nPASS: no metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
