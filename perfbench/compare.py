#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the results files run.py writes (only untraced runs
are read). Runs with the same workload and seed on both sides form a pair;
run the two sides alternately so that each pair sees the same machine. For
every workload and end-to-end metric this prints both medians, the median
change and a verdict:

  worse / better  at least 9 in 10 pairs moved the bad / good way (a sign
                  test) and the median paired change exceeds 2%;
  same            otherwise.

A worsening beyond the metric's bound in BENCHMARK.json is marked too.
Metrics without a pair are skipped. Exits 1 when any metric is worse.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_EFFECT = 0.02
PAIR_SHARE = 0.9


def load_results(directory):
    """{workload: {metric: {seed: value}}} over the untraced results files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") != 0:
            continue
        per_metric = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per_metric.setdefault(name, {})[r["seed"]] = m["value"]
    return out


def verdict(old, new, better):
    """'worse', 'better' or 'same' for one metric given {seed: value} of
    both sides, plus the median paired change in the good direction."""
    sign = 1.0 if better == "higher" else -1.0
    changes = [sign * (new[s] - old[s]) / old[s] for s in set(old) & set(new)]
    gain = statistics.median(changes)
    if gain < -MIN_EFFECT and sum(c < 0 for c in changes) >= PAIR_SHARE * len(changes):
        return "worse", gain
    if gain > MIN_EFFECT and sum(c > 0 for c in changes) >= PAIR_SHARE * len(changes):
        return "better", gain
    return "same", gain


def compare(old, new, metrics):
    """Rows (workload, metric, old median, new median, gain, verdict,
    beyond_bound) for every workload and metric present on both sides."""
    rows = []
    for workload in sorted(set(old) & set(new)):
        for m in metrics:
            name = m["name"]
            a, b = old[workload].get(name, {}), new[workload].get(name, {})
            if not set(a) & set(b):
                continue
            v, gain = verdict(a, b, m["better"])
            rows.append((workload, name, statistics.median(a.values()),
                         statistics.median(b.values()), gain, v, -gain > m["bound"]))
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    rows = compare(load_results(sys.argv[1]), load_results(sys.argv[2]), metrics)
    for workload, name, a, b, gain, v, beyond in rows:
        print(f"{workload:16} {name:18} {a:14.6g} -> {b:14.6g} {gain:+8.2%} {v}"
              + ("  BEYOND BOUND" if beyond else ""))
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
