"""Compare two sets of benchmark runs, or summarise one.

    python3 benchmarks/compare.py runs/parent              # one set: spread
    python3 benchmarks/compare.py runs/parent runs/change  # two sets: verdict

A set is a directory written by collect.py: <workload>.<seed>.json files,
each the last output line of one run (<workload>.<seed>.trace.json for
traced runs).  For every metric of every workload it prints each set's
median and quartiles and the spread (Q3 - Q1) / median.  With two sets it
pairs runs by seed and prints how often the second set wins, and for each
end-to-end metric a verdict against the bound in BENCHMARK.json:

  regression  the second median is worse than the first by more than the bound
  gain        the second set wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ by more than the first
              set's Q3 - Q1
  unresolved  a set's spread is wider than the bound, and not every run of
              the second set beats every run of the first
  unchanged   otherwise
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, traced): {seed: metrics}}"""
    sets = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        parts = name.split(".")
        if len(parts) < 3 or not parts[1].isdigit():
            continue
        workload, seed, traced = parts[0], int(parts[1]), parts[2] == "trace"
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            result = json.load(fh)
        if not result["correct"]:
            print(f"warning: {directory}/{name} reports incorrect output")
        sets.setdefault((workload, traced), {})[seed] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, pairs, better, bound):
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse = (b_med - a_med) if better == "lower" else (a_med - b_med)
    if worse > bound * a_med:
        return "regression"
    wins = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
    q1, _, q3 = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > q3 - q1:
        return "gain"
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if (spread(a) > bound or spread(b) > bound) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    meta = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    first = load(argv[0])
    second = load(argv[1]) if len(argv) == 2 else None
    for key in sorted(first):
        workload, traced = key
        runs_a = first[key]
        runs_b = (second or {}).get(key, {})
        print(f"\n== {workload}{' (traced)' if traced else ''}: "
              f"{len(runs_a)} runs" + (f" vs {len(runs_b)} runs" if second else ""))
        names = [n for n in meta if any(n in r for r in runs_a.values())]
        for name in names:
            m = meta[name]
            a = [r[name] for r in runs_a.values() if name in r]
            q1, med, q3 = quartiles(a)
            bound = m.get("bound")
            line = (f"  {name:<40} {med:>12.5g} [{q1:.5g}, {q3:.5g}] {m['unit']:<6}"
                    f" spread {spread(a):.3f}")
            if bound is not None and not second:
                flag = "ok" if spread(a) < bound / 3 else (
                    "WIDE (over bound/3)" if spread(a) <= bound else "OVER BOUND")
                line += f" / bound {bound} {flag}"
            if second:
                b = [r[name] for r in runs_b.values() if name in r]
                if not b:
                    print(line + "  (missing in the second set)")
                    continue
                bq1, bmed, bq3 = quartiles(b)
                seeds = sorted(set(runs_a) & set(runs_b))
                pairs = [(runs_a[s][name], runs_b[s][name]) for s in seeds
                         if name in runs_a[s] and name in runs_b[s]]
                better = m["better"]
                wins = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
                line += (f" -> {bmed:.5g} [{bq1:.5g}, {bq3:.5g}] spread {spread(b):.3f},"
                         f" wins {wins}/{len(pairs)}")
                if bound is not None:
                    line += f", {verdict(a, b, pairs, better, bound)} (bound {bound})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
