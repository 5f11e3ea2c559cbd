#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of saved run.py
output, one run per file: the last line is the result object, the line
before it the detail object with the context block.  Runs are grouped by
workload and mode; a pair is the parent and change run with the same
seed (or, lacking shared seeds, the same position in file-name order).

For every workload and end-to-end metric it reports each side's median
and quartiles, the pair win rate (ties count for neither side), and a
verdict against the metric's bound from BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the bound (or every change run is worse than every
              parent run and the medians differ by more than the bound)
  unresolved  the run-to-run spread (quartile distance / median) of
              either side exceeds the bound, so the bound cannot be
              judged, unless every change run beats every parent run
  improved    the change wins at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile distance
              (or every change run beats every parent run)
  unchanged   none of the above

Per-layer metrics (traced runs) are listed with medians and quartiles
only; they carry no bound.  Exit status: 1 if any metric regressed, 2 on
unusable input (no runs, or runs flagged as not comparable), else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """[(context, result)] for every run file under `path`."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if os.path.isfile(os.path.join(path, f)))
    runs = []
    for name in files:
        with open(name) as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
        if len(lines) < 2:
            continue
        try:
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
        except (ValueError, KeyError):
            continue
        if "metrics" in result:
            runs.append((context, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values):
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def pair_up(parent, change):
    """Pairs runs by seed when the sides share seeds, else by order."""
    by_seed = {c["seed"]: r for c, r in change}
    shared = [(r, by_seed[c["seed"]]) for c, r in parent if c["seed"] in by_seed]
    if shared:
        return shared
    return list(zip([r for _, r in parent], [r for _, r in change]))


def verdict(metric, p, c, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    sign = 1 if lower else -1
    worse = sign * (c["median"] - p["median"]) / abs(p["median"]) \
        if p["median"] else 0.0
    p_vals, c_vals = p["values"], c["values"]
    if lower:
        all_better = max(c_vals) < min(p_vals)
        all_worse = min(c_vals) > max(p_vals)
    else:
        all_better = min(c_vals) > max(p_vals)
        all_worse = max(c_vals) < min(p_vals)
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    row = {"worse_frac": worse, "change_wins": wins, "parent_wins": losses,
           "ties": len(pairs) - wins - losses, "pairs": len(pairs),
           "win_rate": wins / len(pairs) if pairs else 0.0}
    if all_better and len(p_vals) > 1:
        row["verdict"] = "improved"
    elif all_worse and worse > bound:
        row["verdict"] = "regressed"
    elif max(p["spread"], c["spread"]) > bound or min(len(p_vals), len(c_vals)) < 2:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif row["win_rate"] >= 0.9 and \
            abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        row["verdict"] = "improved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(parent_path, change_path, spec):
    """One row per (workload, mode, metric) present on both sides."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layered = {m["name"]: m for m in spec["per_layer"]}
    groups = sorted({(c["workload"], c["mode"]) for c, _ in parent} &
                    {(c["workload"], c["mode"]) for c, _ in change})
    rows = []
    for workload, mode in groups:
        side_p = [x for x in parent if (x[0]["workload"], x[0]["mode"]) == (workload, mode)]
        side_c = [x for x in change if (x[0]["workload"], x[0]["mode"]) == (workload, mode)]
        pairs = pair_up(side_p, side_c)
        names = [n for n in list(bounded) + list(layered)
                 if all(n in r["metrics"] for _, r in side_p + side_c)]
        for name in names:
            metric = bounded.get(name) or layered[name]
            p_vals = [r["metrics"][name]["value"] for _, r in side_p]
            c_vals = [r["metrics"][name]["value"] for _, r in side_c]
            p, c = summary(p_vals), summary(c_vals)
            p["values"], c["values"] = p_vals, c_vals
            row = {"workload": workload, "mode": mode, "metric": name,
                   "unit": metric["unit"], "better": metric.get("better"),
                   "bound": metric.get("bound"), "parent": p, "change": c}
            if name in bounded:
                row.update(verdict(metric, p, c,
                                   [(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"]) for a, b in pairs]))
            else:
                row["verdict"] = "info"
            rows.append(row)
    return rows


def incomparable(path):
    return [c for c, _ in load_runs(path) if not c.get("comparable", True)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = incomparable(args.parent) + incomparable(args.change)
    if bad:
        print("runs flagged not comparable (LockRank or sanitizer build): %d"
              % len(bad), file=sys.stderr)
        return 2
    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    fmt = "%-16s %-28s %28s %28s %8s %9s  %s"
    print(fmt % ("workload", "metric", "parent med [q1, q3]",
                 "change med [q1, q3]", "worse", "wins c/p/t", "verdict"))
    for r in rows:
        p, c = r["parent"], r["change"]
        cell = lambda s: "%.4g [%.4g, %.4g]" % (s["median"], s["q1"], s["q3"])
        worse = "%+.1f%%" % (100 * r["worse_frac"]) if "worse_frac" in r else ""
        wins = "%d/%d/%d" % (r["change_wins"], r["parent_wins"], r["ties"]) \
            if "pairs" in r else ""
        print(fmt % (r["workload"], r["metric"], cell(p), cell(c), worse,
                     wins, r["verdict"]))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
