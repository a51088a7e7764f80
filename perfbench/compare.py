#!/usr/bin/env python3
"""Compare two commits' benchmark results, under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py parent.jsonl change.jsonl

A result file holds one JSON object per line: {"workload", "seed",
"result"}, where "result" is the last output line of one run of
perfbench/run.py. Collect them in alternating pairs: for each seed, run
both checkouts on that seed, and let the two take turns going first. For
each workload and end-to-end metric, this prints both sides' median and
quartiles and a verdict:

  better      the change wins at least 9 pairs in 10 (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's quartile spread exceeds the bound, and not
              every run of the change beats every run of the parent;
  same        none of the above.
"""

import argparse
import json
import statistics


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def read(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], {})[r["seed"]] = r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(p, c, bound, lower_is_better):
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    p1, pm, p3 = quartiles(list(p.values()))
    c1, cm, c3 = quartiles(list(c.values()))
    seeds = sorted(set(p) & set(c))
    wins = sum(1 for s in seeds if better(c[s], p[s]))
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    all_better = all(better(x, y) for x in c.values() for y in p.values())
    if worse_by > bound:
        v = "worse"
    elif wins * 10 >= 9 * len(seeds) and len(seeds) >= 10 and abs(cm - pm) > p3 - p1:
        v = "better"
    elif ((p3 - p1) / pm > bound or (c3 - c1) / cm > bound) and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return (p1, pm, p3), (c1, cm, c3), wins, len(seeds), v


def diff(args):
    metrics = load_spec(args.spec)
    parent, change = read(args.parent), read(args.change)
    print(f"{'workload':10s} {'metric':22s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, m in metrics.items():
            p = {s: r["metrics"][name]["value"] for s, r in parent[workload].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            pq, cq, wins, n, v = verdict(p, c, m["bound"], m["better"] == "lower")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:10s} {name:22s} {fmt(pq):>32s} {fmt(cq):>32s} "
                  f"{wins:>3d}/{n:<2d}  {v}")
        failed = sum(r["failed"] for r in change[workload].values())
        if failed:
            print(f"{workload:10s} change failed {failed} operations")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit's result file")
    ap.add_argument("change", help="the change's result file")
    ap.add_argument("--spec", default="BENCHMARK.json")
    diff(ap.parse_args())


if __name__ == "__main__":
    main()
