#!/usr/bin/env python3
"""Summarises benchmark results, and compares two sets of them.

    python3 perfbench/compare.py RESULTS_DIR            # one set: medians, spread
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR    # two sets: medians, change

A results directory holds the records perfbench/run.py writes to
<build>/results/ (copy it aside before running another commit). For each
workload and metric the script prints the median, the quartiles, and the
spread (distance between the quartiles as a share of the median). Against
the bounds in BENCHMARK.json it flags an end-to-end spread above its bound
and, with two sets, a change median worse than the base median by more
than the bound. It refuses to compare records whose host/build stamps
differ. It reports; it claims no gain.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no records in " + directory)
    return records


def stamps(records):
    return {json.dumps(r.get("stamp"), sort_keys=True) for r in records}


def summarise(records):
    """(workload, trace) -> metric -> list of values."""
    out = {}
    for r in records:
        metrics = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sets = [load(d) for d in sys.argv[1:]]
    all_stamps = set().union(*(stamps(s) for s in sets))
    if len(all_stamps) != 1:
        sys.exit("compare: refusing to compare results from different hosts or builds:\n  "
                 + "\n  ".join(sorted(all_stamps)))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}

    for label, records in zip(("base", "change"), sets):
        steal = [r["host"]["steal_frac"] for r in records if "host" in r]
        if steal:
            print("%s: hypervisor steal, median %.3f, max %.3f of host CPU time"
                  % (label, statistics.median(steal), max(steal)))
    base = summarise(sets[0])
    change = summarise(sets[1]) if len(sets) == 2 else None
    flags = 0
    for key in sorted(base):
        workload, trace = key
        print("== %s (%s)" % (workload, "traced" if trace else "end-to-end"))
        for name, values in base[key].items():
            spec = e2e.get(name) or layer.get(name) or {}
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            line = "  %-40s n=%-3d median %-14.6g [%.6g, %.6g] spread %.3f" % (
                name, len(values), med, q1, q3, spread)
            bound = spec.get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                line += "  SPREAD>BOUND"
                flags += 1
            if change is not None and name in change.get(key, {}):
                cmed = quartiles(change[key][name])[1]
                delta = (cmed - med) / abs(med) if med else 0.0
                line += "  -> %-14.6g (%+.2f%%)" % (cmed, 100 * delta)
                worse = delta if spec.get("better") == "lower" else -delta
                if bound is not None and worse > bound:
                    line += "  WORSE>BOUND"
                    flags += 1
            print(line)
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
