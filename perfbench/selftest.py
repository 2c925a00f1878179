#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]

For each workload (default: all), runs the traced run twice with seed 1
and once with seed 2, and checks that
  * the same seed gives the same input fingerprint and exactly the same
    counts (core.collapses, core.leaves, core.memory_bytes,
    server.protocol.wire_bytes_per_value, core.rank_error_over_eps);
  * a different seed gives different inputs.
Exits nonzero on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = (
    "core.collapses",
    "core.leaves",
    "core.memory_bytes",
    "server.protocol.wire_bytes_per_value",
    "core.rank_error_over_eps",
)


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("selftest: %s seed %d failed" % (workload, seed))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    path = os.path.join(build_dir, "results", "%s-seed%d-trace1.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    failures = 0
    for workload in args.workload or ("ingest_bulk", "tenants_mixed", "routed_partitioned"):
        first = traced_run(workload, 1, args.seconds)
        again = traced_run(workload, 1, args.seconds)
        other = traced_run(workload, 2, args.seconds)
        fp = [r["inputs"]["fingerprint"] for r in (first, again, other)]
        if fp[0] != fp[1]:
            print("%s: seed 1 gave two different inputs" % workload)
            failures += 1
        if fp[0] == fp[2]:
            print("%s: seeds 1 and 2 gave the same inputs" % workload)
            failures += 1
        for name in EXACT:
            a = first["result"]["metrics"][name]["value"]
            b = again["result"]["metrics"][name]["value"]
            if a != b:
                print("%s: %s differs between runs of seed 1: %r != %r" % (workload, name, a, b))
                failures += 1
        print("%s: fingerprints %s; exact counts %s" % (
            workload, fp, {n: first["result"]["metrics"][n]["value"] for n in EXACT}))
    if failures:
        sys.exit("selftest: %d violation(s)" % failures)
    print("selftest: ok")


if __name__ == "__main__":
    main()
