#!/usr/bin/env python3
"""Runs one workload of the mrlquant benchmark and prints its result.

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 20 --trace 0

Run from the root of the repository. The first run configures and builds
the daemon, the router and the load generator from the repository's
sources into the build directory ($CARGO_TARGET_DIR, else .bench_build);
later runs only check the build is current. The load generator spawns the
system, feeds it the seeded inputs, checks every answer, and prints the
result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run, whose spans go to <build>/spans/<workload>-<seed>.jsonl.
Each run's host stamp, input fingerprint, hypervisor steal share and
result are also kept in <build>/results/ for perfbench/compare.py and
perfbench/selftest.py.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("ingest_bulk", "tenants_mixed", "routed_partitioned")
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Child-side hook: the load generator is killed if this script dies."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(REPO, "tools", "mrlquantd.cc")
    ):
        die("the repository's sources (src/, tools/) are missing; nothing to benchmark")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if (
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, stderr=sys.stderr
        ).returncode
        != 0
    ):
        die("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    # Sockets live under the checkout; the path is kept relative because a
    # Unix socket path is limited to 107 bytes.
    run_dir = os.path.relpath(os.path.join(build_dir, "run", str(os.getpid())))
    os.makedirs(run_dir, exist_ok=True)
    for sub in ("spans", "results"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    spans = os.path.join(build_dir, "spans", "%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [
        os.path.join(build_dir, "perfbench_load"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", build_dir,
        "--run-dir", run_dir,
        "--spans", spans,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # the system's processes die with it (parent-death signal)
        proc.communicate()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.splitlines()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("stamp", "inputs", "host"):
            record[key] = json.loads(rest)
    if not lines or not lines[-1].startswith("{"):
        die("the load generator printed no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    record["result"] = result
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(build_dir, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
