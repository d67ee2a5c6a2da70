#!/usr/bin/env python3
"""Build the rrfd benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload derive --seed 26 --seconds 20 --trace 0

The benchmark binary is built with dune into .bench_build/ (the shared
dune cache is disabled, so nothing is written outside the checkout),
then run PROCESSES times in a row, each for an equal share of
--seconds and each on its own seed, derived from --seed.  A process
lays out its heap in memory its own way, and memory-heavy jobs run
faster or slower by several percent with that layout; the heap peak
moves by as much from one seed to another.  The median over processes
evens both out.  The processes' reports are passed through, and the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
every metric is the median of the processes' figures, attempted and
failed are their sums.  With --trace 1 the first process's first
traced job's spans are also written to .bench_out/ as Chrome
trace-event JSON.  The compiler's temporary files go to
.bench_out/tmp/.

--negative-check runs the workload against deliberately wrong
expectations: the run must then report correct = false and failed > 0.

Exit codes: 0 on a completed run (whatever it measured), 1 when the
build or the run fails, 2 on a usage error.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fuzz-reject", "fuzz-construct", "derive", "netscale"]
PROCESSES = 4
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def stop(signum, frame):
    # An exception, not a bare exit: subprocess.run then kills the child
    # it is waiting on and waits for it to end.
    raise SystemExit(128 + signum)


def combine(results):
    """One report from the processes' reports: medians and sums."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics}


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--negative-check", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    out_dir = os.path.join(root, ".bench_out")
    # The compiler's temporary files go to TMPDIR: keep them in the checkout.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp_dir)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "--profile", "release", "./perfbench/main.exe"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1

    cmd = [os.path.join(build_dir, "default", "perfbench", "main.exe"),
           "--workload", args.workload,
           "--seconds", str(args.seconds / PROCESSES),
           "--trace", str(args.trace)]
    if args.negative_check:
        cmd.append("--negative-check")
    spans = ["--spans", os.path.join(
        out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(PROCESSES):
        this = cmd + ["--seed", str(args.seed * PROCESSES + i)]
        if args.trace == 1 and i == 0:
            this += spans
        try:
            run = subprocess.run(
                this, cwd=root, stdout=subprocess.PIPE,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: benchmark timed out\n")
            return 1
        if run.returncode != 0:
            sys.stderr.write("perfbench: benchmark exited with code %d\n"
                             % run.returncode)
            return 1
        lines = run.stdout.decode().rstrip("\n").split("\n")
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            sys.stderr.write("perfbench: no result line from the benchmark\n")
            return 1
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
