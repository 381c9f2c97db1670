#!/usr/bin/env python3
"""Build and run bench_e2e (see README.md in this directory).

One workload (the interface BENCHMARK.json declares):
    python3 bench_e2e/run.py --workload se_live --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with every metric printed by name,
unit and sample count, and the cross-workload verdict gate:
    python3 bench_e2e/run.py --all [--seed N] [--seconds S]

The same gates on tiny traces (a few seconds in all):
    python3 bench_e2e/run.py --smoke

The benchmark's own unit tests (lag join, quantile rule, RSS baseline):
    python3 bench_e2e/run.py --selftest

Run from the repository root. The build goes to .bench_build/bench_e2e;
build output goes to stderr so the last stdout line of a workload run is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails (for example when the scrubber sources are missing).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
WORKLOADS = ["se_live", "ce1_ingest", "wire_paced"]


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("bench_e2e: build step failed: %s\n" % " ".join(step))
            sys.exit(done.returncode or 1)
    return os.path.join(BUILD, target)


def run_workload(binary, workload, seed, seconds, trace, smoke, echo):
    """Runs one workload; returns (exit code, stdout lines)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans_dir, "%s-seed%s.tsv" % (workload, seed))]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def metric_rows(lines):
    """(name, value, unit, samples) rows of a run's metric table."""
    rows = []
    if "--- metrics ---" not in lines:
        return rows
    for line in lines[lines.index("--- metrics ---") + 2:]:
        parts = line.split()
        if len(parts) != 4 or line.startswith("{"):
            break
        rows.append(tuple(parts))
    return rows


def run_all(binary, seed, seconds, smoke):
    failures = 0
    digests = {}
    table = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_workload(binary, workload, seed, seconds, trace,
                                       smoke, echo=False)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            ok = code == 0 and result is not None and result["correct"]
            failures += 0 if ok else 1
            print("%-10s trace=%d exit=%d correct=%s" %
                  (workload, trace, code, result and result["correct"]))
            for line in lines:
                if line.startswith("verdict_digest="):
                    digests[workload] = line.split()[0].split("=")[1]
            table += [(workload,) + row for row in metric_rows(lines)]
    print("\n%-10s %-28s %16s %-6s %s" % ("workload", "metric", "value", "unit", "samples"))
    for row in table:
        print("%-10s %-28s %16s %-6s %s" % row)
    # Same trace and seed: the wire feed must reproduce the in-process
    # verdict stream byte for byte (also gated inside wire_paced itself).
    same = digests.get("se_live") is not None and \
        digests.get("se_live") == digests.get("wire_paced")
    print("\nverdicts se_live=%s wire_paced=%s identical=%s" %
          (digests.get("se_live"), digests.get("wire_paced"), same))
    failures += 0 if same else 1
    print("all gates passed" if failures == 0 else "%d run(s) FAILED" % failures)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([build("bench_e2e_tests")]).returncode
    binary = build("bench_e2e")
    if args.smoke:
        return run_all(binary, args.seed, 1, smoke=True)
    if args.all:
        return run_all(binary, args.seed, args.seconds, smoke=False)
    if args.workload is None:
        parser.error("--workload, --all, --smoke or --selftest is required")
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                           args.trace, smoke=False, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
