#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <oltp|olap_frozen> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
engine and the driver (Release) into .bench_build/perfbench; later runs only
re-check the build. A run starts the driver PROCESSES times in a row, each a
fresh engine with its own set-up and an equal share of the --seconds of
work, and reports for each metric the mean over the processes (setup_s: the
median). Each process writes its WAL and trace into a scratch directory
under .bench_build, removed when it ends.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one process untraced and then one traced, prints the per-layer metrics
from the traced one, each layer's self time from the driver's spans, and the
tracing overhead (traced minus untraced end-to-end metrics). Either way the
run records host facts: nproc, CPU model, CPU steal over the run, and a
STREAM copy/triad probe at the start and end.

Exit status is 0 only if the build worked, every driver process ran, and
every correctness check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("oltp", "olap_frozen")
# Driver processes per run. Each process's figures carry an offset of their
# own (where its memory landed, how its allocator settled); the mean over
# several processes evens that out, which one longer process cannot.
PROCESSES = 3
# Every driver process of one run, traced ones included, ends by then.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_driver"],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return os.path.exists(DRIVER)


def cpu_times():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_driver(args, trace, seconds, deadline):
    """Run the driver once; returns its report dict, or None on failure."""
    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0",
               "--scratch", scratch]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
        trace_file = os.path.join(scratch, "trace-%s.json" % args.workload)
        if os.path.exists(trace_file):
            shutil.copy(trace_file, BUILD_ROOT)
    except subprocess.TimeoutExpired:
        log("driver timed out: the run may take at most %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if result.stderr:
        log(result.stderr.rstrip())
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver exited %d without a report" % result.returncode)
        return None
    report["exit_code"] = result.returncode
    return report


def run_processes(args, trace, count, deadline):
    """`count` driver runs, each with a 1/PROCESSES share of the work and its
    own seed derived from --seed; None if any failed to report."""
    reports = []
    for i in range(count):
        process_args = argparse.Namespace(workload=args.workload,
                                          seed=args.seed * PROCESSES + i)
        report = run_driver(process_args, trace, args.seconds / PROCESSES, deadline)
        if report is None:
            return None
        reports.append(report)
    return reports


def combine(reports, key):
    """One value per name over the processes' reports: the median for
    setup_s, as a set-up time is reported, and the mean for the rest."""
    names = sorted(set().union(*(report[key] for report in reports)))
    combined = {}
    for name in names:
        values = [report[key][name] for report in reports if name in report[key]]
        combined[name] = (statistics.median(values) if name == "setup_s"
                          else statistics.fmean(values))
    return combined


def valid_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        log("cannot read BENCHMARK.json: %s" % error)
        return 1
    if not build():
        return 1

    steal_start, total_start = cpu_times()
    wall_start = time.monotonic()
    deadline = wall_start + RUN_TIMEOUT_S
    # A traced run runs one process untraced and one traced, so it takes
    # less time than an untraced run.
    count = 1 if args.trace else PROCESSES
    untraced = run_processes(args, False, count, deadline)
    traced = run_processes(args, True, count, deadline) if args.trace and untraced else None
    steal_end, total_end = cpu_times()
    if untraced is None or (args.trace and traced is None):
        return 1

    steal_pct = (100.0 * (steal_end - steal_start) / (total_end - total_start)
                 if total_end > total_start else 0.0)
    facts = combine(untraced, "facts")
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cpu_steal_pct": steal_pct,
        "stream_copy_gb_s": [untraced[0]["facts"].get("host.stream_copy_gb_s_start", 0),
                             untraced[-1]["facts"].get("host.stream_copy_gb_s_end", 0)],
        "stream_triad_gb_s": [untraced[0]["facts"].get("host.stream_triad_gb_s_start", 0),
                              untraced[-1]["facts"].get("host.stream_triad_gb_s_end", 0)],
        "driver_processes": PROCESSES,
        "wall_s": time.monotonic() - wall_start,
    }
    for name in list(facts):
        if name.startswith("host.stream_"):
            del facts[name]
    print("host: " + json.dumps(host))
    print("workload (mean per process): " + json.dumps(facts, sort_keys=True))

    everything = untraced + (traced or [])
    failures = [failure for report in everything for failure in report["failures"]]
    untraced_e2e = combine(untraced, "e2e")
    if args.trace:
        traced_e2e = combine(traced, "e2e")
        overhead = {name: traced_e2e[name] - untraced_e2e[name]
                    for name in sorted(untraced_e2e) if name in traced_e2e}
        print("tracing overhead (traced - untraced): " + json.dumps(overhead))
        print("span self time ms by layer (mean per process): "
              + json.dumps(combine(traced, "span_self_ms")))
        print("span count by layer (mean per process): "
              + json.dumps(combine(traced, "span_counts")))
        print("untraced end-to-end: " + json.dumps(untraced_e2e, sort_keys=True))
        wanted = spec["per_layer"]
        source = combine(traced, "layers")
        # A layer this workload never enters reads 0 (e.g. TPC-C procedure
        # latencies on olap_frozen); it is listed so a reader can tell.
        idle = [m["name"] for m in wanted if m["name"] not in source]
        if idle:
            print("layers not exercised by %s (reported as 0): %s"
                  % (args.workload, ", ".join(idle)))
    else:
        wanted = spec["end_to_end"]
        source = untraced_e2e
        for metric in wanted:
            value = source.get(metric["name"])
            if not valid_number(value) or value <= 0:
                failures.append("end-to-end metric %s is missing or not positive"
                                % metric["name"])

    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value if valid_number(value) else 0.0,
                                   "unit": metric["unit"]}
    for failure in failures:
        print("CHECK FAILED: " + failure)

    attempted = sum(report["attempted"] for report in everything)
    failed = sum(report["failed"] for report in everything)
    correct = (not failures and failed == 0
               and all(report["exit_code"] == 0 for report in everything))
    if not correct and failed == 0:
        failed = 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
