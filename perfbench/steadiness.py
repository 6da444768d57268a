#!/usr/bin/env python3
"""Steadiness report: run one workload N times and compare spreads to bounds.

    python3 perfbench/steadiness.py --workload olap_frozen --runs 10 [--seed0 1]
        [--save runs.json]
    python3 perfbench/steadiness.py --compare parent.json change.json

The first form runs perfbench/run.py N times, each with another seed and the
run length of BENCHMARK.json, and prints for every end-to-end metric the median, the quartiles, and the spread
(third minus first quartile, as a share of the median) against the metric's
bound in BENCHMARK.json. A spread under a third of the bound is "steady";
under the bound, "within bound"; otherwise "NOISY". It also prints each run's
CPU steal, so a noisy host can be told from a noisy benchmark. --save keeps
the values for --compare.

The second form reads two saved sets (say, a parent commit and a change) and
prints, per metric, both medians and how far the second is worse than the
first as a share of the first, against the bound.

Exit status is 1 when a run fails, a spread exceeds its bound, or a compared
median is worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(args, spec):
    seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    steal, stream = [], []
    for i in range(args.runs):
        seed = args.seed0 + i
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = result.stdout.strip().splitlines()
        host = next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), {})
        try:
            final = json.loads(lines[-1])
        except (IndexError, ValueError):
            final = {"correct": False}
        if result.returncode != 0 or not final.get("correct"):
            print("run with seed %d failed (exit %d)" % (seed, result.returncode))
            return None
        for name in values:
            values[name].append(final["metrics"][name]["value"])
        steal.append(host.get("cpu_steal_pct", 0.0))
        stream.append(min(host.get("stream_triad_gb_s", [0.0])))
        print("seed %3d  steal %5.1f%%  triad %5.1f GB/s  %s" % (
            seed, steal[-1], stream[-1],
            "  ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    return {"workload": args.workload, "seconds": seconds,
            "seeds": list(range(args.seed0, args.seed0 + args.runs)),
            "cpu_steal_pct": steal, "stream_triad_gb_s": stream, "values": values}


def report_spread(data, spec):
    ok = True
    print("\n%-18s %14s %14s %14s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = quartiles(data["values"][name])
        spread = (q3 - q1) / median if median else float("inf")
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "NOISY"
            ok = False
        print("%-18s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%  %s" % (
            name, median, q1, q3, 100 * spread, 100 * bound, verdict))
    steal = data.get("cpu_steal_pct", [])
    if steal:
        print("cpu steal over the runs: median %.1f%%, max %.1f%%"
              % (statistics.median(steal), max(steal)))
    stream = data.get("stream_triad_gb_s", [])
    if stream:
        print("STREAM triad over the runs: %.1f to %.1f GB/s" % (min(stream), max(stream)))
    return ok


def compare(first, second, spec):
    ok = True
    print("%-18s %14s %14s %9s %7s" % ("metric", "first", "second", "worse by", "bound"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = statistics.median(first["values"][name])
        b = statistics.median(second["values"][name])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        flag = "" if worse <= bound else "  REGRESSION"
        ok = ok and worse <= bound
        print("%-18s %14.6g %14.6g %8.2f%% %6.0f%%%s"
              % (name, a, b, 100 * worse, 100 * bound, flag))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as saved:
                sets.append(json.load(saved))
        return 0 if compare(sets[0], sets[1], spec) else 1

    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    data = run_set(args, spec)
    if data is None:
        return 1
    if args.save:
        with open(args.save, "w") as out:
            json.dump(data, out, indent=1)
    return 0 if report_spread(data, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
