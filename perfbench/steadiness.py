#!/usr/bin/env python3
"""Runs the benchmark N times per workload and reports how steady it is.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 [--workloads a,b] [--save a.json]
    python3 perfbench/steadiness.py --runs 10 --seed 1 [--workloads a,b] [--save a.json]
    python3 perfbench/steadiness.py --compare a.json b.json

Run from the repository root.  With --first-seed each run gets its own seed
(first-seed, first-seed+1, ...), so the spread includes the seed-to-seed
change in work.  With --seed every run uses that one seed, so the spread is
the measurement's own.  Runs go round-robin over the workloads, so each
workload's runs span the whole set.  For every workload and metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)),
(q3-q1)/median and (max-min)/median.  A metric whose quartile spread
exceeds its bound in BENCHMARK.json is flagged BOUND; one above a third of
its bound is flagged wide.  --compare reads two saved sets and flags any
metric whose second median is worse than the first by more than its bound.
"""
import argparse
import json
import os
import statistics
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: output check failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    iqr = (q3 - q1) / med if med else float("inf")
    rng = (max(values) - min(values)) / med if med else float("inf")
    return med, q1, q3, iqr, rng


def report(results, bounds):
    ok = True
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'rng/med':>9}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, q1, q3, iqr, rng = spread(values)
            flag = ""
            bound = bounds.get(name)
            if bound is not None:
                if iqr > bound:
                    flag, ok = "  BOUND", False
                elif iqr > bound / 3:
                    flag = "  wide"
            print(f"  {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{iqr:>9.3f}{rng:>9.3f}{flag}")
    return ok


def compare(first, second, spec):
    ok = True
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in first:
        for name in first[workload][0]:
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if better.get(name) == "lower" else (a - b) / a
            flag = "  WORSE" if worse > bounds.get(name, float("inf")) else ""
            ok = ok and not flag
            print(f"{workload:<14}{name:<26}{a:>14.6g}{b:>14.6g}{worse:>+9.3f}{flag}")
    return ok


def main():
    # Unwind through subprocess.run on SIGTERM, so the run in flight is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--first-seed", type=int, default=1,
                       help="run i uses seed first-seed + i (default)")
    seeds.add_argument("--seed", type=int, help="every run uses this seed")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(sets[0], sets[1], spec) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    results = {workload: [] for workload in workloads}
    for i in range(args.runs):
        seed = args.seed if args.seed is not None else args.first_seed + i
        for workload in workloads:
            results[workload].append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        if args.save:  # after every round, so an interrupted set keeps its runs
            with open(args.save, "w") as f:
                json.dump(results, f, indent=1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return 0 if report(results, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
