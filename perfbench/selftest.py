#!/usr/bin/env python3
"""Self-test of the benchmark on reduced-size workloads.

    python3 perfbench/selftest.py

Run from the repository root (builds like run.py does).  Checks that:
  * BENCHMARK.json keeps the field limits the benchmark is run under;
  * every workload run.py accepts (those BENCHMARK.json lists and the
    two sweeps), untraced, emits exactly the end_to_end names with their
    units, and traced exactly the per_layer names, with no failed point;
  * the traced run prints the same result digest as the untraced one;
  * a run with one report deliberately perturbed reports fail_ratio > 0.
Exits 0 when every check passes.
"""
import json
import os
import re
import signal
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the expected keys")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    check(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1..16 end_to_end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1..128 per_layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(NAME.match(name) is not None, f"name {name!r} is well formed")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w['name']} has a one-line why of at most 200 characters")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} has the e2e keys")
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"{m['name']} has the per-layer keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']} is well formed")
        check(m["better"] in ("higher", "lower"), f"{m['name']} says which way is better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines, f"{workload} trace {trace} {extra} exits 0")
    if not lines:
        return {}, {}
    digest = re.search(r"(?m)^\s*digest\s+([0-9a-f]{16})", proc.stdout)
    traced = re.search(r"traced digest\s+([0-9a-f]{16})", proc.stdout)
    ratio = re.search(r"fail_ratio\s+(\S+)", proc.stdout)
    info = {"digest": digest and digest.group(1), "traced": traced and traced.group(1),
            "fail_ratio": ratio and float(ratio.group(1))}
    return json.loads(lines[-1]), info


def check_names(result, expected, label):
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(set(got) == set(want), f"{label}: metric names match BENCHMARK.json "
          f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
    for name, unit in want.items():
        if name in got:
            check(got[name] == unit, f"{label}: {name} in {unit}")


def main():
    # Unwind through subprocess.run on SIGTERM, so the run in flight is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    check(all(w["name"] in WORKLOADS for w in spec["workloads"]),
          "run.py accepts every workload BENCHMARK.json lists")
    for workload in WORKLOADS:
        untraced, info0 = run(workload, 0)
        check_names(untraced, spec["end_to_end"], f"{workload} trace 0")
        traced, info1 = run(workload, 1)
        check_names(traced, spec["per_layer"], f"{workload} trace 1")
        for label, result in (("trace 0", untraced), ("trace 1", traced)):
            check(result.get("correct") is True and result.get("failed") == 0 and
                  result.get("attempted", 0) >= 1, f"{workload} {label}: every point passes")
        for name, m in untraced.get("metrics", {}).items():
            check(m["value"] > 0, f"{workload}: end-to-end {name} is not 0")
        check(info0["digest"] is not None and info0["digest"] == info1["traced"],
              f"{workload}: traced digest equals untraced digest")
        print(f"ok   {workload}")
    workload = spec["workloads"][0]["name"]
    for trace in (0, 1):
        perturbed, info = run(workload, trace, "--perturb")
        check(perturbed.get("failed", 0) > 0 and perturbed.get("correct") is False and
              (info["fail_ratio"] or 0) > 0,
              f"{workload} trace {trace}: a perturbed report gives fail_ratio > 0")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
