#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload p128_slotted --seed 1 --seconds 40 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build).  Build output
goes to stderr; stdout carries the benchmark's report, whose last line is
one JSON object.  Exits non-zero without a result when the sources are
missing or the build or run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The two sweeps are not in BENCHMARK.json (see NOTES.md) but stay runnable.
WORKLOADS = ("p128_slotted", "ft2_hybrid", "sweep_cold", "sweep_warm")
# Each run must end well inside the per-run limit.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                os.remove(cache)  # configured for another source tree
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "xdrs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size workload (self-test)")
    parser.add_argument("--perturb", action="store_true",
                        help="alter one report so the output check must fail it (self-test)")
    args = parser.parse_args()
    # A terminated run must not leave the benchmark process behind:
    # SystemExit unwinds through subprocess.run, which kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: simulator sources (src/) not found beside the benchmark",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(build_dir, f"tmp-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if args.quick:
        cmd.append("--quick")
    if args.perturb:
        cmd.append("--perturb")
    try:
        # Relative inputs (the bundled CDF files) resolve from the repo root.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
