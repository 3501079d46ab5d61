#!/usr/bin/env python3
"""Paper-artifact benchmark for the HBM2 RowHammer simulator.

Builds the harness (perfbench/CMakeLists.txt) from the simulator sources in
../src, runs one workload in its own process, and relays its result: the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

    python3 perfbench/run.py --workload fig3_full_rows --seed 0 --seconds 10 --trace 0

Build output goes under $CARGO_TARGET_DIR (default .bench_build) in the
current directory. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3_full_rows", "fig6_bank_scan", "trr_refresh")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the harness; returns the binary's path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", bdir, "-j", jobs]]
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def harness_command(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--pins", os.path.join(HERE, "pins.json"),
            "--work-dir", os.path.join(build_dir(), "work")] + list(extra)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    proc = subprocess.run(
        harness_command(binary, args.workload, args.seed, args.seconds, args.trace),
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: harness exited %d without a result line" % proc.returncode)

    expected = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit("perfbench: harness metrics %s do not match BENCHMARK.json %s"
                 % (sorted(got.items()), sorted(expected.items())))
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
