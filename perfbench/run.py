#!/usr/bin/env python3
"""End-to-end benchmark of the vendor->user path (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload release --seed 1 --seconds 10 --trace 0

Builds the library sources of the checkout and the benchmark binary into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
binary, which trains the two tiny zoo models on a cold cache before its
set-up (reported, never inside setup_s). The last stdout line is the result
JSON: {"correct", "attempted", "failed", "metrics"}. Exits non-zero when the
sources are missing, the build fails, a correctness check fails or the
printed metrics differ from the ones BENCHMARK.json declares.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "vendor.h")):
        log("perfbench: no library sources next to perfbench/ (src/ missing)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    step = ["cmake", "--build", out_dir, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def declared_metrics(traced):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["release", "qualify-full", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--quick", action="store_true",
                        help="short mode for the benchmark's own test")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        log("perfbench: build failed")
        return 1
    binary = os.path.join(out_dir, "perfbench")
    work_dir = os.path.join(out_dir, "work")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.quick:
        command.append("--quick")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = result.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        parsed = json.loads(lines[-1])
        metrics = parsed["metrics"]
    except (ValueError, KeyError, TypeError):
        print(lines[-1], flush=True)
        log("perfbench: no result line (benchmark binary exited with %d)"
            % result.returncode)
        return 1
    declared = declared_metrics(args.trace == 1)
    if declared is not None and sorted(declared) != sorted(metrics):
        log("perfbench: printed metrics differ from BENCHMARK.json: %s"
            % sorted(set(declared) ^ set(metrics)))
        return 1
    print(lines[-1], flush=True)
    if result.returncode != 0 or parsed.get("correct") is not True:
        log("perfbench: a correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
