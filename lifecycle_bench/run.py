#!/usr/bin/env python3
"""Builds and runs the EPFIS lifecycle benchmark.

Run from the repository root:

    python3 lifecycle_bench/run.py --workload {refresh,query,drift} \
        --seed N --seconds S --trace {0,1}

The first run configures and builds the library and the benchmark with
optimization (CMake, Release) under $CARGO_TARGET_DIR/lifecycle_bench, or
.bench_build/lifecycle_bench when that variable is unset; later runs only
rebuild what changed. The benchmark's own output is relayed; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
The metric names are checked against BENCHMARK.json before the line is
printed. Exits non-zero, printing no result, when the build, the run or
that check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("lifecycle_bench: library sources (src/CMakeLists.txt) not found "
            "next to " + BENCH_DIR)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "lifecycle_bench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("lifecycle_bench: cannot run %s: %s" % (step[0], e))
            return None
        if done.returncode != 0:
            log("lifecycle_bench: build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "lifecycle_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [m["name"] for m in section]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["refresh", "query", "drift"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "lifecycle_bench")
    binary = build(build_dir)
    if binary is None:
        return 2
    try:
        expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log("lifecycle_bench: cannot read BENCHMARK.json: %s" % e)
        return 2

    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work-%d" % os.getpid()),
               "--spans-dir", os.path.join(build_dir, "spans"),
               "--source-digest", source_digest(),
               "--git-sha", git_sha()]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log("lifecycle_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError, IndexError):
        sys.stderr.write(out)
        log("lifecycle_bench: no result line (exit code %d)" % child.returncode)
        return child.returncode or 1
    if sorted(names) != sorted(expected):
        sys.stderr.write(out)
        log("lifecycle_bench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(names), sorted(expected)))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
