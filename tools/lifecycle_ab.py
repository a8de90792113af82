#!/usr/bin/env python3
"""Interleaved A/B of the lifecycle benchmark: a base commit against the working tree.

Run from the repository root:

    python3 tools/lifecycle_ab.py --base HEAD --workloads refresh,drift,query \\
        --seeds 1,9001 --pairs 10 --seconds 25 [--trace 1] \\
        [--claim refresh:stats_mrefs_per_s] [--json ab.json]

The base side is `git archive` of --base, unpacked under --work-dir; the
change side is the working tree itself. Each side builds its own Release
tree (lifecycle_bench/run.py with its own CARGO_TARGET_DIR under
--work-dir), so neither side's build touches the other's. For every
workload and seed the script runs --pairs pairs, alternating which side
runs first, and prints for every metric of BENCHMARK.json's section (the
end-to-end metrics, or the per-layer ones with --trace 1):

  - each side's median and quartiles;
  - how many pairs the change won, in the metric's better direction;
  - whether the median gap exceeds the base's interquartile range;
  - for end-to-end metrics, BOUND when the change's median is worse
    than the base's by more than the metric's BENCHMARK.json bound.

--claim WORKLOAD:METRIC applies the acceptance rule for a claimed gain:
at least 9 of 10 pairs won (90%) and a median gap, in the better
direction, larger than the base's IQR. A run that fails, reports
`failed` > 0 or fails an output check (`correct` false) is listed. Exits 1 when a bound is broken, a run fails or a
claim does not hold; 0 otherwise. The script reads lifecycle_bench/ and
BENCHMARK.json and writes only under --work-dir and the --json path.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_WIN_SHARE = 0.9


def log(message):
    print(message, file=sys.stderr, flush=True)


def unpack_base(rev, dest):
    """Unpacks `git archive REV` into dest (replacing an older unpack)."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)


def run_side(tree, target, workload, seed, seconds, trace):
    """One lifecycle_bench run; returns its result object or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [sys.executable, os.path.join("lifecycle_bench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        log(done.stderr[-2000:])
        return None
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(spec, change, base):
    return change > base if spec["better"] == "higher" else change < base


def summarize(spec, base, change, bounded):
    """One metric's line, whether the change's median breaks the bound,
    the change's win count, and whether its median gained by more than
    the base IQR."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if better(spec, c, b))
    gap = cm - bm
    iqr = b3 - b1
    beyond = abs(gap) > iqr
    verdict = "gap %+.4g %s base IQR %.4g" % (gap, ">" if beyond else "<=",
                                               iqr)
    broken = False
    if bounded and bm != 0:
        worse = -gap if spec["better"] == "higher" else gap
        broken = worse / abs(bm) > spec["bound"]
    line = ("  %-34s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
            "won %d/%d  %s%s" % (spec["name"], bm, b1, b3, cm, c1, c3, wins,
                                 len(base), verdict,
                                 "  BOUND" if broken else ""))
    return line, broken, wins, beyond and better(spec, cm, bm)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare against (default HEAD: the "
                             "working tree's uncommitted change)")
    parser.add_argument("--workloads", default="refresh,query,drift")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC held to the acceptance rule")
    parser.add_argument("--work-dir", default=os.path.join(
        ROOT, ".bench_build", "ab"))
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    specs = {m["name"]: m for m in section}
    claims = {}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if metric not in specs:
            parser.error("--claim %s: no such metric in BENCHMARK.json" %
                         claim)
        claims.setdefault(workload, []).append(metric)

    work = os.path.abspath(args.work_dir)
    base_tree = os.path.join(work, "base")
    unpack_base(args.base, base_tree)
    sides = {"base": (base_tree, os.path.join(work, "base-target")),
             "change": (ROOT, os.path.join(work, "change-target"))}

    ok = True
    record = []
    for workload in args.workloads.split(","):
        for seed in [int(s) for s in args.seeds.split(",")]:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else (
                    "change", "base")
                for side in order:
                    tree, target = sides[side]
                    result = run_side(tree, target, workload, seed,
                                      args.seconds, args.trace)
                    runs[side].append(result)
                    log("%s seed %d pair %d %s: %s" % (
                        workload, seed, pair + 1, side,
                        "no result" if result is None else
                        "failed %d" % result["failed"]))
            record.append({"workload": workload, "seed": seed, "runs": runs})
            bad = [(side, i + 1) for side in runs
                   for i, r in enumerate(runs[side])
                   if r is None or r["failed"] != 0 or not r["correct"]]
            print("%s, seed %d, %d pairs%s" % (
                workload, seed, args.pairs,
                "" if not bad else ", failed runs: %s" % bad))
            ok = ok and not bad
            pairs = [i for i in range(args.pairs)
                     if runs["base"][i] is not None
                     and runs["change"][i] is not None]
            for name, spec in specs.items():
                base = [runs["base"][i]["metrics"][name]["value"]
                        for i in pairs]
                change = [runs["change"][i]["metrics"][name]["value"]
                          for i in pairs]
                if not base:
                    continue
                line, broken, wins, gained = summarize(
                    spec, base, change, bounded=not args.trace)
                print(line)
                ok = ok and not broken
                if name in claims.get(workload, []):
                    holds = wins >= CLAIM_WIN_SHARE * len(base) and gained
                    print("    claim %s: %s" % (
                        name, "holds" if holds else "does not hold"))
                    ok = ok and holds
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
