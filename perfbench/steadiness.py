#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and checks its counters.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--workloads bfs-web,serve-social,bc-ooc]
        [--runs 10] [--seed-base 1000] [--seconds <BENCHMARK.json value>]
        [--save medians.json] [--against medians.json]

For each workload it makes --runs untraced runs on seeds seed-base,
seed-base+1, ... and prints, for every end-to-end metric, the median,
quartiles (statistics.quantiles, n=4), min/max and the relative spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json. A spread
above its bound fails the report, setup_s included. A spread above a third
of its bound, the steadiness target, is flagged but does not fail; setup_s
is left out of that flag.

It then reruns the first seed twice: once as is and once with
--engine-threads 1. Every count metric must repeat exactly across the two
runs of that seed and across the engine thread counts: model_cycles_per_query,
compression_rate, success_rate and the simt.*, ooc.* and
intersect.txns_per_query counters ("# counts" line). service.cache_hit_rate
is exempt, since concurrent misses move it by a few hits.

Every run must pass the oracle check (success_rate 1) and keep the
workload's designed property: bfs-web does no ooc or intersect work,
bc-ooc faults partitions in, and serve-social's cache-hit share stays inside
its band, away from one half.

--save writes the medians of this set to a JSON file. --against reads the
medians of an earlier set (of the same code, taken at another time) and
prints, per workload and metric, both medians and the relative change in
the metric's worse direction; a change worse than the bound fails.

Exits 1 on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HIT_BAND = (0.10, 0.40)
EXEMPT = {"service.cache_hit_rate"}


def run(workload, seed, seconds, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + list(extra)
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, wall
    result = json.loads(lines[-1])
    counts = {}
    for line in lines:
        if line.startswith("# counts "):
            counts = {k: v["value"]
                      for k, v in json.loads(line[len("# counts "):]).items()}
    return result, counts, wall


def property_errors(workload, result, counts):
    errors = []
    if not result["correct"] or counts.get("success_rate") != 1:
        errors.append("oracle check failed")
    if workload == "bfs-web":
        busy = [k for k, v in counts.items()
                if (k.startswith("ooc.") or k.startswith("intersect."))
                and v != 0]
        if busy:
            errors.append("ooc/intersect work on bfs-web: %s" % busy)
    elif workload == "bc-ooc":
        if not counts.get("ooc.faults_per_query", 0) > 0:
            errors.append("bc-ooc faulted no partitions")
    elif workload == "serve-social":
        hit = counts.get("service.cache_hit_rate", 0)
        if not HIT_BAND[0] <= hit <= HIT_BAND[1]:
            errors.append("cache-hit share %.3f outside %s" % (hit, HIT_BAND))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write this set's medians here")
    ap.add_argument("--against", help="medians of an earlier set to compare")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}

    failures = []
    for workload in args.workloads.split(","):
        print("== %s: %d runs of %d s" % (workload, args.runs, args.seconds))
        values = {}
        first_counts = None
        for i in range(args.runs):
            seed = args.seed_base + i
            result, counts, wall = run(workload, seed, args.seconds)
            if result is None:
                failures.append("%s seed %d: run failed" % (workload, seed))
                print("  seed %d: FAILED (%.0f s)" % (seed, wall))
                continue
            if i == 0:
                first_counts = counts
            for err in property_errors(workload, result, counts):
                failures.append("%s seed %d: %s" % (workload, seed, err))
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("  seed %d (%.0f s): %s" % (seed, wall, "  ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())))
            sys.stdout.flush()
        print("  %-24s %12s %12s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], 0, vs[0]))
            spread = (q3 - q1) / med if med else 0.0
            medians.setdefault(workload, {})[k] = med
            bound = bounds.get(k, 0.0)
            flag = ""
            if spread > bound:
                flag = "  <- above bound"
                failures.append("%s %s spread %.4f > bound %.4f" % (
                    workload, k, spread, bound))
            elif k != "setup_s" and spread > bound / 3:
                flag = "  <- above bound/3"
            print("  %-24s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f%s"
                  % (k, med, q1, q3, min(vs), max(vs), spread, bound, flag))

        if workload in earlier:
            print("  %-24s %12s %12s %8s %6s" % (
                "metric", "earlier", "this set", "worse", "bound"))
            for k, med in medians[workload].items():
                before = earlier[workload].get(k)
                if before is None:
                    continue
                change = (med - before) / before if before else 0.0
                worse = change if lower_is_better[k] else -change
                flag = ""
                if worse > bounds[k]:
                    flag = "  <- worse than bound"
                    failures.append("%s %s median %.6g vs earlier %.6g: "
                                    "%.4f worse > bound %.4f" % (
                                        workload, k, med, before, worse,
                                        bounds[k]))
                print("  %-24s %12.6g %12.6g %+8.4f %6.3f%s" % (
                    k, before, med, worse, bounds[k], flag))

        if first_counts is None:
            continue
        seed = args.seed_base
        for label, extra in (("repeat", ()),
                             ("engine threads 1", ("--engine-threads", "1"))):
            result, counts, _ = run(workload, seed, args.seconds, extra)
            if result is None:
                failures.append("%s seed %d %s: run failed" % (
                    workload, seed, label))
                continue
            diff = sorted(k for k in set(first_counts) | set(counts)
                          if k not in EXEMPT
                          and first_counts.get(k) != counts.get(k))
            print("  counts, %s: %s" % (
                label, "identical" if not diff else "DIFFER in %s" % diff))
            if diff:
                failures.append("%s %s: counts differ in %s" % (
                    workload, label, diff))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    print("\n%s" % ("steady: all checks passed" if not failures else
                    "FAILED:\n  " + "\n  ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
