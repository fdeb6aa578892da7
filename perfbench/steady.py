#!/usr/bin/env python3
"""Steadiness check for the frame-path benchmark.

Runs perfbench/run.py once per seed for each workload and reports, for
every metric of the result line, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. A spread above a third of the metric's bound in
BENCHMARK.json is flagged. Exact counts (fabric cycles, the modeled ZU3EG
time, detect.boxes per seed) must repeat exactly; any drift is flagged.

  python3 perfbench/steady.py --runs 10 --trace 0
  python3 perfbench/steady.py --workloads w1a3_416 --runs 5

Summaries go to .bench_build/steady/.
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

# Counts that depend only on the topology, so every run must agree.
TOPOLOGY_COUNTS = ("perf.modeled_zu3eg_ms", "fabric.checked_codes") + tuple(
    f"fabric.F{j}.cycles" for j in range(7))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = os.path.join(ROOT, ".bench_build", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(full) as f:
        report = json.load(f)
    return result, report, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    flagged = []
    # Workloads take turns seed by seed, so a slow spell of a shared host
    # lands on every workload instead of on all runs of one.
    all_runs = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            result, report, wall = run_once(w, seed, args.seconds, args.trace)
            all_runs[w].append((seed, result, report, wall))
            print(f"{w} seed {seed}: {wall:5.1f} s wall, correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            if not result["correct"] or result["failed"]:
                flagged.append(f"{w} seed {seed}: outputs not correct")
    for w, runs in all_runs.items():
        print(w)
        rows = {}
        for name in runs[0][1]["metrics"]:
            values = [r[1]["metrics"][name]["value"] for r in runs]
            med, sp = spread(values) if len(values) >= 2 else (values[0], 0.0)
            bound = bounds.get(name)
            rows[name] = {"median": med, "spread": sp, "values": values}
            mark = ""
            if bound is not None and name != "setup_s" and sp > bound / 3:
                mark = f"  <-- spread above bound/3 ({bound / 3:.3f})"
                flagged.append(f"{w} {name} spread {sp:.3f}")
            print(f"  {name:24s} median {med:12.6g}  spread {sp:6.3f}{mark}")
        for name in TOPOLOGY_COUNTS:
            vals = {r[2]["metrics"][name]["value"] for r in runs
                    if name in r[2]["metrics"]}
            if len(vals) > 1:
                flagged.append(f"{w} {name} drifts: {sorted(vals)}")
        # detect.boxes must repeat for a seed: compare with the other
        # trace mode's report of the same seed when it exists.
        for seed, _, report, _ in runs:
            other = os.path.join(
                ROOT, ".bench_build", "results",
                f"{w}-seed{seed}-trace{1 - args.trace}.json")
            if os.path.isfile(other):
                with open(other) as f:
                    o = json.load(f)["metrics"].get("detect.boxes", {})
                if o.get("value") != report["metrics"]["detect.boxes"]["value"]:
                    flagged.append(f"{w} seed {seed}: detect.boxes drifts")
        summary["workloads"][w] = {
            "rows": rows,
            "wall_s": [r[3] for r in runs],
            "extra": {name: [r[2]["metrics"][name]["value"] for r in runs]
                      for name in runs[0][2]["metrics"]},
        }

    out = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(
        out, f"steady-trace{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {path}")
    for msg in flagged:
        print(f"FLAG: {msg}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
