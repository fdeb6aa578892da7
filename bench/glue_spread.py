#!/usr/bin/env python3
"""Runs bench/frame_glue in several separate processes and merges their rows.

  python3 bench/glue_spread.py build/bench/frame_glue [--runs 3] \
      [--out BENCH_glue.json]

One process's medians of the threaded rows swing 2-3x against another's
minutes later on a shared host, so a single run cannot back a claim. Each
row of the merged file carries the min, median and max over the processes
of both arms (oracle and kernel), and each process is listed with the
steal time the host reported while it ran (/proc/stat, summed over the
CPUs). Exits 1 if any process found a kernel that differs from its oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def steal_seconds():
    """Steal time of all CPUs so far, in seconds (0 where not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def spread(values):
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("binary", help="path to the frame_glue program")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", default="BENCH_glue.json")
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")

    docs, runs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.runs):
            path = os.path.join(tmp, f"run{k}.json")
            steal0, t0 = steal_seconds(), time.monotonic()
            code = subprocess.run([args.binary, path],
                                  stdout=subprocess.DEVNULL).returncode
            wall = time.monotonic() - t0
            steal = steal_seconds() - steal0
            with open(path) as f:
                doc = json.load(f)
            docs.append(doc)
            runs.append({"steal_s": round(steal, 2), "wall_s": round(wall, 2),
                         "pass": code == 0 and doc["pass"]})
            print(f"run {k}: {wall:.1f} s, steal {steal:.2f} s, "
                  f"{'PASS' if runs[-1]['pass'] else 'FAIL'}", file=sys.stderr)

    stages = []
    for i, row in enumerate(docs[0]["stages"]):
        rows = [d["stages"][i] for d in docs]
        if any(r["stage"] != row["stage"] for r in rows):
            sys.exit("glue_spread: runs disagree on the stage list")
        oracle = spread([r["oracle_ms"] for r in rows])
        kernel = spread([r["kernel_ms"] for r in rows])
        stages.append({
            "stage": row["stage"], "input": row["input"],
            "oracle_ms": oracle, "kernel_ms": kernel,
            "speedup_median": oracle["median"] / kernel["median"],
            "bit_exact": all(r["bit_exact"] for r in rows)})
    passed = all(r["pass"] for r in runs)
    merged = {
        "schema": "tincy-bench-glue-v2",
        "network": docs[0]["network"],
        "threads": docs[0]["threads"],
        "trials_per_process": docs[0]["trials"],
        "processes": runs,
        "stages": stages,
        "pass": passed,
    }
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")

    print(f"{'stage':22} {'kernel ms min/med/max':>26} {'oracle ms med':>14}")
    for s in stages:
        k = s["kernel_ms"]
        print(f"{s['stage']:22} {k['min']:8.3f} {k['median']:8.3f} "
              f"{k['max']:8.3f} {s['oracle_ms']['median']:14.3f}")
    print(f"wrote {args.out}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
