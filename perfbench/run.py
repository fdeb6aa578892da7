#!/usr/bin/env python3
"""Frame-path benchmark entry point.

Builds perfbench/frame_bench from the repository's sources (CMake, into
.bench_build/perfbench), runs one workload and prints every measured value
as a table, then one JSON result line:

  python3 perfbench/run.py --workload w1a3_416 --seed 1 --seconds 32 --trace 0

The result line holds the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1; traced runs also write a Chrome/Perfetto
trace to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("w1a3_416", "float_416", "serve_w1a3_x4")

# latency_ms_p90 is printed in the table only: the frame workloads time too
# few frames per run for a steady tail percentile.
END_TO_END = [
    ("fps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

CONV_LAYERS = (0, 1, 3, 5, 7, 9, 11, 12, 13)
PER_LAYER = (
    [("data.letterbox_ms", "ms")]
    + [(f"nn.L{i}.ms", "ms") for i in range(15)]
    + [(f"nn.L{i}.gops", "Gop/s") for i in CONV_LAYERS]
    + [
        ("nn.hidden_ms", "ms"),
        ("detect.decode_ms", "ms"),
        ("detect.nms_ms", "ms"),
        ("detect.boxes", "count"),
        ("trace.frame_ms", "ms"),
    ]
)

# Seconds the program may run before it is stopped; the benchmark must end
# within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # The benchmark's build tree lives in the checkout, under
    # CARGO_TARGET_DIR when that is set (as a relative path), else
    # .bench_build.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(base) or ".." in base.split(os.sep):
        base = ".bench_build"
    return os.path.join(ROOT, base)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    tree = os.path.join(out_dir, "perfbench")
    # Compiler temporaries stay in the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", tree, "--target", "frame_bench",
                    "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(tree, "frame_bench")


def thread_env(workload):
    # Thread budget: at most nproc threads (4 on the reference host). The
    # frame loops run on the main thread plus the shared GEMM pool; serving
    # runs three server workers plus the submitting main thread, so the
    # pool gets no workers of its own.
    nproc = max(1, min(4, os.cpu_count() or 1))
    env = dict(os.environ)
    serving = workload.startswith("serve")
    env["TINCY_GEMM_THREADS"] = "1" if serving else str(nproc)
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=thread_env(args.workload), text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"run.py: frame_bench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("run.py: frame_bench printed no result")
        return 1

    # Keep the full report beside the traces for perfbench/steady.py.
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump(report, f, indent=1)

    measured = report["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for err in report.get("errors", []):
        print(f"# check failed: {err}")
    reported = {name for name, _ in wanted}
    for name, m in measured.items():
        mark = "*" if name in reported else " "
        print(f"{mark} {name:30s} {m['value']:>16.6g} {m['unit']}")

    metrics = {}
    for name, unit in wanted:
        m = measured.get(name)
        if m is None or m["value"] is None or m["unit"] != unit:
            log(f"run.py: metric {name} [{unit}] missing from the report")
            return 1
        metrics[name] = {"value": m["value"], "unit": unit}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
