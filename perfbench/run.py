#!/usr/bin/env python3
"""The kdtune repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload frames_dynamic|serve_mixed|shard_rays|all
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench_driver (the kdtune libraries from ../src plus the driver in
perfbench/driver) in Release under $CARGO_TARGET_DIR (default .bench_build)
at the repository root, runs the workload, prints every metric with its unit
and direction, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes a Chrome trace under the build directory).
Any answer that differs from the reference makes the run exit 1. A build
that is not optimized (Release / RelWithDebInfo) is refused with exit 4.
--self-test plants one wrong answer in each workload and checks that the
correctness gate fires.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frames_dynamic", "serve_mixed", "shard_rays")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build_driver():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("kdtune sources not found next to perfbench/ (expected src/)")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    exe = bdir / "perfbench_driver"
    if not exe.is_file():
        die("driver binary missing after build")
    return exe


def contract():
    """Metric declarations from BENCHMARK.json (None when absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def run_driver(exe, workload, seed, seconds, trace, plant_wrong=False):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if plant_wrong:
        cmd.append("--plant-wrong")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"{workload}: driver failed with exit code {proc.returncode}", 3)
    return json.loads(lines[-1]), proc.returncode


def check_context(result):
    ctx = result["context"]
    if not ctx.get("optimized") or ctx.get("build_type") not in OPTIMIZED_BUILD_TYPES:
        die(f"refusing to report an unoptimized build "
            f"(build type '{ctx.get('build_type')}')", 4)


def check_metric_set(result, trace, spec):
    if spec is None:
        return {}
    decl = spec["per_layer" if trace else "end_to_end"]
    want = [m["name"] for m in decl]
    got = list(result["metrics"])
    if sorted(want) != sorted(got):
        die(f"{result['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}", 3)
    return {m["name"]: m for m in decl}


def print_report(result, decl):
    print(f"== {result['workload']} context: {json.dumps(result['context'])}")
    print(f"   correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        better = decl.get(name, {}).get("better", "")
        direction = {"lower": "(lower is better)",
                     "higher": "(higher is better)"}.get(better, "")
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']:<9} {direction}")
    for note in result.get("notes", []):
        print(f"   note: {note}")


def self_test(exe):
    ok = True
    for workload in WORKLOADS:
        result, code = run_driver(exe, workload, seed=1, seconds=1, trace=False,
                                  plant_wrong=True)
        fired = code == 1 and not result["correct"] and result["failed"] >= 1
        print(f"self-test {workload}: planted wrong answer "
              f"{'caught' if fired else 'NOT caught'} "
              f"(exit {code}, failed={result['failed']})")
        ok = ok and fired
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    spec = contract()
    exe = build_driver()
    if args.self_test:
        sys.exit(self_test(exe))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result, _ = run_driver(exe, workload, args.seed, args.seconds,
                               bool(args.trace))
        check_context(result)
        decl = check_metric_set(result, bool(args.trace), spec)
        print_report(result, decl)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
