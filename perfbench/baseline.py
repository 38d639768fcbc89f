#!/usr/bin/env python3
"""Records a baseline: repeated end-to-end runs of every workload.

    python3 perfbench/baseline.py --runs 10 --seconds 20 \
        --out perfbench/baseline/<name>.json [--workloads a,b] [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per (workload, seed), seeds
first-seed .. first-seed + runs - 1, and writes every value plus, per metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, with the run context. Run it on an idle machine.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="frames_dynamic,serve_mixed,shard_rays")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"machine": platform.machine(), "nproc": None, "simd": None,
                 "compiler": None, "build_type": None},
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"baseline: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
            result = json.loads(lines[-1])
            ctx = {}
            for line in lines:
                if line.startswith("== ") and " context: " in line:
                    ctx = json.loads(line.split(" context: ", 1)[1])
                    record["host"].update(
                        nproc=ctx.get("nproc"), simd=ctx.get("simd"),
                        compiler=ctx.get("compiler"),
                        build_type=ctx.get("build_type"))
            runs.append({"seed": seed, "correct": result["correct"],
                         "steal_share": ctx.get("steal_share"),
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            values = " ".join(f"{k}={v:.5g}"
                              for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed} "
                  f"steal {ctx.get('steal_share', 0):.3f}: {values}",
                  flush=True)
        record["workloads"][workload] = {
            "runs": runs,
            "summary": {name: dict(unit=units.get(name),
                                   **summarize([r["metrics"][name] for r in runs]))
                        for name in runs[0]["metrics"]},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
