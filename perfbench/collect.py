#!/usr/bin/env python3
"""Run the benchmark over several seeds, one run at a time, and summarise it.

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 \\
        --out perfbench/results/BENCH_example.json

For each workload every end-to-end metric gets its ten (or however many)
values, their median, quartiles and spread (interquartile range over the
median). With --trace-seed, one traced run per workload adds the per-layer
metrics. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    report = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "run_seconds": BENCH["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in BENCH["workloads"]):
        results = [run(workload, seed, 0) for seed in seed_list(args.seeds)]
        entry = {
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"] for r in results]),
                                unit=m["unit"], bound=m["bound"])
                for m in BENCH["end_to_end"]
            },
        }
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "per_layer": traced["metrics"]}
        report["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:16s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
