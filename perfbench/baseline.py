#!/usr/bin/env python3
"""Record the benchmark baseline of the current checkout.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--out perfbench/baseline.json]

Runs every workload untraced once per seed and traced once (first seed),
one run at a time, for BENCHMARK.json's `run_seconds`.  Writes the
environment (commit, Python and numpy versions, nproc), and per workload
each end-to-end metric's values, median and spread (the distance between
the first and third quartile as a share of the median), and the traced
run's per-layer metrics, `trace.overhead_s` among them.  Exits 1 if any
run is incorrect.
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

from run import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the qnet benchmark baseline")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    out = {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "run_seconds": BENCHMARK["run_seconds"], "seeds": seeds, "workloads": {}}
    correct = True
    for w in BENCHMARK["workloads"]:
        name = w["name"]
        seconds = BENCHMARK["run_seconds"]
        runs = [bench(name, seed, seconds, 0)[0] for seed in seeds]
        traced = bench(name, seeds[0], seconds, 1)[0]
        correct &= all(r["correct"] for r in runs + [traced])
        e2e = {}
        for m in BENCHMARK["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                              "spread": spread(values), "values": values}
            print(f"{name} {m['name']}: median {e2e[m['name']]['median']:.6g} {m['unit']}, "
                  f"spread {e2e[m['name']]['spread']:.4f}", flush=True)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "checks": {"attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs)},
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
        }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
