#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload, three traced runs: two with the same seed, one with the
next seed.  The test passes when

  - every run is correct, with no failed check, and reports exactly the
    per-layer metrics that BENCHMARK.json lists, with their units;
  - the two same-seed runs agree exactly on every count (decisions, solves,
    branch-and-bound nodes, LP calls, membership calls, ...) and on the
    digests of every output file, and draw the same inputs;
  - the other seed draws different inputs.

A short untraced run per workload also checks the end-to-end metric set.
Exits 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import bench

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced(workload: str, seed: int) -> dict:
    """A traced run's result, with its `inputs` and `outputs` fingerprints."""
    out, lines = bench(workload, seed, 1, 1)
    for line in lines:
        if line.startswith(("inputs ", "outputs ")):
            key, value = line.split(" ", 1)
            out[key] = value
    return out


def expected_metrics(trace: int) -> dict:
    group = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description="self-test of the qnet benchmark")
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    failures = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def valid(run: dict, trace: int, tag: str):
        expect(run["correct"] and run["failed"] == 0 and run["attempted"] > 0,
               f"{tag}: correct, {run['failed']} of {run['attempted']} checks failed")
        units = {k: v["unit"] for k, v in run["metrics"].items()}
        expect(units == expected_metrics(trace), f"{tag}: metric names and units as listed")

    for name in args.workload:
        valid(bench(name, args.seed, 1, 0)[0], 0, f"{name} untraced")
        a = traced(name, args.seed)
        b = traced(name, args.seed)
        c = traced(name, args.seed + 1)
        for tag, run in (("a", a), ("b", b), ("c", c)):
            valid(run, 1, f"{name} traced run {tag}")
        counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
        diff = [k for k in counts if a["metrics"][k] != b["metrics"].get(k)]
        expect(not diff, f"{name}: same seed, identical counts {diff or ''}")
        expect(a["inputs"] == b["inputs"], f"{name}: same seed, same inputs")
        expect(a["outputs"] == b["outputs"], f"{name}: same seed, identical output digests")
        expect(a["inputs"] != c["inputs"], f"{name}: other seed, other inputs")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
