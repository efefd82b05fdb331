#!/usr/bin/env python3
"""Benchmark for qnet: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout that holds `src/qnet`:

    python3 perfbench/run.py --workload paired-stable --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each run is a closed loop of one caller in one process: set-up, the pinned
unit (fixed inputs, outputs checked against `digests.json`), then
seed-drawn units one after another.  With `--trace 0` the units run for
`--seconds` in all, with the set-up probes (`setup_s`, each in a fresh
interpreter) spread among them, and the run reports the end-to-end
metrics.  Their times are in reference seconds: the run times a fixed
reference pass (`reference_s`) before and after each unit and scales the
unit's times by REFERENCE_S over the pass's time, and scales each probe
by a fixed import (`setup_probe`), so that the host's drifting speed
cancels; the unscaled unit figures are printed above the result.  With
`--trace 1` each of a fixed number of units runs untraced and then
traced, and the per-layer metrics (unscaled) come from the traced runs.
Every unit's outputs are checked.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  `--workload all` runs every workload in its own process, one
after another, and prints all their metrics.

An intended change of the pinned outputs is made by editing `digests.json`
by hand: a mismatch prints the new digest next to the pinned one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 16
# Nominal time of one reference pass (`reference_s`); it sets the scale of
# the reported times, which read as seconds on a machine that runs the
# reference in exactly REFERENCE_S.
REFERENCE_S = 0.008
REFERENCE_REPS = 5
# Set-up is import-bound and drifts with the host unlike the loop above
# (process start-up and imports ran up to 2x faster in phases in which the
# loop ran 1.45x faster), so a set-up probe is scaled by the import of
# numpy, about 80% of set-up, timed in a fresh interpreter of its own
# started right after the probe.  A change to qnet's own set-up moves the
# probe and not this import.
REFERENCE_IMPORT = "numpy"
REFERENCE_IMPORT_S = 0.15

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


@dataclass
class Sample:
    wall_s: float       # run plus check: time to the complete, checked result
    qnet_s: float       # the calls into qnet alone
    work: int
    bytes_written: int
    digests: dict       # output file (relative to the unit directory) -> sha256
    inputs: str
    steps: list         # wall_s split at the unit's pauses (the check is in the last)
    pause_refs: list    # what `between` returned at each pause


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_unit(workload, make, out_dir: Path, checks: Checks, tracer=None,
             between=None) -> Sample | None:
    """One unit: qnet calls, then the untraced check; None if qnet raised.

    A unit that is a generator yields between its steps; at each yield
    `between`, if given, runs untimed and its return value is kept.
    """
    steps, pause_refs = [], []
    t0 = perf_counter()
    try:
        result = make(str(out_dir))
        if inspect.isgenerator(result):
            steps_of = result
            while True:
                try:
                    next(steps_of)
                except StopIteration as stop:
                    result = stop.value
                    break
                if between is not None:
                    steps.append(perf_counter() - t0)
                    pause_refs.append(between())
                    t0 = perf_counter()
    except Exception as exc:  # a crash is a failed check, reported in the result
        checks.expect(False, f"{workload.name}: {type(exc).__name__}: {exc}")
        return None
    t1 = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    try:
        workload.check(result, checks)
    except Exception as exc:
        checks.expect(False, f"{workload.name} check: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.install()
    t2 = perf_counter()
    steps.append(t2 - t0)
    digests = {os.path.relpath(f, out_dir): sha256_file(f) for f in result.files}
    nbytes = sum(os.path.getsize(f) for f in result.files)
    shutil.rmtree(out_dir, ignore_errors=True)
    wall = sum(steps)
    return Sample(wall, wall - (t2 - t1), result.work, nbytes, digests, result.inputs,
                  steps, pause_refs)


def reference_s() -> float:
    """Median time of a fixed, stdlib-and-numpy-only interpreter-bound pass.

    A shared host can run Python code up to ~1.8x slower for minutes at a
    time, and nearly all of it alike: on a 2-vCPU Xeon VM, qnet's simulator,
    solvers and exact LPs drifted with a log-sd of ~0.15 over 13 s windows,
    and their ratios to this pass with ~0.07.  Timing this pass next to each
    unit and scaling the unit by REFERENCE_S / its time cancels most of that
    drift; a change to qnet moves the units and not this pass, so it shows
    in full.  The collector is off so that the size of qnet's heap does not
    reach into the pass.
    """
    import numpy as np
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            t0 = perf_counter()
            acc, memo, v = Fraction(0), {}, np.zeros(4, dtype=np.int64)
            for i in range(1, 1200):
                acc += Fraction(i % 7 + 1, i % 11 + 2)
                if acc > 50:
                    acc /= 3
                key = (i % 13, i % 17)
                memo[key] = memo.get(key, 0) + 1
                v[i % 4] += i & 3
                if v.sum() > 10**6:
                    v[:] = 0
            times.append(perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(times)


def unit_maker(workload, seed: int, k: int):
    import numpy as np
    rng = np.random.default_rng([seed, k])
    return lambda out_dir: workload.run(rng, out_dir)


def setup_probe(name: str) -> float:
    """Set-up time in a fresh interpreter (import qnet, scenarios, policies),
    scaled by the time of REFERENCE_IMPORT in another fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--setup-probe"],
                          capture_output=True, text=True, timeout=120, check=True)
    setup = float(proc.stdout.split()[-1])
    code = f"from time import perf_counter as c; t = c(); import {REFERENCE_IMPORT}; print(c() - t)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, check=True)
    return setup * REFERENCE_IMPORT_S / float(proc.stdout.split()[-1])


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run of a workload in its own process: its result and the lines before it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def check_pinned(workload, sample: Sample | None, checks: Checks):
    pinned = json.loads(DIGESTS.read_text()).get(workload.name, {}) if DIGESTS.exists() else {}
    checks.expect(bool(pinned), f"{workload.name}: no pinned digests in {DIGESTS.name}")
    got = sample.digests if sample is not None else {}
    for name in sorted(set(pinned) | set(got)):
        checks.expect(pinned.get(name) == got.get(name),
                      f"{workload.name}: digest of {name} is {got.get(name)}, "
                      f"pinned {pinned.get(name)}")


def fingerprint(samples) -> tuple[str, str]:
    inputs = hashlib.sha256("\n".join(s.inputs for s in samples).encode()).hexdigest()
    outputs = hashlib.sha256(json.dumps([s.digests for s in samples],
                                        sort_keys=True).encode()).hexdigest()
    return inputs, outputs


def end_to_end(workload, seed: int, seconds: int, out_root: Path, checks: Checks):
    """Units for `seconds` of unit time; a set-up probe each time the units
    pass another 1/SETUP_PROBES of it, so slow phases hit both alike.

    Each unit's times are scaled by REFERENCE_S over the mean of the
    reference passes timed just before and just after it, or, for a unit
    with steps, each step by the passes around that step (see
    `reference_s`); each probe is scaled on its own (see `setup_probe`).
    """
    samples, setups, refs, scales = [], [], [], []
    busy = 0.0
    ref_before = None
    while busy < seconds:
        while len(setups) < SETUP_PROBES and len(setups) * seconds <= busy * SETUP_PROBES:
            setups.append(setup_probe(workload.name))
            ref_before = None
        if ref_before is None:
            ref_before = reference_s()
        k = len(samples)
        t0 = perf_counter()
        s = run_unit(workload, unit_maker(workload, seed, k), out_root / f"u{k}", checks,
                     between=reference_s)
        busy += perf_counter() - t0
        if s is None:
            break
        ref_after = reference_s()
        rs = [ref_before, *s.pause_refs, ref_after]
        scaled = sum(t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(s.steps, rs, rs[1:]))
        scales.append(scaled / s.wall_s)
        refs += rs[1:]
        samples.append(s)
        ref_before = ref_after
    if not samples:
        return {}, samples
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"unscaled: wall_s {statistics.median(s.wall_s for s in samples):.6g}, "
          f"work_per_s {statistics.median(s.work / s.qnet_s for s in samples):.6g}; "
          f"reference pass median {statistics.median(refs):.6g} s")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(s.wall_s * c for s, c in zip(samples, scales)), "s"),
        # per-unit rates, because units differ in size (seed-drawn ray counts)
        "work_per_s": (statistics.median(s.work / (s.qnet_s * c)
                                         for s, c in zip(samples, scales)), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, samples


def per_layer(workload, seed: int, out_root: Path, checks: Checks):
    """Each unit untraced, then at once traced, so machine drift hits both."""
    plain, traced = [], []
    tracer = Tracer()
    for k in range(workload.trace_units):
        s = run_unit(workload, unit_maker(workload, seed, k), out_root / f"p{k}", checks)
        if s is not None:
            plain.append(s)
        tracer.install()
        try:
            s = run_unit(workload, unit_maker(workload, seed, k), out_root / f"t{k}",
                         checks, tracer)
        finally:
            tracer.uninstall()
        if s is not None:
            traced.append(s)
    if not plain or not traced:
        return {}, traced
    rays = sum(s.work for s in traced) if workload.work_unit == "ray" else 0
    metrics = tracer.layer_metrics(rays, sum(s.bytes_written for s in traced))
    overhead = statistics.median(s.wall_s for s in traced) - statistics.median(
        s.wall_s for s in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, traced


def print_table(title: str, metrics: dict, checks_line: str):
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34s} {shown:>14s} {unit}")
    print(f"  {checks_line}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        t0 = perf_counter()
        import qnet  # noqa: F401  (the import is part of set-up)
        workload.setup()
        print(perf_counter() - t0)
        return 0

    import qnet
    if Path(qnet.__file__).resolve().parent != (SRC / "qnet").resolve():
        print(f"error: imported qnet from {qnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload.setup()

    checks = Checks()
    out_root = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    try:
        pinned = run_unit(workload, workload.pinned, out_root / "pinned", checks)
        check_pinned(workload, pinned, checks)
        if args.trace:
            metrics, samples = per_layer(workload, args.seed, out_root, checks)
        else:
            metrics, samples = end_to_end(workload, args.seed, args.seconds, out_root, checks)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass

    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    inputs, outputs = fingerprint(samples)
    print(f"units {len(samples)}, wall_s " + " ".join(f"{s.wall_s:.4f}" for s in samples))
    print(f"inputs sha256:{inputs}")
    print(f"outputs sha256:{outputs}")
    error_rate = checks.failed / max(checks.attempted, 1)
    print_table(f"{workload.name} (seed {args.seed}, trace {args.trace})", metrics,
                f"error_rate {error_rate:.6g} (1): {checks.failed} of "
                f"{checks.attempted} checks failed")
    result = {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            result, lines = bench(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qnet" / "__init__.py").is_file():
        print(f"error: no qnet sources under {SRC}; run from a qnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
