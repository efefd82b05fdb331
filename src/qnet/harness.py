"""Experiment orchestration: runs, summaries, region sweeps, file emission."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dynamics import Trace, make_streams, run, trace_to_csv
from .errors import PolicyContractError, ValidationError
from .model import count_listed_controls
from .policies import PolicySpec, make_policy
from .scenarios import Scenario
from .stability import (MIN_ASSESS_SLOTS, RegionQuery, assess_stability,
                        mw_accessible_options, region_rows_to_csv, region_slice)

SUMMARY_HEADER = ("scenario,policy,replication,seed,slots,arrivals,delivered,"
                  "delivered_fraction,mean_total_queue,slope,verdict")


@dataclass
class RunResult:
    policy: str
    replication: int
    trace: Trace | None
    verdict: str
    slope: float
    error: str | None = None


@dataclass(eq=False)
class ExperimentResult:
    scenario: Scenario
    runs: list[RunResult] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def summary_csv(self) -> str:
        lines = [SUMMARY_HEADER]
        for r in self.runs:
            if r.trace is None:
                lines.append(f"{self.scenario.name},{r.policy},{r.replication},"
                             f"{self.scenario.seed},0,0,0,0.0,0.0,0.0,aborted")
                continue
            tr = r.trace
            lines.append(",".join([
                self.scenario.name, r.policy, str(r.replication), str(self.scenario.seed),
                str(tr.slots), str(tr.cumulative_arrivals()), str(tr.cumulative_delivered()),
                repr(tr.delivered_fraction()), repr(tr.time_avg_total_queue()),
                repr(r.slope), r.verdict,
            ]))
        return "\n".join(lines) + "\n"


def run_one(scenario: Scenario, spec: PolicySpec, replication: int) -> RunResult:
    """One (policy, replication) simulation with its own rng streams."""
    streams = make_streams(scenario.seed, replication)
    policy = make_policy(spec, scenario.net, scenario.chain, scenario.arrivals,
                         policy_rng=streams.policy)
    try:
        trace = run(scenario.net, scenario.chain, scenario.arrivals, policy,
                    scenario.slots, streams, q0=scenario.q0)
    except PolicyContractError as exc:
        return RunResult(spec.name, replication, None, "aborted", 0.0, error=str(exc))
    if trace.slots < MIN_ASSESS_SLOTS:
        return RunResult(spec.name, replication, trace, "inconclusive", 0.0)
    verdict = assess_stability(trace)
    return RunResult(spec.name, replication, trace, verdict.classification, verdict.slope)


def run_experiment(scenario: Scenario, out_dir: str | None = None,
                   policies: list[PolicySpec] | None = None) -> ExperimentResult:
    """All (policy, replication) runs plus summary; optionally writes CSVs."""
    result = ExperimentResult(scenario)
    specs = policies if policies is not None else scenario.policies
    for spec in specs:
        for rep in range(scenario.replications):
            result.runs.append(run_one(scenario, spec, rep))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for r in result.runs:
            if r.trace is None:
                continue
            path = os.path.join(out_dir, f"{scenario.name}__{r.policy}__rep{r.replication}.csv")
            with open(path, "w") as fh:
                fh.write(trace_to_csv(r.trace, scenario.net))
            result.files.append(path)
        spath = os.path.join(out_dir, f"{scenario.name}__summary.csv")
        with open(spath, "w") as fh:
            fh.write(result.summary_csv())
        result.files.append(spath)
    return result


DEFAULT_RAY_COUNT = 13


def region_rows(scenario: Scenario, option_set: str = "full",
                n_rays: int = DEFAULT_RAY_COUNT) -> list[dict]:
    """Boundary polyline of the scenario's stability region in its scaled units.

    `n_rays` < 1 raises `ValueError` first.  A network other than a one-state,
    two-queue plane whose controls `count_listed_controls` admits fails with
    `ValidationError` before any control is listed.
    """
    if n_rays < 1:
        raise ValueError(f"expected a positive ray count, got {n_rays}")
    net = scenario.net
    if net.n_q != 2:
        raise ValidationError("network.R", "region sweeps are defined for two-queue arrival "
                                           f"planes, got {net.n_q} queues")
    count_listed_controls(net, "a region sweep")
    if net.n_s != 1:
        raise ValidationError("chain.P", "region sweeps need stationary weights, which are "
                                         f"not derived yet for {net.n_s} chain states")
    options = None
    if option_set == "mw":
        options = mw_accessible_options(net)
    elif option_set != "full":
        raise ValueError(f"unknown option set {option_set!r}; expected full or mw")
    query = RegionQuery(net=net, a_bar=(Fraction(0), Fraction(0)),
                        options=options, effect_scale=scenario.region_scale)
    directions = []
    for k in range(n_rays):
        theta = (np.pi / 2) * k / (n_rays - 1) if n_rays > 1 else 0.0
        dx = Fraction(repr(round(float(np.cos(theta)), 6)))
        dy = Fraction(repr(round(float(np.sin(theta)), 6)))
        directions.append((dx, dy))
    return region_slice(query, directions)


def write_region_csv(scenario: Scenario, option_set: str, out_dir: str,
                     n_rays: int = DEFAULT_RAY_COUNT) -> str:
    rows = region_rows(scenario, option_set, n_rays)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{scenario.name}__region_{option_set}.csv")
    with open(path, "w") as fh:
        fh.write(region_rows_to_csv(rows))
    return path
