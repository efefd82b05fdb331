"""Per-layer tracing of `qnet` from outside the package.

`Tracer.install()` replaces the public functions that one `qnet` module
calls in another with timing wrappers, patched in the namespace of the
caller (for example `qnet.policies.build_bip`, so that only the calls the
policies make are seen).  Each call is a span with a layer, a name and a
parent; the tracer keeps per-span counts, inclusive time, self time (the
span minus its direct children) and busy time per layer (spans whose parent
belongs to another layer), plus per-call durations for the percentiles.
`uninstall()` restores every patched attribute.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from time import perf_counter


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.busy = defaultdict(float)
        self.durations = defaultdict(lambda: array("d"))
        self.bb_nodes = 0
        self._stack: list[list] = []   # [layer, time covered by direct children]
        self._patches: list[tuple] = []

    def _span(self, layer: str, name: str, fn, on_result=None):
        key = f"{layer}.{name}"
        stack = self._stack
        count, total, self_time = self.count, self.total, self.self_time
        busy, durations = self.busy, self.durations[key]

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                count[key] += 1
                total[key] += dur
                self_time[key] += dur - frame[1]
                durations.append(dur)
                if stack:
                    stack[-1][1] += dur
                if not stack or stack[-1][0] != layer:
                    busy[layer] += dur
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _patch(self, owner, attr: str, layer: str, name: str, on_result=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._span(layer, name, original, on_result))

    def _lp(self, fn):
        """solve_lp, split into float and exact calls by its `exact` flag."""
        float_span = self._span("optim", "lp_float", fn)
        exact_span = self._span("optim", "lp_exact", fn)

        def solve_lp(problem, exact=False, **kwargs):
            span = exact_span if exact else float_span
            return span(problem, exact=exact, **kwargs)
        return solve_lp

    def _count_nodes(self, sol):
        self.bb_nodes += sol.nodes

    def install(self):
        from qnet import dynamics, harness, model, optim, policies, predictor, stability

        self._patch(harness, "run", "dynamics", "run")
        self._patch(dynamics, "step", "dynamics", "step")
        self._patch(model.ArrivalProcess, "sample", "model", "arrivals_sample")
        self._patch(dynamics, "sample_next", "markov", "sample_next")
        self._patch(predictor, "propagate", "markov", "propagate")
        self._patch(policies.PncPolicy, "decide", "policies", "decide")
        self._patch(policies.FpncPolicy, "decide", "policies", "decide")
        self._patch(policies, "repair_control", "policies", "repair_control")
        self._patch(policies, "build_bip", "predictor", "build_bip")
        self._patch(policies, "solve_bip", "optim", "solve_bip", self._count_nodes)
        self._patch(policies, "solve_bip_exhaustive", "optim", "solve_bip_exhaustive")
        for owner in (optim, stability):
            original = owner.solve_lp
            self._patches.append((owner, "solve_lp", original))
            owner.solve_lp = self._lp(original)
        self._patch(stability, "region_membership", "stability", "region_membership")
        self._patch(harness, "assess_stability", "stability", "assess_stability")
        self._patch(harness, "trace_to_csv", "harness", "csv")
        self._patch(harness.ExperimentResult, "summary_csv", "harness", "csv")
        self._patch(harness, "region_rows_to_csv", "harness", "csv")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, rays: int, bytes_written: int) -> dict:
        """The per-layer metrics, keyed `<module>.<metric>`, with their units."""
        c, t, st, d = self.count, self.total, self.self_time, self.durations

        def p(key, q, scale):
            return percentile(d[key], q) * scale

        decisions = c["policies.decide"]
        solves = c["predictor.build_bip"]
        return {
            "dynamics.slots": (c["dynamics.step"], "count"),
            "dynamics.self_s": (st["dynamics.run"] + st["dynamics.step"], "s"),
            "dynamics.step_us.p50": (p("dynamics.step", 50, 1e6), "us"),
            "dynamics.step_us.p99": (p("dynamics.step", 99, 1e6), "us"),
            "model.arrivals_sample_s": (t["model.arrivals_sample"], "s"),
            "markov.sample_next_s": (t["markov.sample_next"], "s"),
            "markov.propagate_calls": (c["markov.propagate"], "count"),
            "policies.decisions": (decisions, "count"),
            "policies.solves": (solves, "count"),
            "policies.memo_hit_ratio": (1.0 - solves / decisions if decisions else 0.0, "ratio"),
            "policies.decide_us.p50": (p("policies.decide", 50, 1e6), "us"),
            "policies.decide_us.p99": (p("policies.decide", 99, 1e6), "us"),
            "policies.self_s": (st["policies.decide"] + st["policies.repair_control"], "s"),
            "policies.exhaustive_fallbacks": (c["optim.solve_bip_exhaustive"], "count"),
            "policies.repair_calls": (c["policies.repair_control"], "count"),
            "predictor.build_bip_calls": (solves, "count"),
            "predictor.build_bip_us.p50": (p("predictor.build_bip", 50, 1e6), "us"),
            "predictor.build_bip_us.p99": (p("predictor.build_bip", 99, 1e6), "us"),
            "predictor.busy_s": (self.busy["predictor"], "s"),
            "optim.solve_bip_calls": (c["optim.solve_bip"], "count"),
            "optim.solve_bip_us.p50": (p("optim.solve_bip", 50, 1e6), "us"),
            "optim.solve_bip_us.p99": (p("optim.solve_bip", 99, 1e6), "us"),
            "optim.bb_nodes": (self.bb_nodes, "count"),
            "optim.lp_float_calls": (c["optim.lp_float"], "count"),
            "optim.lp_float_s": (t["optim.lp_float"], "s"),
            "optim.lp_exact_calls": (c["optim.lp_exact"], "count"),
            "optim.lp_exact_ms.p50": (p("optim.lp_exact", 50, 1e3), "ms"),
            "optim.busy_s": (self.busy["optim"], "s"),
            "stability.membership_calls": (c["stability.region_membership"], "count"),
            "stability.membership_per_ray": (
                c["stability.region_membership"] / rays if rays else 0.0, "ratio"),
            "stability.assess_s": (t["stability.assess_stability"], "s"),
            "harness.csv_s": (t["harness.csv"], "s"),
            "harness.bytes_written": (bytes_written, "bytes"),
        }
