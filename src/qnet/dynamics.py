"""Stochastic one-step evolution and full simulation traces.

A run consumes three named RNG streams (link successes, arrivals, chain)
seeded independently from (seed, replication, stream), so swapping the
policy never perturbs the stochastic environment: paired policy comparisons
see identical arrival and chain realizations slot by slot.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import PolicyContractError
from .markov import MarkovChain, sample_next
from .model import ArrivalProcess, Network

STREAM_IDS = {"links": 0, "arrivals": 1, "chain": 2, "policy": 3}


@dataclass
class RngStreams:
    links: np.random.Generator
    arrivals: np.random.Generator
    chain: np.random.Generator
    policy: np.random.Generator


def make_streams(seed: int, replication: int = 0) -> RngStreams:
    def gen(name):
        ss = np.random.SeedSequence(entropy=(int(seed), int(replication), STREAM_IDS[name]))
        return np.random.Generator(np.random.Philox(ss))
    return RngStreams(*(gen(n) for n in ("links", "arrivals", "chain", "policy")))


@dataclass
class SimState:
    t: int
    q: np.ndarray
    s: int


@dataclass
class StepRecord:
    t: int
    s: int
    q_before: np.ndarray
    v: np.ndarray
    m: np.ndarray
    a: np.ndarray
    q_after: np.ndarray
    delivered: int


@dataclass
class Feasibility:
    ok: bool
    family: str | None = None   # constituency | positiveness | source
    index: int | None = None

    def __bool__(self):
        return self.ok


def check_feasible(net: Network, q, v) -> Feasibility:
    """Constituency, positiveness and source-requirement check; never raises."""
    v = np.asarray(v)
    lhs = net.C @ v
    over = lhs > net.c
    if over.any():
        return Feasibility(False, "constituency", int(np.argmax(over)))
    drained = q + net.R_minus @ v
    neg = drained < 0
    if neg.any():
        return Feasibility(False, "positiveness", int(np.argmax(neg)))
    for j in np.flatnonzero(v):
        if ((net.S_req[:, j] == 1) & (np.asarray(q) < 1)).any():
            return Feasibility(False, "source", int(j))
    return Feasibility(True)


def step(net: Network, arrivals: ArrivalProcess, chain: MarkovChain,
         state: SimState, v, streams: RngStreams) -> tuple[SimState, StepRecord]:
    """One slot:  q' = q + R diag(m) v + a,  s' ~ chain row s.

    Coin flips are drawn per activated link only, in ascending link order;
    non-activated links record m = 0.
    """
    v = np.asarray(v, dtype=np.int64)
    feas = check_feasible(net, state.q, v)
    if not feas:
        raise PolicyContractError(
            f"infeasible control at t={state.t}: {feas.family} violation at index {feas.index}",
            diagnostic=StepRecord(state.t, state.s, state.q.copy(), v.copy(),
                                  np.zeros(net.n_v, dtype=np.int64),
                                  np.zeros(net.n_q, dtype=np.int64),
                                  state.q.copy(), 0))
    m = np.zeros(net.n_v, dtype=np.int64)
    for j in np.flatnonzero(v):
        w = net.W[state.s, j]
        if w >= 1.0:
            m[j] = 1
        elif w > 0.0:
            m[j] = 1 if streams.links.random() < w else 0
        # w == 0: certain failure, no draw
    a = arrivals.sample(state.t, streams.arrivals)
    q_after = state.q + net.R @ (m * v) + a
    s_next = sample_next(state.s, chain.P, streams.chain)
    delivered = int((m * v * net.delivery).sum())
    rec = StepRecord(state.t, state.s, state.q.copy(), v, m, a, q_after.copy(), delivered)
    return SimState(state.t + 1, q_after, s_next), rec


@dataclass
class Trace:
    records: list[StepRecord] = field(default_factory=list)

    @property
    def slots(self) -> int:
        return len(self.records)

    def total_queue_series(self) -> np.ndarray:
        return np.array([rec.q_after.sum() for rec in self.records], dtype=np.int64)

    def cumulative_arrivals(self) -> int:
        return int(sum(rec.a.sum() for rec in self.records))

    def cumulative_delivered(self) -> int:
        return int(sum(rec.delivered for rec in self.records))

    def time_avg_total_queue(self) -> float:
        series = self.total_queue_series()
        return float(series.mean()) if len(series) else 0.0

    def delivered_fraction(self) -> float:
        arr = self.cumulative_arrivals()
        return self.cumulative_delivered() / arr if arr else 0.0


def run(net: Network, chain: MarkovChain, arrivals: ArrivalProcess, policy,
        slots: int, streams: RngStreams, q0=None) -> Trace:
    """Drive the network for `slots` slots under `policy`.

    The start state is `chain.s0`, or else drawn from `chain.sigma0`.  The
    policy is consulted once per slot with (q_t, s_t).  An infeasible
    policy decision aborts the run with the diagnostic attached.  Identical
    inputs, streams seeded alike, reproduce the trace bit for bit.
    """
    q = np.zeros(net.n_q, dtype=np.int64) if q0 is None else np.asarray(q0, dtype=np.int64).copy()
    if (q < 0).any():
        raise ValueError("initial queue state must be nonnegative")
    # a sigma0 start state takes one chain-stream uniform; a fixed s0 takes none
    s = chain.s0 if chain.s0 is not None else sample_next(0, chain.sigma0[None, :], streams.chain)
    state = SimState(0, q, s)
    trace = Trace()
    # one-slot change bounds; summing them gives the window bounds
    lo = -np.full(net.n_q, net.n_v, dtype=np.int64)
    hi = np.full(net.n_q, net.n_v, dtype=np.int64) + net.a_hat
    for _ in range(slots):
        v = policy.decide(state.q, state.s)
        state, rec = step(net, arrivals, chain, state, v, streams)
        delta = rec.q_after - rec.q_before
        if (delta < lo).any() or (delta > hi).any() or (rec.q_after < 0).any():
            raise AssertionError(f"state-evolution invariant violated at t={rec.t}")
        trace.records.append(rec)
    return trace


# ---------------------------------------------------------------------------
# Trace serialization

def trace_csv_header(net: Network) -> str:
    cols = ["t", "s"]
    cols += [f"q_{i + 1}" for i in range(net.n_q)]
    cols += [f"v_{j + 1}" for j in range(net.n_v)]
    cols += [f"m_{j + 1}" for j in range(net.n_v)]
    cols += [f"a_{i + 1}" for i in range(net.n_q)]
    cols.append("delivered")
    return ",".join(cols)


def trace_to_csv(trace: Trace, net: Network) -> str:
    """One row per slot; queue columns show the post-slot state."""
    buf = io.StringIO()
    buf.write(trace_csv_header(net) + "\n")
    for rec in trace.records:
        cells = [rec.t, rec.s, *rec.q_after, *rec.v, *rec.m, *rec.a, rec.delivered]
        buf.write(",".join(str(int(x)) for x in cells) + "\n")
    return buf.getvalue()
