"""Stochastic one-step evolution and full simulation traces.

A run consumes three named RNG streams (link successes, arrivals, chain)
seeded independently from (seed, replication, stream), so swapping the
policy never perturbs the stochastic environment: paired policy comparisons
see identical arrival and chain realizations slot by slot.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Number
from operator import add, ge
from typing import NamedTuple

import numpy as np

from .errors import PolicyContractError
from .markov import MarkovChain, next_states, sample_next
from .model import ArrivalProcess, Network, _as_array, queue_need

STREAM_IDS = {"links": 0, "arrivals": 1, "chain": 2, "policy": 3}
# Entries of `step`'s memo per run.  An entry takes about 2.4 kB with
# eight active links, and a policy that picks among 2^16 controls could
# otherwise add one per slot; past the limit a new control is checked
# every slot it is used.
MAX_ADMITTED = 1 << 12


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


@dataclass(eq=False)
class StepRecord:
    """One slot as arrays: a rejected control's diagnostic, or a row of a
    `Trace` read through `trace.records`."""
    t: int
    s: int
    q_before: np.ndarray
    v: np.ndarray
    m: np.ndarray
    a: np.ndarray
    q_after: np.ndarray
    delivered: int


@dataclass(frozen=True)
class Feasibility:
    ok: bool
    family: str | None = None   # binary | constituency | positiveness | source
    index: int | None = None    # None when v is not a vector of length n_v

    def __bool__(self):
        return self.ok


FEASIBLE = Feasibility(True)


def _as_control(v) -> np.ndarray:
    """v as an array; a ragged v, which numpy cannot read as numbers, as a
    vector of its entries."""
    try:
        return np.asarray(v)
    except ValueError:
        return np.fromiter(v, dtype=object)


def _first_non_binary(values: list) -> int | None:
    """Index of the first entry that is not the number 0 or 1, else None."""
    for j, x in enumerate(values):
        if not (isinstance(x, Number) and (x == 0 or x == 1)):
            return j
    return None


def check_feasible(net: Network, q, v) -> Feasibility:
    """Binary, constituency, positiveness and source-requirement check.

    A violation reports the first family that fails, in that order, and the
    first violated entry (binary: the first entry that is not the number 0
    or 1, or None when v is not a vector of length n_v), row (constituency,
    positiveness) or link (source).  Any array-like control, a ragged one
    included, gets a verdict; only a queue state that is not a vector of length n_q raises `ValueError`.
    """
    q = np.asarray(q)
    if q.shape != (net.n_q,):
        raise ValueError(f"queue state must have shape ({net.n_q},), got {q.shape}")
    v = _as_control(v)
    if v.shape != (net.n_v,):
        return Feasibility(False, "binary", None)
    bad = _first_non_binary(v.tolist())
    if bad is not None:
        return Feasibility(False, "binary", bad)
    v = np.asarray(v, dtype=np.int64)
    starved = (v != 0) & ((q < 1) @ net.S_req > 0)
    for family, bad in (("constituency", net.C @ v > net.c),
                        ("positiveness", q + net.R_minus @ v < 0),
                        ("source", starved)):
        if bad.any():
            return Feasibility(False, family, int(np.argmax(bad)))
    return FEASIBLE


class _Admitted(NamedTuple):
    """What a slot reads of a control that `check_feasible` has accepted."""
    v: tuple         # the control, one int per link
    need: list       # queue_need, one int per queue
    links: list      # active links, ascending
    cols: list       # per active link, its R column as (queue, entry) pairs, nonzeros only
    delivery: list   # per active link, packets delivered on success
    W: list          # per chain state, the active links' success probabilities


def _admit(net: Network, v: np.ndarray) -> _Admitted:
    links = v.nonzero()[0].tolist()
    return _Admitted(tuple(v.tolist()), queue_need(net, v).tolist(), links,
                     [[(i, r) for i, r in enumerate(col) if r] for col in net.R.T[links].tolist()],
                     net.delivery[links].tolist(), net.W[:, links].tolist())


def step(net: Network, t: int, q: tuple, s: int, v, a, links: np.random.Generator,
         admitted: dict) -> tuple[tuple, tuple, list, int]:
    """Slot t at chain state s:  q' = q + R diag(m) v + a.

    q is the queue state before the slot, a tuple of n_q ints, and `a` the
    slot's drawn arrivals, n_q ints.  Returns (q', v, m, delivered) as
    Python values: q' a tuple, v the admitted control as a tuple of ints,
    m the link successes as a list.  Coin flips are drawn from `links` per
    activated link only, in ascending link order; non-activated links get
    m = 0.  A control that is not a feasible 0/1 vector of length n_v
    raises `PolicyContractError`, with the slot as a `StepRecord`.

    An int64 control of shape (n_v,) that `check_feasible` has accepted once
    enters `admitted`, the run's memo of admitted controls, which is filled
    as controls are first seen and holds at most MAX_ADMITTED of them; it is
    accepted again whenever q >= its queue need.  Anything else, a shortfall
    included, goes to `check_feasible`, which accepts it or names the
    violation.
    """
    key = (v.tobytes() if isinstance(v, np.ndarray) and v.dtype == np.int64
           and v.shape == (net.n_v,) else None)
    entry = admitted.get(key)
    if entry is None or len(q) != net.n_q or not all(map(ge, q, entry.need)):
        feas = check_feasible(net, q, v)
        if not feas:
            raise PolicyContractError(
                f"infeasible control at t={t}: {feas.family} violation at index {feas.index}",
                diagnostic=StepRecord(t, s, np.array(q), _as_control(v).copy(),
                                      np.zeros(net.n_v, dtype=np.int64),
                                      np.zeros(net.n_q, dtype=np.int64), np.array(q), 0))
        entry = _admit(net, np.asarray(v, dtype=np.int64))
        if key is not None and len(admitted) < MAX_ADMITTED:
            admitted[key] = entry
    # the slot on Python ints: a few links and queues
    m = [0] * net.n_v
    delivered = 0
    q_after = list(map(add, q, a))
    for j, w, col, d in zip(entry.links, entry.W[s], entry.cols, entry.delivery):
        # w == 1: certain success, w == 0: certain failure, neither draws
        if w >= 1.0 or w > 0.0 and links.random() < w:
            m[j] = 1
            delivered += d
            for i, r in col:
                q_after[i] += r
    return tuple(q_after), entry.v, m, delivered


@dataclass(eq=False)
class Trace:
    """A run's slots as columns: row t of each (slots, ...) array is slot t.

    Arrays are read-only once the run returns.
    """
    q0: np.ndarray   # queues before slot 0, (n_q,)
    S: np.ndarray    # chain state, (slots,)
    Q: np.ndarray    # queues after the slot, (slots, n_q)
    V: np.ndarray    # control, (slots, n_v)
    M: np.ndarray    # link successes, (slots, n_v)
    A: np.ndarray    # arrivals, (slots, n_q)
    D: np.ndarray    # packets delivered, (slots,)

    @property
    def slots(self) -> int:
        return len(self.S)

    @property
    def records(self) -> Sequence[StepRecord]:
        """The slots as `StepRecord`s, built on access from the columns.

        A fresh view each time: the trace holds no reference to it, so the
        two form no cycle and a dropped trace frees its arrays at once.
        """
        return _Records(self)

    def total_queue_series(self) -> np.ndarray:
        return self.Q.sum(axis=1)

    def cumulative_arrivals(self) -> int:
        return int(self.A.sum())

    def cumulative_delivered(self) -> int:
        return int(self.D.sum())

    def time_avg_total_queue(self) -> float:
        series = self.total_queue_series()
        return float(series.mean()) if len(series) else 0.0

    def delivered_fraction(self) -> float:
        arr = self.cumulative_arrivals()
        return self.cumulative_delivered() / arr if arr else 0.0


class _Records(Sequence):
    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.slots

    def __getitem__(self, t: int) -> StepRecord:
        tr = self._trace
        if not -tr.slots <= t < tr.slots:
            raise IndexError(f"slot {t} outside a trace of {tr.slots} slots")
        t %= tr.slots
        q_before = tr.Q[t - 1] if t else tr.q0
        return StepRecord(t, int(tr.S[t]), q_before, tr.V[t], tr.M[t], tr.A[t], tr.Q[t],
                          int(tr.D[t]))


def _column(buf: array, *shape: int) -> np.ndarray:
    """An int64 column over the buffer, without a copy."""
    return np.frombuffer(buf, dtype=np.int64).reshape(shape)


def run(net: Network, chain: MarkovChain, arrivals: ArrivalProcess, policy,
        slots: int, streams: RngStreams, q0=None) -> Trace:
    """Drive the network for `slots` slots under `policy`.

    The start state is `chain.s0`, or else drawn from `chain.sigma0`.  The
    chain path and the arrivals are drawn for the whole run up front, one
    uniform per slot and one per queue per slot, the same draws a slot at a
    time would take.  The policy is consulted once per slot with (q_t, s_t),
    q_t a tuple of ints, after its `reset()` if it has one.  An infeasible
    policy decision aborts the run with the diagnostic attached.  `q0`, n_q
    nonnegative integers (zeros if None), is checked as the scenario field
    is, and copied.  Each run passes `step` a memo of its own, so runs on one
    network share nothing.  Identical inputs, streams seeded alike, reproduce
    the trace bit for bit.
    """
    q0 = (np.zeros(net.n_q, dtype=np.int64) if q0 is None
          else _as_array(q0, "q0", shape=(net.n_q,), lo=0).copy())
    if hasattr(policy, "reset"):
        policy.reset()
    # a sigma0 start state takes one chain-stream uniform; a fixed s0 takes none
    s = chain.s0 if chain.s0 is not None else sample_next(0, chain.sigma0[None, :], streams.chain)
    path = [s] + next_states(s, chain.P, streams.chain.random(slots).tolist())
    A = arrivals.sample_slots(0, slots, streams.arrivals)
    # each slot's arrivals as a tuple of ints, read in turn from A's buffer
    arrived = zip(*[iter(memoryview(A.ravel()))] * net.n_q)
    # the columns Q, V, M and D, row after row
    Q, V, M, D = array("q"), array("q"), array("q"), array("q")
    # one-slot change bounds, per queue; summing them gives the window bounds
    lo = -net.n_v
    hi = (net.n_v + net.a_hat).tolist()
    q = tuple(q0.tolist())
    admitted = {}
    for t, s, a in zip(range(slots), path, arrived):
        q_after, v, m, delivered = step(net, t, q, s, policy.decide(q, s), a, streams.links,
                                        admitted)
        if not all(after >= 0 and lo <= after - before <= h
                   for after, before, h in zip(q_after, q, hi)):
            raise AssertionError(f"state-evolution invariant violated at t={t}")
        Q.extend(q_after)
        V.extend(v)
        M.extend(m)
        D.append(delivered)
        q = q_after
    trace = Trace(q0=q0, S=np.array(path[:-1], dtype=np.int64), Q=_column(Q, slots, net.n_q),
                  V=_column(V, slots, net.n_v), M=_column(M, slots, net.n_v), A=A,
                  D=_column(D, slots))
    for arr in (trace.q0, trace.S, trace.Q, trace.V, trace.M, trace.A, trace.D):
        arr.setflags(write=False)
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
    rows = np.column_stack((np.arange(trace.slots), trace.S, trace.Q, trace.V, trace.M,
                            trace.A, trace.D)).tolist()
    row = ",".join(["%d"] * (3 + 2 * (net.n_q + net.n_v)))
    lines = [trace_csv_header(net)] + [row % tuple(r) for r in rows]
    return "\n".join(lines) + "\n"
