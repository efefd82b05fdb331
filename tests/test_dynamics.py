"""One-step evolution, feasibility checks, traces, serialization."""

import dataclasses
import gc
import itertools
import time
import weakref

import numpy as np
import pytest

from qnet import dynamics
from qnet.dynamics import (MAX_ADMITTED, Trace, check_feasible, make_streams, run, step,
                           trace_csv_header, trace_to_csv)
from qnet.errors import PolicyContractError
from qnet.markov import validate_chain
from qnet.model import (Network, count_controls, enumerate_control_set, validate_arrivals,
                        validate_network)
from qnet.optim import binary_chunks
from qnet.policies import IdlePolicy, PolicySpec, RandomPolicy, make_policy
from qnet.scenarios import scenario_example2

from conftest import random_chain, random_network, zero_arrivals

RELAY = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                          "W": [[1.0, 1.0]]})
ONE_STATE = validate_chain({"P": [[1.0]], "s0": 0})


def test_check_feasible_examples():
    assert check_feasible(RELAY, [0, 1], [0, 1]).ok
    res = check_feasible(RELAY, [1, 0], [0, 1])
    assert not res.ok and res.family == "positiveness" and res.index == 1
    assert check_feasible(RELAY, [0, 0], [0, 0]).ok
    res = check_feasible(RELAY, [5, 5], [1, 1])
    assert res.ok


def test_check_feasible_constituency():
    net = validate_network({"R": [[-1, -1]], "C": [[1, 1]], "c": [1], "W": [[1.0, 1.0]]})
    res = check_feasible(net, [5], [1, 1])
    assert not res.ok and res.family == "constituency" and res.index == 0


def test_check_feasible_source_requirement():
    net = validate_network({"R": [[-1, 0, -1], [0, 1, -1]], "C": [[1, 1, 1]], "c": [1],
                            "W": [[0.25, 1.0, 1.0]], "S_req": [[0, 1, 0], [0, 0, 0]]})
    res = check_feasible(net, [0, 3], [0, 1, 0])
    assert not res.ok and res.family == "source" and res.index == 1
    assert check_feasible(net, [1, 3], [0, 1, 0]).ok


def test_step_certain_success():
    arr = validate_arrivals({"kind": "constant", "value": [0, 0]}, 2)
    streams = make_streams(0)
    q_after, _, _, delivered = step(RELAY, 0, (1, 1), 0, [1, 1],
                                    arr.sample(0, streams.arrivals).tolist(), streams.links, {})
    assert q_after == (0, 1)
    assert delivered == 1


def test_step_idle_keeps_queues():
    arr = validate_arrivals({"kind": "constant", "value": [1, 0]}, 2)
    streams = make_streams(0)
    q_after, _, m, _ = step(RELAY, 0, (3, 2), 0, [0, 0], arr.sample(0, streams.arrivals).tolist(),
                            streams.links, {})
    assert q_after == (4, 2)
    assert m == [0, 0]


def test_step_rejects_infeasible():
    arr = zero_arrivals(2)
    with pytest.raises(PolicyContractError):
        step(RELAY, 0, (0, 0), 0, [1, 0], arr.sample(0, None).tolist(), make_streams(0).links,
             {})


def test_step_record_identity(rng):
    # q_after - q_before == R diag(m) v + a, exactly, on random feasible steps
    for _ in range(50):
        net = random_network(rng)
        arr = validate_arrivals({"kind": "constant",
                                 "value": rng.integers(0, 3, size=net.n_q).tolist()}, net.n_q)
        q = rng.integers(0, 5, size=net.n_q)
        vs = [v for v in enumerate_control_set(net) if check_feasible(net, q, v).ok]
        v = vs[rng.integers(len(vs))]
        a = arr.sample(0, None)
        q_after, v, m = map(np.array, step(net, 0, tuple(q.tolist()), 0, v, a.tolist(),
                                           make_streams(int(rng.integers(1000))).links, {})[:3])
        assert np.array_equal(q_after - q, net.R @ (m * v) + a)
        assert (m[v == 0] == 0).all()


def test_run_idle_zero_arrivals_constant():
    trace = run(RELAY, ONE_STATE, zero_arrivals(2), IdlePolicy(RELAY), 100,
                make_streams(1), q0=[2, 3])
    series = trace.total_queue_series()
    assert (series == 5).all()
    assert trace.cumulative_delivered() == 0


def test_run_rejects_malformed_q0():
    # a fraction, a wrong length and a nested list each fail like a negative
    # entry does, before any slot runs
    sc = scenario_example2("red")
    for q0 in ([-1, 0], [1.5, 0], [1, 2, 3], [[1, 2]], [float("nan"), 0], [True, False]):
        with pytest.raises(ValueError, match=r"^q0(\[0\])?: "):
            run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 5, make_streams(0), q0=q0)
    trace = run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 5, make_streams(0),
                q0=np.array([3.0, 0.0]))
    assert trace.q0.dtype == np.int64 and trace.q0.tolist() == [3, 0]


def test_run_keeps_its_own_q0():
    # the trace's q0 is a read-only copy; the caller's int64 array stays writable
    sc = scenario_example2("red")
    q0 = np.array([4, 1], dtype=np.int64)
    trace = run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 5, make_streams(0), q0=q0)
    assert q0.flags.writeable and not trace.q0.flags.writeable
    q0[0] = 9
    assert trace.q0.tolist() == [4, 1]


def test_run_deterministic_same_seed():
    net = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                            "W": [[0.5, 0.5]]})
    arr = validate_arrivals({"kind": "iid-bernoulli-batch", "p": ["0.5", "0"],
                             "batch": [1, 1]}, 2)
    def one():
        return run(net, ONE_STATE, arr, RandomPolicy(net, make_streams(7).policy),
                   200, make_streams(7))
    t1, t2 = one(), one()
    assert trace_to_csv(t1, net) == trace_to_csv(t2, net)


def test_run_aborts_on_bad_policy():
    class Bad:
        def decide(self, q, s):
            return np.array([1, 0])
    with pytest.raises(PolicyContractError):
        run(RELAY, ONE_STATE, zero_arrivals(2), Bad(), 10, make_streams(0))


class _Fixed:
    def __init__(self, v):
        self.v = np.array(v)

    def decide(self, q, s):
        return self.v


def test_run_rejects_reversed_link():
    # -1 on the sync link passes C v <= c and positiveness, and would run the
    # link in reverse: each slot would deliver -2 packets and grow both queues
    sc = scenario_example2("red")
    with pytest.raises(PolicyContractError, match="binary violation at index 2") as err:
        run(sc.net, sc.chain, sc.arrivals, _Fixed([0, 0, -1]), 5, make_streams(1), q0=[3, 3])
    assert err.value.diagnostic.t == 0 and err.value.diagnostic.v.tolist() == [0, 0, -1]


def test_run_rejects_non_binary_without_constituency_rows():
    # no row of C bounds v, and q covers the drain of 2: only the 0/1 rule rejects it
    net = validate_network({"R": [[-1, 0], [1, -1]], "W": [[1.0, 1.0]]})
    assert net.C.shape == (0, 2)
    with pytest.raises(PolicyContractError, match="binary violation at index 0"):
        run(net, ONE_STATE, zero_arrivals(2), _Fixed([2, 0]), 5, make_streams(0), q0=[5, 5])
    for v in ([0.5, 0], [1, 0, 0], [1]):
        res = check_feasible(net, [5, 5], v)
        assert not res.ok and res.family == "binary"
    assert check_feasible(net, [5, 5], [1.0, 1.0]).ok


def test_nonnegativity_and_masking_random_runs(rng):
    for _ in range(20):
        net = random_network(rng)
        chain = validate_chain({"P": np.eye(net.n_s).tolist(), "s0": 0})
        arr = validate_arrivals({"kind": "iid-bernoulli-batch",
                                 "p": ["1/2"] * net.n_q, "batch": [1] * net.n_q}, net.n_q)
        trace = run(net, chain, arr, RandomPolicy(net, make_streams(3).policy),
                    300, make_streams(int(rng.integers(10000))))
        for rec in trace.records:
            assert (rec.q_after >= 0).all()
            # masked links contribute nothing
            assert np.array_equal(rec.q_after - rec.q_before,
                                  net.R @ (rec.m * rec.v) + rec.a)


def test_window_difference_bounds(rng):
    # over any window of length L the queue change stays within
    # [-L n_v, L (n_v 1 + a_hat)] elementwise
    net = random_network(rng)
    chain = validate_chain({"P": np.eye(net.n_s).tolist(), "s0": 0})
    arr = validate_arrivals({"kind": "iid-bernoulli-batch",
                             "p": ["1/2"] * net.n_q, "batch": [1] * net.n_q}, net.n_q)
    trace = run(net, chain, arr, RandomPolicy(net, make_streams(5).policy),
                400, make_streams(11))
    qs = np.array([r.q_before for r in trace.records] + [trace.records[-1].q_after])
    for lag in range(1, len(qs)):
        diff = qs[lag:] - qs[:-lag]
        assert (diff >= -lag * net.n_v - 1e-9).all()
        assert (diff <= lag * (net.n_v + net.a_hat) + 1e-9).all()


def test_mass_accounting_conventional(rng):
    # packets in system == initial + arrivals - deliveries, every slot
    for _ in range(10):
        net = random_network(rng)
        assert net.conventional
        chain = validate_chain({"P": np.eye(net.n_s).tolist(), "s0": 0})
        arr = validate_arrivals({"kind": "iid-bernoulli-batch",
                                 "p": ["1/4"] * net.n_q, "batch": [1] * net.n_q}, net.n_q)
        q0 = rng.integers(0, 3, size=net.n_q)
        trace = run(net, chain, arr, RandomPolicy(net, make_streams(9).policy),
                    300, make_streams(int(rng.integers(10000))), q0=q0)
        total = int(q0.sum())
        for rec in trace.records:
            total += int(rec.a.sum()) - rec.delivered
            assert rec.q_after.sum() == total


class _OneArray:
    """Returns one int64 array, rewritten in place each slot with a RANDOM
    choice, and logs the q it is given and the control it returns."""

    def __init__(self, net, rng):
        self.random = RandomPolicy(net, rng)
        self.v = np.zeros(net.n_v, dtype=np.int64)
        self.seen, self.returned = [], []

    def decide(self, q, s):
        self.seen.append(q)
        self.v[:] = self.random.decide(q, s)
        self.returned.append(self.v.tolist())
        return self.v


def test_policy_sees_tuples_and_trace_keeps_each_control():
    sc = scenario_example2("blue")
    policy = _OneArray(sc.net, make_streams(2).policy)
    trace = run(sc.net, sc.chain, sc.arrivals, policy, 300, make_streams(2), q0=[2, 1])
    assert len({tuple(v) for v in policy.returned}) > 1
    # the row of slot t is the value returned at slot t, not the array's last value
    assert trace.V.tolist() == policy.returned
    # each q is an immutable tuple of ints: the policy cannot alter the run's state
    assert all(type(q) is tuple and {type(x) for x in q} == {int} for q in policy.seen)
    assert policy.seen == [tuple(row) for row in [trace.q0.tolist()] + trace.Q[:-1].tolist()]


@pytest.mark.parametrize("slots", [0, 1])
def test_runs_of_zero_and_one_slots(slots):
    sc = scenario_example2("red")
    n_q, n_v = sc.net.n_q, sc.net.n_v
    for spec in (PolicySpec("IDLE"), PolicySpec("PNC", 2)):
        trace = run(sc.net, sc.chain, sc.arrivals, make_policy(spec, sc.net, sc.chain, sc.arrivals),
                    slots, make_streams(0), q0=[1, 2])
        shapes = {"q0": (n_q,), "S": (slots,), "Q": (slots, n_q), "V": (slots, n_v),
                  "M": (slots, n_v), "A": (slots, n_q), "D": (slots,)}
        for name, shape in shapes.items():
            col = getattr(trace, name)
            assert col.shape == shape and col.dtype == np.int64, name
            assert not col.flags.writeable, name
        assert trace.slots == len(trace.records) == slots
    if slots:
        assert trace.records[0].q_before.tolist() == [1, 2]


def test_trace_csv_schema():
    header = trace_csv_header(RELAY)
    assert header == "t,s,q_1,q_2,v_1,v_2,m_1,m_2,a_1,a_2,delivered"
    trace = run(RELAY, ONE_STATE, zero_arrivals(2), IdlePolicy(RELAY), 3,
                make_streams(0), q0=[1, 0])
    text = trace_to_csv(trace, RELAY)
    lines = text.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 4
    assert lines[1] == "0,0,1,0,0,0,0,0,0,0,0"


def test_paired_streams_across_policies():
    # same seed, different policies: identical arrivals and chain states
    net = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                            "W": [[0.5, 0.5], [1.0, 0.0]]})
    chain = validate_chain({"P": [[0.3, 0.7], [0.6, 0.4]], "s0": 0})
    arr = validate_arrivals({"kind": "iid-bernoulli-batch", "p": ["0.5", "0.25"],
                             "batch": [1, 1]}, 2)
    t_idle = run(net, chain, arr, IdlePolicy(net), 300, make_streams(13))
    t_rand = run(net, chain, arr, RandomPolicy(net, make_streams(13).policy),
                 300, make_streams(13))
    for r1, r2 in zip(t_idle.records, t_rand.records):
        assert np.array_equal(r1.a, r2.a)
        assert r1.s == r2.s


def test_sigma0_start_state_is_drawn():
    # the chain never leaves its start state, which the first record shows
    net = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                            "W": [[1.0, 1.0], [1.0, 1.0]]})

    def start(sigma0, seed):
        chain = validate_chain({"P": [[1.0, 0.0], [0.0, 1.0]], "sigma0": sigma0})
        trace = run(net, chain, zero_arrivals(2), IdlePolicy(net), 1, make_streams(seed))
        return trace.records[0].s

    assert {start([0.0, 1.0], seed) for seed in range(50)} == {1}
    # state 1 has probability 3/4: over 400 seeds its count is 300 with sd 8.7
    ones = sum(start([0.25, 0.75], seed) for seed in range(400))
    assert abs(ones - 300) <= 5 * np.sqrt(400 * 0.25 * 0.75)


def _per_family_check(net, q, v):
    """Feasibility one family at a time, source requirements link by link."""
    v = np.asarray(v)
    for j, x in enumerate(v):
        if x not in (0, 1):
            return False, "binary", j
    over = net.C @ v > net.c
    if over.any():
        return False, "constituency", int(np.argmax(over))
    neg = q + net.R_minus @ v < 0
    if neg.any():
        return False, "positiveness", int(np.argmax(neg))
    for j in np.flatnonzero(v):
        if ((net.S_req[:, j] == 1) & (np.asarray(q) < 1)).any():
            return False, "source", int(j)
    return True, None, None


def test_check_feasible_matches_per_family_check(rng):
    families = set()
    for _ in range(60):
        net = random_network(rng, allow_copy=True)
        raw = net.to_json()
        raw["S_req"] = (rng.random((net.n_q, net.n_v)) < 0.3).astype(int).tolist()
        net = validate_network(raw)
        for _ in range(20):
            q = rng.integers(0, 3, size=net.n_q)
            # mostly binary controls, some with entries a policy should never return
            low, high = (0, 2) if rng.random() < 0.8 else (-1, 3)
            v = rng.integers(low, high, size=net.n_v)
            res = check_feasible(net, q, v)
            assert (res.ok, res.family, res.index) == _per_family_check(net, q, v)
            families.add(res.family)
    assert families == {None, "binary", "constituency", "positiveness", "source"}


def _scalar_run(net, chain, arrivals, policy, slots, streams):
    """The slot loop drawing each uniform when it is used: the start state,
    then per slot the link coin flips, one arrival uniform per queue and one
    chain uniform.  Returns one tuple per slot, in `StepRecord` field order."""
    q = np.zeros(net.n_q, dtype=np.int64)
    if chain.s0 is not None:
        s = chain.s0
    else:
        s = int(np.searchsorted(np.cumsum(chain.sigma0), streams.chain.random(), side="right")
                .clip(max=chain.n_s - 1))
    rows = []
    for t in range(slots):
        v = np.asarray(policy.decide(q, s), dtype=np.int64)
        m = np.zeros(net.n_v, dtype=np.int64)
        for j in np.flatnonzero(v):
            w = net.W[s, j]
            if w >= 1.0:
                m[j] = 1
            elif w > 0.0:
                m[j] = 1 if streams.links.random() < w else 0
        if arrivals.kind == "constant":
            a = arrivals.table[0].copy()
        elif arrivals.kind == "deterministic-periodic":
            a = arrivals.table[t % len(arrivals.table)].copy()
        else:
            u = streams.arrivals.random(net.n_q)
            a = (u < [float(p) for p in arrivals.p]).astype(np.int64) * arrivals.table[0]
        q_after = q + net.R @ (m * v) + a
        s_next = int(np.searchsorted(np.cumsum(chain.P[s]), streams.chain.random(),
                                     side="right").clip(max=chain.n_s - 1))
        rows.append((t, s, q, v, m, a, q_after, int((m * v * net.delivery).sum())))
        q, s = q_after, s_next
    return rows


def test_run_matches_scalar_draws(rng):
    # multi-state chains from s0 and sigma0, every arrival kind, and policies
    # that read q, s and their own stream
    arrival_kinds = (
        lambda n_q: {"kind": "constant", "value": rng.integers(0, 2, size=n_q).tolist()},
        lambda n_q: {"kind": "deterministic-periodic",
                     "pattern": rng.integers(0, 3, size=(3, n_q)).tolist()},
        lambda n_q: {"kind": "iid-bernoulli-batch",
                     "p": [f"{int(rng.integers(0, 9))}/16" for _ in range(n_q)],
                     "batch": rng.integers(1, 3, size=n_q).tolist()},
    )
    specs = [PolicySpec("MW"), PolicySpec("PNC", 2), PolicySpec("FPNC", 2),
             PolicySpec("RANDOM")]
    for case, (make_arrivals, start) in enumerate(itertools.product(arrival_kinds,
                                                                    ("s0", "sigma0"))):
        net = random_network(rng, n_s=3)
        chain = random_chain(rng, 3)
        if start == "sigma0":
            chain = validate_chain({"P": chain.P.tolist(), "sigma0": [0.25, 0.5, 0.25]})
        arrivals = validate_arrivals(make_arrivals(net.n_q), net.n_q)
        for spec in specs:
            traces = []
            for simulate in (run, _scalar_run):
                streams = make_streams(case, 1)
                policy = make_policy(spec, net, chain, arrivals, policy_rng=streams.policy)
                traces.append(simulate(net, chain, arrivals, policy, 80, streams))
            got, want = traces
            assert len(got.records) == len(want) == 80
            for rec, row in zip(got.records, want):
                fields = (rec.t, rec.s, rec.q_before, rec.v, rec.m, rec.a, rec.q_after,
                          rec.delivered)
                same = [np.array_equal(x, y) for x, y in zip(fields, row)]
                assert all(same), (spec.name, case, rec.t, same)


def test_trace_frees_its_arrays_without_gc():
    trace = run(RELAY, ONE_STATE, zero_arrivals(2), IdlePolicy(RELAY), 20,
                make_streams(0), q0=[1, 2])
    records = trace.records
    assert records[-1].q_after.tolist() == [1, 2] and len(records) == 20
    del records
    queues = weakref.ref(trace.Q)
    gc.disable()
    try:
        del trace
        assert queues() is None
    finally:
        gc.enable()


def _malformed(v):
    """Controls that are not int64 vectors of length n_v, built from the
    int64 0/1 control v: some hold the same numbers, some the same bytes."""
    two = v.copy()
    two[-1] = 2
    return [v.astype(np.float64), v.astype(bool), v.astype(np.int8), two, v[:-1], v[None, :],
            np.frombuffer(v.tobytes(), dtype=np.int8), v.astype(str), v.astype(str).tolist(),
            [None] + v[1:].tolist(), [[1]] + v[1:].tolist()]


def _step_verdict(net, q, s, v, a, seed, admitted):
    """step's verdict at (q, s), given the memo `admitted`, as check_feasible
    reports one, with what step returned, or the diagnostic record."""
    try:
        out = step(net, 0, tuple(q.tolist()), s, v, a.tolist(), make_streams(seed).links,
                   admitted)
    except PolicyContractError as err:
        family, index = str(err).split(": ")[1].split(" violation at index ")
        return (False, family, None if index == "None" else int(index)), err.diagnostic
    return (True, None, None), out


def test_step_memo_answers_like_check_feasible(rng):
    # each control steps with an empty memo (a miss) and with one that
    # admitted every control with C v <= c (a hit wherever q allows it)
    families = set()
    for _ in range(25):
        net = random_network(rng, n_s=int(rng.integers(1, 4)), allow_copy=True)
        raw = net.to_json()
        raw["S_req"] = (rng.random((net.n_q, net.n_v)) < 0.3).astype(int).tolist()
        net = validate_network(raw)
        controls = [v for chunk in binary_chunks(net.n_v, 64) for v in chunk.astype(np.int64)]
        warm = {}
        full = (net.n_v,) * net.n_q
        for v in controls:
            if check_feasible(net, full, v):
                step(net, 0, full, 0, v, [0] * net.n_q, make_streams(0).links, warm)
        assert 0 < len(warm) == count_controls(net)
        for _ in range(4):
            q = rng.integers(0, 3, size=net.n_q)
            s = int(rng.integers(net.n_s))
            a = rng.integers(0, 3, size=net.n_q)
            seed = int(rng.integers(1000))
            for v in controls + _malformed(controls[int(rng.integers(1, len(controls)))]):
                res = check_feasible(net, q, v)
                families.add(res.family)
                for memo in ({}, warm):
                    verdict, out = _step_verdict(net, q, s, v, a, seed, memo)
                    assert verdict == (res.ok, res.family, res.index), (v, q)
                    if not res.ok:
                        continue
                    # coins: one uniform per active link strictly between 0
                    # and 1, in ascending link order
                    coins = make_streams(seed).links
                    want = np.array([w >= 1.0 or 0.0 < w and coins.random() < w if on else False
                                     for on, w in zip(np.asarray(v, dtype=bool), net.W[s])])
                    q_after, v_out, m, delivered = out
                    assert type(v_out) is tuple and {type(x) for x in v_out} == {int}
                    assert np.array_equal(v_out, np.asarray(v))
                    assert np.array_equal(m, want)
                    assert np.array_equal(q_after, q + net.R @ (np.multiply(m, v_out)) + a)
                    assert delivered == int(np.dot(m, net.delivery))
    assert families == {None, "binary", "constituency", "positiveness", "source"}


def test_step_memo_is_a_cache():
    # filled as controls are first seen, never from the control set: a
    # 24-link network without C rows has 2^24 controls
    net = validate_network({"R": (-np.eye(24, dtype=int)).tolist(), "W": [[0.5] * 24]})
    q = (1,) * 24
    admitted = {}
    start = time.perf_counter()
    for v in np.eye(24, dtype=np.int64):
        step(net, 0, q, 0, v, [0] * 24, make_streams(0).links, admitted)
    assert time.perf_counter() - start < 1.0 and len(admitted) == 24


class _Cycle:
    """Returns the given controls in turn, round after round."""

    def __init__(self, controls):
        self._next = itertools.cycle(controls).__next__

    def decide(self, q, s):
        return self._next()


def _counted_runs(monkeypatch, runs):
    """check_feasible calls made by each of `runs`, zero-argument callables."""
    calls = []
    checked = dynamics.check_feasible
    monkeypatch.setattr(dynamics, "check_feasible",
                        lambda *args: calls.append(None) or checked(*args))
    counts = []
    for one in runs:
        del calls[:]
        one()
        counts.append(len(calls))
    return counts


def test_run_admits_each_control_once_per_run(monkeypatch):
    # RANDOM picks only controls q allows, so every control's first use is
    # its only check; a second run on the same network checks them all again
    sc = scenario_example2("blue")
    traces = []

    def one():
        traces.append(run(sc.net, sc.chain, sc.arrivals,
                          RandomPolicy(sc.net, make_streams(4).policy), 500, make_streams(4)))
    counts = _counted_runs(monkeypatch, [one, one])
    distinct = {tuple(v) for v in traces[0].V.tolist()}
    assert 1 < len(distinct) <= count_controls(sc.net)
    assert counts == [len(distinct)] * 2
    assert not hasattr(sc.net, "_admitted")
    assert "_admitted" not in {f.name for f in dataclasses.fields(Network)}


def test_run_memo_holds_at_most_max_admitted(monkeypatch):
    # two rounds over MAX_ADMITTED + 8 distinct controls: the first round
    # checks each one, the second only the 8 the full memo left out.  No link
    # ever succeeds, so q stays at ones and allows every control.
    net = validate_network({"R": (-np.eye(24, dtype=int)).tolist(), "W": [[0.0] * 24]})
    controls = list(next(binary_chunks(24, MAX_ADMITTED + 8)).astype(np.int64))
    counts = _counted_runs(monkeypatch, [
        lambda: run(net, ONE_STATE, zero_arrivals(24), _Cycle(controls), 2 * len(controls),
                    make_streams(0), q0=[1] * 24)])
    assert counts == [MAX_ADMITTED + 16]


def test_queue_state_of_wrong_length_raises():
    # example2 has two queues: one broadcast against them, three did not fit
    sc = scenario_example2("red")
    v = np.array([1, 0, 0])
    shapes = ([1], [1, 0, 0], [[1, 0]])
    for q in shapes:
        with pytest.raises(ValueError, match=r"queue state must have shape \(2,\)"):
            check_feasible(sc.net, q, v)
    # nor does a memo hit accept one
    admitted = {}
    step(sc.net, 0, (3, 3), 0, v, [0, 0], make_streams(0).links, admitted)
    assert admitted
    for q in shapes:
        with pytest.raises(ValueError, match=r"queue state must have shape \(2,\)"):
            step(sc.net, 0, tuple(q), 0, v, [0, 0], make_streams(0).links, admitted)
