"""Compiled trajectory programs against the dense rows and the enumeration oracle.

A policy compiles the program of a chain state once and builds each decision
from it; these tests solve the same decisions from `build_constraints` and
the objective (`build_bip`'s cost and Q) alone, through the test oracle
`solve_dense`, which builds search tables from a hand-built `Bip`'s rows.
Programs past `solve_bip_exhaustive`'s 20 variables are checked against
`solve_tables_exhaustive`, which scores every trajectory of the tables.
"""

import copy
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

import qnet.policies as policies
import qnet.predictor as predictor
from qnet import optim
from qnet.dynamics import make_streams, queue_need, run
from qnet.model import enumerate_control_set, validate_network
from qnet.optim import Bip, solve_bip, solve_bip_exhaustive
from qnet.policies import PncPolicy, PolicySpec, make_policy
from qnet.predictor import build_bip, build_constraints, compile_program
from qnet.scenarios import scenario_example1, scenario_example2

from conftest import random_arrivals, random_chain, random_network
from oracles import solve_dense, solve_tables_exhaustive


def dense_bip(net, chain, arrivals, q0, s, H, objective):
    """The decision's program from its dense rows only: no compiled tables."""
    compiled = build_bip(net, chain, arrivals, q0, s, H, objective)
    A, b = build_constraints(net, q0, arrivals.rate, H)
    return Bip(n_v=net.n_v, H=H, cost=compiled.cost, A=A, b=b, Q=compiled.Q)


def _with_extra_sources(rng, net):
    raw = net.to_json()
    raw["S_req"] = (rng.random((net.n_q, net.n_v)) < 0.3).astype(int).tolist()
    return validate_network(raw)


@pytest.mark.parametrize("objective", ["linear", "quadratic"])
@pytest.mark.parametrize("chunk", [None, 1])
def test_compiled_decisions_match_dense_rows_and_oracle(rng, monkeypatch, chunk, objective):
    # chunk 1 puts every block but the last in the depth-first prefix, so the
    # first-slot rows prune prefixes there; otherwise the grid covers block 0.
    # Backlogs of 0-2 starve sources; S_req extras gate links no row sees.
    if chunk is not None:
        monkeypatch.setattr(optim, "SCAN_CHUNK", chunk)
    gated = prefixed = 0
    for k in range(120):
        n_s = 1 + k % 3
        net = random_network(rng, n_s=n_s, allow_copy=True)
        if k % 2:
            net = _with_extra_sources(rng, net)
        chain = random_chain(rng, n_s)
        arr = random_arrivals(rng, net.n_q)
        H = 1 + k % 4
        while H * net.n_v > 12:
            H -= 1
        policy = PncPolicy(net, chain, arr, H, objective=objective)
        for _ in range(3):
            q0 = rng.integers(0, 3, size=net.n_q)
            s = int(rng.integers(n_s))
            traj = np.concatenate([v for v, _ in policy._trajectory(q0, s)])
            program = policy._programs[s]
            compiled = solve_bip(build_bip(net, chain, arr, q0, s, H, objective,
                                           program=program))
            dense = dense_bip(net, chain, arr, q0, s, H, objective)
            by_rows, oracle = solve_dense(dense), solve_bip_exhaustive(dense)
            assert by_rows.status == oracle.status == "optimal", k
            assert np.array_equal(traj, by_rows.x) and np.array_equal(compiled.x, oracle.x), k
            assert compiled.value == by_rows.value == oracle.value, k
            gated += not (q0 >= program.need).all(axis=1).all()
            prefixed += program.tables.k > 0
    assert gated > 50
    assert (prefixed > 50) == (chunk == 1)


@pytest.mark.parametrize("H", [1, 2, 3])
def test_first_slot_gate_is_a_coupling_row(H):
    # step 0's rows bound block 0 by q0 alone: each control's queue need,
    # source requirements included, and 0 in every later block
    for sc, states in ((scenario_example1(), (0, 3)), (scenario_example2("green"), (0,))):
        need, n_q = queue_need(sc.net, enumerate_control_set(sc.net)), sc.net.n_q
        for s in states:
            program = compile_program(sc.net, sc.chain, sc.arrivals, s, H)
            lhs = program.tables.lhs
            assert np.array_equal(lhs[0][:, :n_q], need), s
            assert all(not lhs[t][:, :n_q].any() for t in range(1, H)), s
            assert program.offsets[0].tolist() == [0] * n_q, s


def test_compiled_rows_match_the_dense_rows(rng):
    # the two row builders share only the offsets: per block, the compiled
    # rows of steps >= 1 are V times that block of the dense positiveness
    # rows, and step 0 reads each control's queue need in block 0 alone
    for k in range(40):
        n_s = 1 + k % 2
        net = random_network(rng, n_s=n_s, allow_copy=True)
        chain, arr = random_chain(rng, n_s), random_arrivals(rng, net.n_q)
        H, n_q, n_v = 1 + k % 4, net.n_q, net.n_v
        q0 = rng.integers(0, 3, size=n_q)
        program = compile_program(net, chain, arr, int(rng.integers(n_s)), H)
        A, b = build_constraints(net, q0, arr.rate, H)
        rows = slice(H * net.C.shape[0], H * (net.C.shape[0] + n_q))
        V = program.tables.V[0]
        for t, lhs in enumerate(program.tables.lhs):
            dense = V @ A[rows, t * n_v:(t + 1) * n_v].T
            assert np.array_equal(lhs[:, n_q:], dense[:, n_q:]), (k, t)
            assert (lhs[:, :n_q] == (program.need if t == 0 else 0)).all(), (k, t)
        assert program.offsets.ravel().tolist() == [x - q for x, q in
                                                    zip(b[rows], np.tile(q0, H))], k


def test_builders_reject_an_empty_horizon():
    sc = scenario_example2("green")
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        compile_program(sc.net, sc.chain, sc.arrivals, 0, 0)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        build_constraints(sc.net, [0, 0], sc.arrivals.rate, 0)


@pytest.mark.parametrize("objective", ["linear", "quadratic"])
def test_decisions_share_the_compiled_tables(objective):
    # a decision adds its bounds beside the tables, which it neither copies
    # nor changes
    assert "b" not in {f.name for f in fields(optim.BlockTables)}
    for sc, q0s in ((scenario_example1(), ([0, 0, 0, 0], [1, 0, 0, 0], [3, 1, 2, 0])),
                    (scenario_example2("green"), ([0, 0], [1, 0], [5, 2], [0, 7]))):
        program = compile_program(sc.net, sc.chain, sc.arrivals, 0, 3, objective)
        tables = program.tables
        before = {f.name: copy.deepcopy(getattr(tables, f.name)) for f in fields(tables)}
        for q0 in q0s:
            bip = build_bip(sc.net, sc.chain, sc.arrivals, q0, 0, 3, objective, program=program)
            assert bip.blocks is tables, q0
            assert bip.bounds.tolist() == (program.offsets + q0).ravel().tolist(), q0
            assert solve_bip(bip).status == "optimal", q0
        for name, value in before.items():
            assert _equal(getattr(tables, name), value), name


def _equal(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(np.array_equal(a, b) for a, b in zip(x, y))
    return np.array_equal(x, y)


@pytest.mark.parametrize("spec", [PolicySpec("MW"), PolicySpec("FPNC", 3)],
                         ids=lambda spec: spec.name)
def test_example2_green_memo_states_replay(spec):
    # every decision a 3000-slot unstable run memoized, solved again from the
    # dense rows: the same trajectory, from one compiled program
    sc = scenario_example2("green")
    policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
    run(sc.net, sc.chain, sc.arrivals, policy, 3000, make_streams(11))
    assert list(policy._programs) == [0] and len(policy._memo) > 100
    for (q, s), traj in policy._memo.items():
        dense = dense_bip(sc.net, sc.chain, sc.arrivals, np.array(q), s, policy.H, "linear")
        assert np.array_equal(np.concatenate([v for v, _ in traj]), solve_dense(dense).x), q


def test_each_chain_state_compiled_once(monkeypatch):
    # example1's handover chain visits several states; a decision reads the
    # compiled program of its state and never builds the dense rows
    counts: dict = {}
    compile_once = policies.compile_program

    def counted(net, chain, arrivals, s, H, objective="linear"):
        counts[s] = counts.get(s, 0) + 1
        return compile_once(net, chain, arrivals, s, H, objective)

    def no_dense_rows(*args):
        raise AssertionError("a decision built its dense rows")

    monkeypatch.setattr(policies, "compile_program", counted)
    monkeypatch.setattr(predictor, "build_constraints", no_dense_rows)
    sc = scenario_example1()
    for spec in (PolicySpec("PNC", 2), PolicySpec("FPNC", 3, objective="quadratic")):
        counts.clear()
        policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
        run(sc.net, sc.chain, sc.arrivals, policy, 60, make_streams(2))
        assert set(counts) == set(policy._programs) and len(counts) > 1
        assert set(counts.values()) == {1}
        assert {s for (_, s) in policy._memo} == set(counts)
        assert len(policy._memo) > len(counts)


def test_build_bip_rejects_a_program_of_another_decision():
    sc = scenario_example1()
    program = compile_program(sc.net, sc.chain, sc.arrivals, 0, 2)
    for s, H, objective in ((1, 2, "linear"), (0, 3, "linear"), (0, 2, "quadratic")):
        with pytest.raises(ValueError, match="program compiled for"):
            build_bip(sc.net, sc.chain, sc.arrivals, [1, 0, 0, 0], s, H, objective,
                      program=program)
    # the same program serves every queue state, and the dense rows still read
    bip = build_bip(sc.net, sc.chain, sc.arrivals, [1, 0, 0, 0], 0, 2, program=program)
    A, b = build_constraints(sc.net, [1, 0, 0, 0], sc.arrivals.rate, 2)
    assert np.array_equal(bip.A, A) and bip.b.tolist() == b


def _same_decision(sol, oracle) -> bool:
    return (sol.status == oracle.status and sol.value == oracle.value
            and [int(i) for i in sol.blocks or []] == (oracle.blocks or []))


@pytest.mark.parametrize("objective", ["linear", "quadratic"])
def test_every_trajectory_oracle_matches_the_enumeration(objective):
    # the oracle below, on programs of up to 18 variables, against
    # solve_bip_exhaustive on the dense rows
    sc = scenario_example1()
    for H, s, q0 in product((1, 2, 3), (0, 5), ([0, 0, 0, 0], [2, 1, 0, 1])):
        oracle = solve_bip_exhaustive(dense_bip(sc.net, sc.chain, sc.arrivals, q0, s, H, objective))
        mine = solve_tables_exhaustive(build_bip(sc.net, sc.chain, sc.arrivals, q0, s, H, objective))
        assert mine.status == oracle.status == "optimal", (H, s, q0)
        assert mine.value == oracle.value and np.array_equal(mine.x, oracle.x), (H, s, q0)


@pytest.mark.parametrize("H, q0s", [(4, list(product(range(3), repeat=4))),
                                    (5, [(0, 0, 0, 0), (2, 0, 1, 0), (2, 2, 2, 2), (4, 1, 0, 3)])])
def test_example1_decisions_match_every_trajectory(H, q0s):
    # 24 and 30 variables, past solve_bip_exhaustive: the dominated prefixes
    # the search skips change no decision, in any chain state
    sc = scenario_example1()
    for s in range(sc.chain.n_s):
        program = compile_program(sc.net, sc.chain, sc.arrivals, s, H)
        assert program.tables.k > 0
        for q0 in q0s:
            bip = build_bip(sc.net, sc.chain, sc.arrivals, q0, s, H, program=program)
            assert _same_decision(solve_bip(bip), solve_tables_exhaustive(bip)), (s, q0)


@pytest.mark.parametrize("point", ["red", "green", "blue"])
def test_example2_quadratic_decisions_match_every_trajectory(point, monkeypatch):
    # the quadratic objective keeps no dominance rule; chunk 1 searches every
    # block but the last depth first
    sc = scenario_example2(point)
    for chunk in (optim.SCAN_CHUNK, 1):
        monkeypatch.setattr(optim, "SCAN_CHUNK", chunk)
        for H in range(1, 7):
            program = compile_program(sc.net, sc.chain, sc.arrivals, 0, H, "quadratic")
            for q0 in product(range(0, 9, 2), repeat=2):
                bip = build_bip(sc.net, sc.chain, sc.arrivals, q0, 0, H, "quadratic",
                                program=program)
                assert _same_decision(solve_bip(bip), solve_tables_exhaustive(bip)), (H, q0)


def test_live_rows_are_the_rows_of_later_steps():
    # block t reads the rows of steps t .. H-1 and no earlier ones
    sc, H = scenario_example1(), 5
    n_q = sc.net.n_q
    for s in (0, 4):
        tables = compile_program(sc.net, sc.chain, sc.arrivals, s, H).tables
        assert len(tables.live) == H
        for t, live in enumerate(tables.live):
            assert live.tolist() == list(range(t * n_q, H * n_q)), (s, t)
        assert tables.glhs.shape[1] == (H - tables.k) * n_q


def test_dominated_prefixes_are_pruned_on_example1():
    # PNC-H5's decision at q0 = (2, 2, 2, 2) in state 0: the search without
    # the dominance rule visits 7,265 nodes
    sc = scenario_example1()
    bip = build_bip(sc.net, sc.chain, sc.arrivals, [2, 2, 2, 2], 0, 5)
    sol = solve_bip(bip)
    assert sol.nodes < 7265
    assert _same_decision(sol, solve_tables_exhaustive(bip))
