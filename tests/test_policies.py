"""Policy behavior: max-weight, receding horizon, fixed trajectory, baselines."""

import numpy as np
import pytest

from qnet.dynamics import check_feasible, make_streams, run
from qnet.markov import validate_chain
from qnet.model import enumerate_control_set, validate_arrivals, validate_network
from qnet.policies import (FpncPolicy, MwPolicy, PncPolicy, PolicySpec, RandomPolicy,
                           make_policy, repair_control)
from qnet.predictor import build_bip
from qnet.optim import solve_bip
from qnet.errors import ValidationError
from qnet.scenarios import scenario_example1, scenario_example2

from conftest import random_arrivals, random_chain, random_network, zero_arrivals

RELAY = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                          "W": [[1.0, 1.0]]})
ONE_STATE = validate_chain({"P": [[1.0]], "s0": 0})


def backpressure_oracle(net, chain, arrivals, q0, s0):
    """Classical argmax of (q0+rate)'(-R What_0) v over the feasible controls,
    ties broken toward the lexicographically smallest vector."""
    weights = (np.asarray(q0) + arrivals.rate_float()) @ (-net.R) * net.W[s0]
    best, best_val = None, None
    for v in enumerate_control_set(net):
        if not check_feasible(net, q0, v).ok:
            continue
        val = float(weights @ v)
        if best_val is None or val > best_val + 1e-9:
            best, best_val = v, val
    return np.asarray(best, dtype=np.int64)


def first_control(net, chain, arrivals, q0, s0, H, **kwargs):
    """The first control a fresh receding-horizon policy applies at (q0, s0)."""
    return PncPolicy(net, chain, arrivals, H, **kwargs).decide(q0, s0)


def test_empty_network_idles():
    v = first_control(RELAY, ONE_STATE, zero_arrivals(2), [0, 0], 0, 3)
    assert v.tolist() == [0, 0]


def test_h1_relay_head_packet():
    v = first_control(RELAY, ONE_STATE, zero_arrivals(2), [3, 0], 0, 1)
    assert v.tolist() == [1, 0]


def test_example2_share_when_depleted():
    sc = scenario_example2("red")
    v = first_control(sc.net, sc.chain, sc.arrivals, [4, 0], 0, 2)
    assert v.tolist() == [0, 1, 0]
    v = first_control(sc.net, sc.chain, sc.arrivals, [4, 1], 0, 2)
    assert v.tolist() == [0, 0, 1]


def test_mw_is_h1(rng):
    for _ in range(300):
        net = random_network(rng, allow_copy=True)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        q0 = rng.integers(0, 6, size=net.n_q)
        s0 = int(rng.integers(net.n_s))
        a = MwPolicy(net, chain, arr).decide(q0, s0)
        b = first_control(net, chain, arr, q0, s0, 1)
        assert np.array_equal(a, b)
        assert np.array_equal(a, backpressure_oracle(net, chain, arr, q0, s0))
        assert check_feasible(net, q0, a).ok


def test_argmin_scale_invariance(rng):
    for _ in range(40):
        net = random_network(rng)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        q0 = rng.integers(0, 6, size=net.n_q)
        bip = build_bip(net, chain, arr, q0, chain.s0, 2)
        base = solve_bip(bip).x
        bip.cost = bip.cost * 37.5
        assert np.array_equal(solve_bip(bip).x, base)


@pytest.mark.parametrize("cls, objective", [
    pytest.param(cls, objective, id=cls.__name__ + suffix)
    for objective, suffix in (("linear", ""), ("quadratic", "-quadratic"))
    for cls in (PncPolicy, FpncPolicy)])
def test_memo_miss_builds_and_solves_once(monkeypatch, cls, objective):
    # build_bip and solve_bip are looked up on qnet.policies at call time, so
    # wrappers patched there see every program the policies build and solve,
    # whichever the objective
    import qnet.policies as policies
    calls = {"build_bip": 0, "solve_bip": 0}
    for name in calls:
        original = getattr(policies, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(policies, name, counted)
    assert callable(policies.solve_bip_exhaustive)
    sc = scenario_example2("red")
    H = 2
    policy = cls(sc.net, sc.chain, sc.arrivals, H, objective=objective)
    states = [(0, 0), (1, 0), (0, 0), (2, 1), (1, 0), (2, 1), (3, 3), (0, 0), (3, 3), (2, 1)]
    seen = set()
    for i, q in enumerate(states):
        # FPNC consults its memo only when its pending trajectory runs out
        miss = (cls is PncPolicy or i % H == 0) and q not in seen
        if miss:
            seen.add(q)
        before = dict(calls)
        policy.decide(np.array(q), 0)
        assert calls["build_bip"] - before["build_bip"] == int(miss), (i, q)
        assert calls["solve_bip"] - before["solve_bip"] == int(miss), (i, q)
    assert calls["build_bip"] == len(seen) > 0


def test_capped_memo_changes_no_decision(monkeypatch):
    # past MAX_MEMO entries a miss is solved and nothing is stored: the
    # same traces from more programs built
    import qnet.policies as policies
    calls = [0]
    original = policies.build_bip

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(policies, "build_bip", counted)
    sc, uncapped = scenario_example2("green"), policies.MAX_MEMO
    for spec in (PolicySpec("MW"), PolicySpec("FPNC", 3)):
        runs = []
        for cap in (uncapped, 8):
            monkeypatch.setattr(policies, "MAX_MEMO", cap)
            policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
            before = calls[0]
            trace = run(sc.net, sc.chain, sc.arrivals, policy, 3000, make_streams(2))
            runs.append((trace, len(policy._memo), calls[0] - before))
        (full, n_full, built_full), (capped, n_capped, built_capped) = runs
        assert np.array_equal(full.V, capped.V) and np.array_equal(full.Q, capped.Q)
        assert n_full > 8 >= n_capped and built_capped > built_full


def test_fpnc_h1_equals_pnc_h1():
    sc = scenario_example2("red")
    res = []
    for spec in (PolicySpec("PNC", 1), PolicySpec("FPNC", 1)):
        policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
        trace = run(sc.net, sc.chain, sc.arrivals, policy, 500, make_streams(5))
        res.append([rec.v.tolist() for rec in trace.records])
    assert res[0] == res[1]


def test_solver_invocation_counts(monkeypatch):
    # PNC asks for a trajectory every slot, FPNC once per H slots
    sc = scenario_example2("red")
    T = 30
    calls = []
    trajectory = PncPolicy._trajectory
    monkeypatch.setattr(PncPolicy, "_trajectory",
                        lambda self, q, s: calls.append(1) or trajectory(self, q, s))
    for cls, H, want in ((PncPolicy, 2, 30), (FpncPolicy, 2, 15), (FpncPolicy, 3, 10)):
        calls.clear()
        run(sc.net, sc.chain, sc.arrivals, cls(sc.net, sc.chain, sc.arrivals, H=H), T,
            make_streams(3))
        assert len(calls) == want, (cls, H)


def test_repair_drops_violating_links():
    sc = scenario_example2("red")
    net = sc.net
    # pending sync transmission with an empty second queue: dropped
    assert repair_control(net, [5, 0], [0, 0, 1]).tolist() == [0, 0, 0]
    # pending share with an empty head queue: dropped by the source rule
    assert repair_control(net, [0, 2], [0, 1, 0]).tolist() == [0, 0, 0]
    # feasible controls pass through untouched
    assert repair_control(net, [5, 1], [0, 0, 1]).tolist() == [0, 0, 1]
    # no entry to drop makes a short or long control feasible
    for v in ([0, 1], [0, 0, 0, 1], [[0, 0, 1]]):
        with pytest.raises(ValueError, match="control must hold 3 links"):
            repair_control(net, [3, 3], v)
    # an entry other than 0 or 1 is dropped like any violating link
    assert repair_control(net, [0, 0], [0, 0, 2]).tolist() == [0, 0, 0]
    assert repair_control(net, [3, 3], [0, -1, 1]).tolist() == [0, 0, 1]


def test_fpnc_repairs_only_infeasible_blocks(rng):
    # a pending block was planned for predicted queues; at the realized ones
    # it passes unchanged when feasible and is repaired when not
    repaired = 0
    for _ in range(100):
        net = random_network(rng, allow_copy=True)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        policy = FpncPolicy(net, chain, arr, 2)
        q0 = rng.integers(0, 4, size=net.n_q)
        policy.decide(q0, chain.s0)
        pending = policy._trajectory(q0, chain.s0)[1][0]
        q1 = rng.integers(0, 2, size=net.n_q)
        got = policy.decide(q1, chain.s0)
        assert check_feasible(net, q1, got).ok
        assert np.array_equal(got, repair_control(net, q1, pending))
        repaired += not check_feasible(net, q1, pending).ok
    assert repaired > 10


@pytest.mark.parametrize("spec", [PolicySpec("MW"), PolicySpec("PNC", 3), PolicySpec("FPNC", 2),
                                  PolicySpec("FPNC", 3, objective="quadratic")],
                         ids=lambda spec: spec.name)
def test_decisions_are_rows_of_the_compiled_control_set(monkeypatch, spec):
    # no decision copies a control: each is the very row of a compiled V
    # (FPNC's later blocks come from the program of an earlier state),
    # read-only, or else a block FPNC repaired
    import qnet.policies as policies
    repaired = []

    def repair(net, q, v):
        repaired.append(repair_control(net, q, v))
        return repaired[-1]
    monkeypatch.setattr(policies, "repair_control", repair)
    sc = scenario_example1()
    policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
    decisions = []
    decide = policy.decide
    policy.decide = lambda q, s: decisions.append(decide(q, s)) or decisions[-1]
    run(sc.net, sc.chain, sc.arrivals, policy, 200, make_streams(4), q0=[2, 1, 0, 1])
    compiled = [row for program in policy._programs.values() for row, _ in program.controls]
    n_rows = 0
    for v in decisions:
        if any(v is r for r in repaired):
            continue
        assert any(v is row for row in compiled)
        assert not v.flags.writeable
        n_rows += 1
    assert n_rows > 100 and len(policy._programs) > 1


def test_fpnc_computes_no_queue_need(monkeypatch):
    # the compiled program holds every control's queue need, and FPNC reads
    # its pending blocks' needs from there
    import qnet.policies as policies

    def no_need(*args):
        raise AssertionError("FPNC computed a queue need")
    monkeypatch.setattr(policies, "queue_need", no_need)
    for sc, H in ((scenario_example1(), 3), (scenario_example2("green"), 2)):
        policy = FpncPolicy(sc.net, sc.chain, sc.arrivals, H)
        trace = run(sc.net, sc.chain, sc.arrivals, policy, 300, make_streams(6))
        assert trace.slots == 300 and len(policy._memo) > 10


def test_reused_fpnc_reproduces_a_fresh_one():
    # a run left FPNC mid-trajectory; the next run starts with no pending blocks
    sc = scenario_example2("red")
    used = FpncPolicy(sc.net, sc.chain, sc.arrivals, 3)
    run(sc.net, sc.chain, sc.arrivals, used, 4, make_streams(0))
    traces = [run(sc.net, sc.chain, sc.arrivals, policy, 200, make_streams(5), q0=[4, 1])
              for policy in (used, FpncPolicy(sc.net, sc.chain, sc.arrivals, 3))]
    assert np.array_equal(traces[0].V, traces[1].V)
    assert np.array_equal(traces[0].Q, traces[1].Q)


def test_policies_always_feasible(rng):
    sc = scenario_example2("blue")
    for spec in (PolicySpec("MW"), PolicySpec("PNC", 2), PolicySpec("FPNC", 3),
                 PolicySpec("RANDOM")):
        streams = make_streams(21)
        policy = make_policy(spec, sc.net, sc.chain, sc.arrivals, policy_rng=streams.policy)
        trace = run(sc.net, sc.chain, sc.arrivals, policy, 400, streams)
        assert trace.slots == 400  # run() itself verifies feasibility per step


def test_decisions_deterministic():
    sc = scenario_example2("green")
    a = PncPolicy(sc.net, sc.chain, sc.arrivals, H=2)
    b = PncPolicy(sc.net, sc.chain, sc.arrivals, H=2)
    for q in ([0, 0], [4, 0], [4, 1], [9, 2]):
        assert np.array_equal(a.decide(q, 0), b.decide(q, 0))


def test_policy_spec_validation():
    with pytest.raises(Exception):
        PolicySpec("PNC")          # missing horizon
    with pytest.raises(Exception):
        PolicySpec("NOPE")
    for raw, path in (({"kind": "PNC", "H": "2"}, "policy.H"),
                      ({"kind": "FPNC", "H": True}, "policy.H"),
                      (["PNC", 2], "policy"),
                      ({"kind": "MW", "H": 3}, "policy.H"),
                      ({"kind": "IDLE", "H": 1}, "policy.H"),
                      ({"kind": "RANDOM", "H": 2}, "policy.H"),
                      ({"kind": "PNC", "H": 1000000}, "policy.H"),
                      ({"kind": "FPNC", "H": 25}, "policy.H")):
        with pytest.raises(ValidationError) as info:
            PolicySpec.from_json(raw)
        assert info.value.path == path
    assert PolicySpec("PNC", np.int64(3)).name == "PNC-H3"
    assert PolicySpec("FPNC", 3).name == "FPNC-H3"
    assert PolicySpec("MW").name == "MW"
    rt = PolicySpec.from_json({"kind": "pnc", "H": 4})
    assert rt.kind == "PNC" and rt.horizon == 4
    for raw in ({"kind": "PNC", "H": 2, "objective": "cubic"},
                {"kind": "MW", "objective": "quadratic"},
                {"kind": "IDLE", "objective": "linear"},
                {"kind": "RANDOM", "objective": "quadratic"}):
        with pytest.raises(ValidationError) as info:
            PolicySpec.from_json(raw)
        assert info.value.path == "policy.objective"
    with pytest.raises(ValidationError):
        PolicySpec("MW", objective="quadratic")
    # the default objective stays out of names and JSON
    assert PolicySpec("PNC", 2, objective="linear").to_json() == {"kind": "PNC", "H": 2}
    quad = PolicySpec.from_json({"kind": "PNC", "H": 5, "objective": "quadratic"})
    assert quad.name == "PNC-H5-quadratic"
    assert PolicySpec.from_json(quad.to_json()) == quad
    # a key the policy does not define is ignored, like any unknown key
    assert PolicySpec.from_json({"kind": "PNC", "H": 2, "node_budget": 50}) == PolicySpec("PNC", 2)


def test_horizon_limit_counts_trajectories():
    # |V|^H may reach 2^24: example1 has 16 controls per slot, example2 has 4
    ex1, red = scenario_example1().net, scenario_example2("red").net
    for net, H, ok in ((ex1, 6, True), (ex1, 7, False), (red, 12, True), (red, 13, False)):
        for spec in (PolicySpec("PNC", H, objective="quadratic"), PolicySpec("FPNC", H)):
            if ok:
                spec.check_size(net)
                continue
            with pytest.raises(ValidationError) as info:
                make_policy(spec, net, None, None)
            assert info.value.path == "policy.H"
    PolicySpec("MW").check_size(ex1)
    assert PolicySpec("PNC", 24).horizon == 24
    # 17 links and no C rows give 2^17 controls, over the 2^16 a policy lists
    free = validate_network({"R": [[-1] * 17, [0] * 17], "W": [[1.0] * 17]})
    for spec in (PolicySpec("MW"), PolicySpec("RANDOM"), PolicySpec("PNC", 1)):
        with pytest.raises(ValidationError, match="131072 controls") as info:
            make_policy(spec, free, None, None, policy_rng=np.random.default_rng(0))
        assert info.value.path == "network.R"
    PolicySpec("IDLE").check_size(free)
    # one C row over 18 links leaves 19 controls
    PolicySpec("MW").check_size(validate_network({"R": [[-1] * 18, [0] * 18], "C": [[1] * 18],
                                                  "c": [1], "W": [[1.0] * 18]}))
    # a C row over 25 links leaves 26 controls, but no policy lists 2^25 vectors
    wide = validate_network({"R": [[-1] * 25, [0] * 25], "C": [[1] * 25], "c": [1],
                             "W": [[1.0] * 25]})
    for spec in (PolicySpec("MW"), PolicySpec("PNC", 1), PolicySpec("FPNC", 1),
                 PolicySpec("RANDOM")):
        with pytest.raises(ValidationError, match="at most 24 links, got 25") as info:
            make_policy(spec, wide, None, None, policy_rng=np.random.default_rng(0))
        assert info.value.path == "network.R"
    PolicySpec("IDLE").check_size(wide)


def test_quadratic_objective_plans_handover():
    # example1, last slot of AP1's sector (state 2): a packet fed now can
    # only be drained next slot, by AP2.  The exact objective values that
    # drain and feeds AP2; the surrogate sees no value in either empty relay
    # queue and takes the tie-break feed to AP1, where the packet strands.
    sc = scenario_example1()
    q0 = [1, 0, 0, 0]
    linear = first_control(sc.net, sc.chain, sc.arrivals, q0, 2, 2)
    quad = first_control(sc.net, sc.chain, sc.arrivals, q0, 2, 2, objective="quadratic")
    assert quad.tolist() == [0, 1, 0, 0, 0, 0]
    assert linear.tolist() == [0, 0, 1, 0, 0, 0]


def test_quadratic_policies_feasible():
    # example1 has 16 controls per slot: PNC-H6 searches 16^6 trajectories
    blue, ex1 = scenario_example2("blue"), scenario_example1()
    for sc, spec, slots in ((blue, PolicySpec("PNC", 2, objective="quadratic"), 300),
                            (blue, PolicySpec("FPNC", 3, objective="quadratic"), 300),
                            (ex1, PolicySpec("PNC", 6, objective="quadratic"), ex1.slots)):
        policy = make_policy(spec, sc.net, sc.chain, sc.arrivals)
        trace = run(sc.net, sc.chain, sc.arrivals, policy, slots, make_streams(4))
        assert trace.slots == slots  # run() itself verifies feasibility per step


def test_random_policy_mask_matches_check_feasible(rng):
    # copy links and extra source requirements make some controls need a
    # queue the positiveness rows do not ask for
    for _ in range(60):
        net = random_network(rng, allow_copy=True)
        raw = net.to_json()
        raw["S_req"] = (rng.random((net.n_q, net.n_v)) < 0.3).astype(int).tolist()
        net = validate_network(raw)
        policy = RandomPolicy(net, np.random.default_rng(0))
        V = enumerate_control_set(net)
        for _ in range(20):
            q = rng.integers(0, 3, size=net.n_q)
            mask = (q >= policy._need).all(axis=1)
            assert mask.tolist() == [check_feasible(net, q, v).ok for v in V]
            # the pick is the same draw among the same controls, in order
            seed = int(rng.integers(1 << 30))
            feasible = [v for v in V if check_feasible(net, q, v).ok]
            expect = feasible[int(np.random.default_rng(seed).integers(len(feasible)))]
            policy.rng = np.random.default_rng(seed)
            got = policy.decide(q, 0)
            assert got.dtype == np.int64 and got.tolist() == expect.tolist()


def test_random_policy_needs_its_stream():
    # rejected when made, not at its first decision
    sc = scenario_example2("red")
    with pytest.raises(ValueError, match="policy_rng"):
        make_policy(PolicySpec("RANDOM"), sc.net, sc.chain, sc.arrivals)
    policy = make_policy(PolicySpec("RANDOM"), sc.net, sc.chain, sc.arrivals,
                         policy_rng=make_streams(0).policy)
    assert policy.decide((0, 0), 0).tolist() == [0, 0, 0]
