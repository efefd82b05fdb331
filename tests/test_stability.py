"""Region membership/slicing and empirical stability classification."""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import qnet.stability

from qnet.dynamics import make_streams, run
from qnet.markov import validate_chain
from qnet.model import enumerate_control_set, validate_arrivals, validate_network
from qnet.harness import region_rows
from qnet.policies import IdlePolicy, MwPolicy
from qnet.scenarios import scenario_example2
from qnet.stability import (RegionQuery, assess_stability, mw_accessible_options,
                            region_membership, region_rows_to_csv, region_slice)

from conftest import random_network

EX2 = scenario_example2("red")
SCALE = Fraction(4)


def member(a1, a2, options=None, scale=SCALE):
    res = region_membership(RegionQuery(net=EX2.net, a_bar=(Fraction(a1), Fraction(a2)),
                                        options=options, effect_scale=scale))
    return res


def test_zero_rate_inside():
    relay = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                              "W": [[1.0, 1.0]]})
    res = region_membership(RegionQuery(net=relay, a_bar=(Fraction(0), Fraction(0))))
    assert res.kind == "inside" and res.eps > 0
    assert member(0, 0).kind == "inside"


def test_example2_full_axis_boundary():
    assert member(Fraction(194, 100), 0).kind == "inside"
    assert member(2, 0).kind == "boundary"
    assert member(Fraction(201, 100), 0).kind == "outside"


def test_example2_mw_axis_boundary():
    opts = mw_accessible_options(EX2.net)
    assert opts.tolist() == [[0, 0, 0], [0, 0, 1], [1, 0, 0]]
    assert member(Fraction(95, 100), 0, opts).kind == "inside"
    assert member(Fraction(105, 100), 0, opts).kind != "inside"


def test_restriction_monotone(rng):
    opts = mw_accessible_options(EX2.net)
    for _ in range(25):
        a1 = Fraction(int(rng.integers(0, 40)), 16)
        a2 = Fraction(int(rng.integers(0, 40)), 16)
        if member(a1, a2, opts).kind == "inside":
            assert member(a1, a2).kind == "inside"


def test_scaling_monotone(rng):
    inside_pts = [(Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))]
    for a1, a2 in inside_pts:
        assert member(a1, a2).kind == "inside"
        for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            assert member(theta * a1, theta * a2).kind == "inside"


def test_permutation_invariance():
    # swapping the two queues relabels rows everywhere and flips the rates
    raw = EX2.net.to_json()
    for key in ("R", "S_req"):
        raw[key] = [raw[key][1], raw[key][0]]
    raw["a_hat"] = raw["a_hat"][::-1]
    swapped = validate_network(raw)
    a = (Fraction(3, 2), Fraction(1, 2))
    orig = region_membership(RegionQuery(net=EX2.net, a_bar=a, effect_scale=SCALE))
    perm = region_membership(RegionQuery(net=swapped, a_bar=a[::-1], effect_scale=SCALE))
    assert orig.kind == perm.kind and orig.eps == perm.eps


def test_region_slice_boundaries():
    q = RegionQuery(net=EX2.net, a_bar=(Fraction(0), Fraction(0)), effect_scale=SCALE)
    rows = region_slice(q, [(1, 0), (1, 1)])
    by_dir = {(r["direction_x"], r["direction_y"]): r for r in rows}
    assert abs(by_dir[(1.0, 0.0)]["boundary_x"] - 2.0) < 1e-5
    # on the diagonal the synchronized option alone carries the ray to (4, 4)
    assert abs(by_dir[(1.0, 1.0)]["boundary_x"] - 4.0) < 1e-5
    assert abs(by_dir[(1.0, 1.0)]["boundary_y"] - 4.0) < 1e-5
    for r in rows:
        assert r["eps_at_half"] > 0

    mw = RegionQuery(net=EX2.net, a_bar=(Fraction(0), Fraction(0)),
                     options=mw_accessible_options(EX2.net), effect_scale=SCALE)
    rows = region_slice(mw, [(1, 0)])
    assert abs(rows[0]["boundary_x"] - 1.0) < 1e-5


def test_region_slice_bracket_property():
    q = RegionQuery(net=EX2.net, a_bar=(Fraction(0), Fraction(0)), effect_scale=SCALE)
    row = region_slice(q, [(1, 0)])[0]
    bx = Fraction(repr(row["boundary_x"]))
    assert member(bx * Fraction(9999, 10000), 0).kind == "inside"
    assert member(bx * Fraction(10001, 10000), 0).kind != "inside"


def test_region_slice_skips_degenerate():
    q = RegionQuery(net=EX2.net, a_bar=(Fraction(0), Fraction(0)), effect_scale=SCALE)
    with pytest.warns(UserWarning, match="degenerate"):
        rows = region_slice(q, [(0, 0), (1, 0)])
    assert len(rows) == 1


def bisection_oracle(query, directions, tol=1e-6, axes=(0, 1)):
    """Per-step bisection: one membership LP at every doubling and halving step."""
    ax, ay = axes
    rows = []
    for d in directions:
        dx, dy = Fraction(d[0]), Fraction(d[1])
        if dx == 0 and dy == 0:
            continue

        def member(r):
            a = [Fraction(0)] * query.net.n_q
            a[ax] = r * dx
            a[ay] = r * dy
            return region_membership(replace(query, a_bar=tuple(a)))

        lo, hi = Fraction(0), Fraction(1)
        for _ in range(64):
            if member(hi).kind != "inside":
                break
            lo, hi = hi, hi * 2
        else:
            raise RuntimeError(f"direction {d} appears unbounded")
        while hi - lo > Fraction(repr(tol)):
            mid = (lo + hi) / 2
            if member(mid).kind == "inside":
                lo = mid
            else:
                hi = mid
        r_star = (lo + hi) / 2
        eps_half = member(r_star / 2).eps
        rows.append({
            "direction_x": float(dx), "direction_y": float(dy),
            "boundary_x": float(r_star * dx), "boundary_y": float(r_star * dy),
            "eps_at_half": float(eps_half) if eps_half is not None else float("nan"),
        })
    return rows


def slice_csv(fn, query, directions, axes=(0, 1)):
    try:
        return region_rows_to_csv(fn(query, directions, axes=axes))
    except RuntimeError:
        return "unbounded"


# r_thr = 1 on the ray (1, 0) with margin 1/2 there; just past it no mix balances
CLOSED = validate_network({"R": [[1, -1, 0, -1], [0, 1, -1, -1]], "C": [[1, 1, 1, 1]],
                           "c": [2], "W": [[0.25, 0.5, 0.5, 1.0]]})
# no mix drains all three queues equally, so the origin is on the boundary;
# along (0, 1, 1 - 2^-29) the margin is 2^-29 r, above 1e-9 only past r = 0.54
NO_ORIGIN = validate_network({"R": [[-1, 1], [-1, 0], [0, -1]], "C": [[1, 1]], "c": [2],
                              "W": [[1.0, 1.0]]})


def random_region_case(rng):
    net = random_network(rng, allow_copy=True)
    w = [int(x) for x in rng.integers(1, 5, size=net.n_s)]
    query = RegionQuery(net=net, a_bar=(Fraction(0),) * net.n_q,
                        pi=tuple(Fraction(x, sum(w)) for x in w),
                        options=mw_accessible_options(net) if rng.random() < 0.3 else None,
                        effect_scale=Fraction(int(rng.integers(1, 5))))
    axes = tuple(int(x) for x in rng.choice(net.n_q, size=2, replace=False))
    low = -4 if rng.random() < 0.3 else 0
    directions = []
    for _ in range(2):
        dx, dy = (Fraction(int(k), 8) for k in rng.integers(low, 9, size=2))
        directions.append((dx, dy) if dx or dy else (dx, Fraction(1)))
    return query, directions, axes


def test_region_slice_matches_bisection_oracle(rng, monkeypatch):
    ex2 = [RegionQuery(net=EX2.net, a_bar=(Fraction(0), Fraction(0)), options=opts,
                       effect_scale=SCALE)
           for opts in (None, mw_accessible_options(EX2.net))]
    fan = [(Fraction(repr(round(float(np.cos(t)), 6))), Fraction(repr(round(float(np.sin(t)), 6))))
           for t in np.linspace(0, np.pi / 2, 13)]
    cases = [(q, fan, (0, 1)) for q in ex2]
    cases.append((RegionQuery(net=CLOSED, a_bar=(0, 0)), [(1, 0), (0, 1), (1, 1)], (0, 1)))
    cases.append((RegionQuery(net=CLOSED, a_bar=(0, 0)), [(1, 0)], (1, 0)))
    cases.append((RegionQuery(net=NO_ORIGIN, a_bar=(0, 0, 0)),
                  [(1, 1 - Fraction(1, 2**29)), (1, 0), (1, 1)], (1, 2)))
    cases += [random_region_case(rng) for _ in range(20)]

    calls = []
    solve_lp = qnet.stability.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(qnet.stability, "solve_lp", counting_solve_lp)
    for query, directions, axes in cases:
        want = slice_csv(bisection_oracle, query, directions, axes)
        got = slice_csv(region_slice, query, directions, axes)
        assert got == want, (query.net.R.tolist(), directions, axes)
    # threshold LP, one membership LP at r_thr when a step lands on it, and
    # eps_at_half, plus the origin's membership LP once per call
    for query in ex2:
        calls.clear()
        region_slice(query, fan)
        assert len(calls) <= 3 * len(fan)
    calls.clear()
    region_slice(RegionQuery(net=CLOSED, a_bar=(0, 0)), [(1, 0), (0, 1)])
    assert len(calls) <= 3 * 2


def test_region_rows_time_bound():
    t0 = time.perf_counter()
    region_rows(scenario_example2("red"), "full", 13)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0


def test_assess_zero_arrivals_stable():
    sc = scenario_example2("red")
    zero = validate_arrivals({"kind": "constant", "value": [0, 0]}, 2)
    trace = run(sc.net, sc.chain, zero, MwPolicy(sc.net, sc.chain, zero), 400,
                make_streams(3), q0=[20, 5])
    verdict = assess_stability(trace)
    assert verdict.classification == "stable" and verdict.window == 200


def test_assess_idle_accumulates_at_arrival_rate():
    sc = scenario_example2("green")   # scaled (1.94, 0) -> 0.485 packets/slot
    trace = run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 4000, make_streams(4))
    verdict = assess_stability(trace)
    assert verdict.classification == "unstable"
    assert abs(verdict.slope - 0.485) < 0.1


def test_assess_requires_length():
    sc = scenario_example2("red")
    trace = run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 3, make_streams(1))
    with pytest.raises(ValueError, match="too short"):
        assess_stability(trace)
