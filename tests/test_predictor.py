"""Horizon objective, stacked constraints, and the exact quadratic oracle."""

import math

import numpy as np
import pytest
from fractions import Fraction
from itertools import product

from qnet.markov import propagate, validate_chain
from qnet.model import validate_arrivals, validate_network, enumerate_control_set
from qnet.predictor import build_bip, build_constraints

from conftest import random_arrivals, random_chain, random_network, zero_arrivals
from oracles import quadratic_objective_oracle

RELAY = validate_network({"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1],
                          "W": [[1.0, 1.0]]})
RELAY_CHAIN = validate_chain({"P": [[1.0]], "s0": 0})


def _feasible(A, b, x):
    lhs = A @ x
    return all(Fraction(int(l)) <= Fraction(r) for l, r in zip(lhs, b))


def _expected_weights(chain, W, s, H):
    """What_0 .. What_{H-1} as rows: sigma_t W with sigma_t = e_s P^t."""
    start = np.eye(chain.n_s)[s]
    return np.array([propagate(start, chain.P, t) @ W for t in range(H)])


def test_expected_weights_single_state():
    W = np.array([[0.25, 0.75]])
    chain = validate_chain({"P": [[1.0]], "s0": 0})
    assert np.allclose(_expected_weights(chain, W, 0, 4), [[0.25, 0.75]] * 4)


def test_expected_weights_identity_chain():
    W = np.array([[0.25, 0.75], [1.0, 0.0]])
    chain = validate_chain({"P": [[1.0, 0.0], [0.0, 1.0]], "s0": 1})
    assert np.allclose(_expected_weights(chain, W, 1, 4), [[1.0, 0.0]] * 4)


def test_expected_weights_alternating_chain():
    # a 0/1 chain from a single state stays exact, slot by slot
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    chain = validate_chain({"P": [[0.0, 1.0], [1.0, 0.0]], "s0": 0})
    assert _expected_weights(chain, W, 0, 3).tolist() == [[1.0, 0.0], [0.0, 1.0],
                                                          [1.0, 0.0]]


def test_objective_h1_formula(rng):
    for _ in range(20):
        net = random_network(rng)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        q0 = rng.integers(0, 6, size=net.n_q)
        cost = build_bip(net, chain, arr, q0, chain.s0, 1).cost
        w0 = net.W[chain.s0]
        expect = 2.0 * (q0 + arr.rate_float()) @ net.R * w0
        assert np.allclose(cost, expect, atol=1e-12)


def test_objective_zero_inputs():
    cost = build_bip(RELAY, RELAY_CHAIN, zero_arrivals(2), [0, 0], 0, 3).cost
    assert np.array_equal(cost, np.zeros(6))


def test_objective_block_coefficients(rng):
    # block t carries weights 2(H-t) on q0 and (H+1+t)(H-t) on the mean rate;
    # the final block always has 2 and 2H
    net = random_network(rng)
    chain = random_chain(rng, net.n_s)
    H = 4
    q0 = rng.integers(0, 5, size=net.n_q)
    arr = random_arrivals(rng, net.n_q)
    a = arr.rate_float()
    What = _expected_weights(chain, net.W, chain.s0, H)
    cost = build_bip(net, chain, arr, q0, chain.s0, H).cost
    for t in range(H):
        lead = 2 * (H - t) * q0 + (H + 1 + t) * (H - t) * a
        assert np.allclose(cost[t * net.n_v:(t + 1) * net.n_v], (lead @ net.R) * What[t])
    assert np.allclose(cost[(H - 1) * net.n_v:],
                       ((2 * q0 + 2 * H * a) @ net.R) * What[H - 1])


def _row_families(net, H):
    """Leading row counts of build_constraints: constituency, then positiveness."""
    return H * net.C.shape[0], H * net.n_q


def test_constraints_h1_collapse():
    A, b = build_constraints(RELAY, [0, 5], (Fraction(0), Fraction(0)), 1)
    # one constituency row, two positiveness rows, then one source gate:
    # queue 0 is empty, so link 0 is pinned to zero
    assert A.tolist() == [[0, 0], [1, 0], [0, 1], [1, 0]] and b == [1, 0, 5, 0]
    # activating link 0 drains the empty first queue: infeasible
    assert not _feasible(A, b, np.array([1, 0]))
    assert _feasible(A, b, np.array([0, 1]))


def test_constraints_two_step_pipeline():
    # one packet at the head queue: feed it forward, then drain it
    A, b = build_constraints(RELAY, [1, 0], (Fraction(0), Fraction(0)), 2)
    good = np.array([1, 0, 0, 1])   # link 0 first, link 1 second
    bad = np.array([0, 1, 0, 0])    # draining the empty second queue first
    assert _feasible(A, b, good)
    assert not _feasible(A, b, bad)


def test_constituency_stacking_matches_control_set(rng):
    for _ in range(20):
        net = random_network(rng)
        H = int(rng.integers(1, 4))
        q0 = rng.integers(3, 8, size=net.n_q)   # loose positiveness
        A, b = build_constraints(net, q0, tuple([Fraction(0)] * net.n_q), H)
        n_c, _ = _row_families(net, H)
        Ac, bc = A[:n_c], b[:n_c]
        V = {tuple(v) for v in enumerate_control_set(net).tolist()}
        for _ in range(30):
            x = rng.integers(0, 2, size=H * net.n_v)
            per_slot = all(tuple(x[t * net.n_v:(t + 1) * net.n_v]) in V for t in range(H))
            assert _feasible(Ac, bc, x) == per_slot


def test_positiveness_soundness(rng):
    # any trajectory admitted by the stacked system keeps the full-success,
    # mean-arrival predicted queues nonnegative at every slot
    for _ in range(40):
        net = random_network(rng)
        H = int(rng.integers(1, 4))
        q0 = rng.integers(0, 4, size=net.n_q)
        rate = random_arrivals(rng, net.n_q).rate
        A, b = build_constraints(net, q0, rate, H)
        n_c, n_pos = _row_families(net, H)
        # every bound is a Python int; positiveness bounds are floored exactly
        assert all(type(r) is int for r in b)
        assert b[n_c:n_c + n_pos] == [math.floor(int(q0[i]) + t * rate[i])
                                      for t in range(H) for i in range(net.n_q)]
        A, b = A[:n_c + n_pos], b[:n_c + n_pos]    # without the source gates
        for _ in range(20):
            x = rng.integers(0, 2, size=H * net.n_v)
            if not _feasible(A, b, x):
                continue
            q = [Fraction(int(v)) for v in q0]
            for t in range(H):
                u = x[t * net.n_v:(t + 1) * net.n_v]
                drained = [q[i] + sum(Fraction(int(net.R_minus[i, j])) * int(u[j])
                                      for j in range(net.n_v)) for i in range(net.n_q)]
                assert all(d >= 0 for d in drained)
                q = [q[i] + sum(Fraction(int(net.R[i, j])) * int(u[j])
                                for j in range(net.n_v)) + rate[i]
                     for i in range(net.n_q)]


# ---------------------------------------------------------------------------
# Exact quadratic oracle


def test_oracle_deterministic_one_step():
    arr = validate_arrivals({"kind": "constant", "value": [1, 0]}, 2)
    for v in product((0, 1), repeat=2):
        got = quadratic_objective_oracle(RELAY, RELAY_CHAIN, arr, [2, 1], 0, 1, [list(v)])
        q1 = np.array([2, 1]) + RELAY.R @ np.array(v) + np.array([1, 0])
        assert got == Fraction(int((q1 * q1).sum()))


def test_oracle_idle_growth():
    arr = validate_arrivals({"kind": "constant", "value": [1, 1]}, 2)
    got = quadratic_objective_oracle(RELAY, RELAY_CHAIN, arr, [0, 0], 0, 3,
                                     np.zeros((3, 2), dtype=int))
    expect = sum(Fraction(2 * t * t) for t in range(1, 4))
    assert got == expect


def _tiny_instance(rng):
    net = random_network(rng, n_q=2, n_v=2, n_s=2)
    chain = random_chain(rng, 2)
    arr = random_arrivals(rng, 2)
    H = 2
    q0 = rng.integers(0, 5, size=2)
    return net, chain, arr, H, q0


def test_oracle_linear_extraction_matches_objective(rng):
    # per-coordinate: the q0/rate-dependent linear part of the exact quadratic
    # equals the surrogate cost to 1e-9
    for _ in range(25):
        net, chain, arr, H, q0 = _tiny_instance(rng)
        zero = zero_arrivals(2)
        cost = build_bip(net, chain, arr, q0, chain.s0, H).cost
        n = H * net.n_v
        J = lambda u, q, a: quadratic_objective_oracle(net, chain, a, q, chain.s0, H, np.array(u).reshape(H, net.n_v))
        base = [0] * n
        for k in range(n):
            e_k = [1 if i == k else 0 for i in range(n)]
            delta_full = J(e_k, q0, arr) - J(base, q0, arr)
            delta_zero = J(e_k, [0, 0], zero) - J(base, [0, 0], zero)
            assert abs(float(delta_full - delta_zero) - cost[k]) < 1e-9


def test_oracle_remainder_independent_of_state_scale(rng):
    # J(u) - J(0) grows exactly linearly with the initial queue scale
    for _ in range(10):
        net, chain, arr, H, q0 = _tiny_instance(rng)
        q0 = q0 + 1
        u = rng.integers(0, 2, size=(H, net.n_v))
        J = lambda q: (quadratic_objective_oracle(net, chain, arr, q, chain.s0, H, u)
                       - quadratic_objective_oracle(net, chain, arr, q, chain.s0, H,
                                                    np.zeros((H, net.n_v), dtype=int)))
        d1 = J(q0) - J([0, 0])
        d1000 = J([int(x) * 1000 for x in q0]) - J([0, 0])
        assert d1000 == 1000 * d1


def _closed_form_instance(rng, k):
    """Small oracle-sized instance; every third one has periodic arrivals."""
    n_s = 2 if k % 2 else 1
    net = random_network(rng, n_s=n_s, allow_copy=True)
    chain = random_chain(rng, n_s)
    if k % 3 == 0:
        pattern = rng.integers(0, 3, size=(int(rng.integers(1, 4)), net.n_q))
        arr = validate_arrivals({"kind": "deterministic-periodic",
                                 "pattern": pattern.tolist()}, net.n_q)
    else:
        arr = random_arrivals(rng, net.n_q)
    H = int(rng.integers(1, 4))
    while H * net.n_v > 6:
        H -= 1
    q0 = rng.integers(0, 5, size=net.n_q)
    return net, chain, arr, H, q0


def test_quadratic_closed_form_matches_oracle(rng):
    # J(u) - J(0) = cost.u + u'Qu exactly, copy links and 2-state chains included
    for k in range(60):
        net, chain, arr, H, q0 = _closed_form_instance(rng, k)
        bip = build_bip(net, chain, arr, q0, chain.s0, H, "quadratic")
        cost, Q = bip.cost, bip.Q
        zero = np.zeros((H, net.n_v), dtype=int)
        j0 = quadratic_objective_oracle(net, chain, arr, q0, chain.s0, H, zero)
        for _ in range(5):
            u = rng.integers(0, 2, size=H * net.n_v)
            ju = quadratic_objective_oracle(net, chain, arr, q0, chain.s0, H,
                                            u.reshape(H, net.n_v))
            assert abs(cost @ u + u @ Q @ u - float(ju - j0)) < 1e-9, k


def test_quadratic_linear_part_is_surrogate(rng):
    # for iid arrivals the closed form's linear part is the surrogate cost,
    # bit for bit: both come from one computation
    for _ in range(50):
        net = random_network(rng, allow_copy=True)
        chain = random_chain(rng, net.n_s)
        arr = random_arrivals(rng, net.n_q)
        H = int(rng.integers(1, 5))
        q0 = rng.integers(0, 6, size=net.n_q)
        cost = build_bip(net, chain, arr, q0, chain.s0, H, "quadratic").cost
        surrogate = build_bip(net, chain, arr, q0, chain.s0, H).cost
        assert np.array_equal(cost, surrogate)
