"""Simplex and branch-and-bound solvers against oracles."""

import numpy as np
import pytest
from fractions import Fraction
from itertools import product

from qnet.errors import EnumerationLimitError
from qnet.optim import Bip, LpProblem, solve_bip, solve_bip_exhaustive, solve_lp
from qnet import optim
from qnet.model import enumerate_control_set
from qnet.predictor import build_bip, build_constraints

from conftest import random_arrivals, random_chain, random_network
from oracles import dense_block_tables, solve_dense

scipy_opt = pytest.importorskip("scipy.optimize")


def _random_bip(rng, n=None):
    n = n or int(rng.integers(1, 13))
    m = int(rng.integers(0, 8))
    A = rng.integers(-2, 3, size=(m, n)).astype(np.int64)
    b = [int(x) for x in rng.integers(-1, 6, size=m)]
    cost = rng.integers(-64, 65, size=n) / 256.0
    return Bip(n_v=n, H=1, cost=cost, A=A, b=b)


def test_lp_trivial_bound():
    sol = solve_lp(LpProblem(cost=[1], A_ub=[[1]], b_ub=[1]))
    assert sol.status == "optimal" and sol.value == 1


def test_lp_exact_only():
    with pytest.raises(ValueError, match="exact"):
        solve_lp(LpProblem(cost=[1]), exact=False)


def test_lp_numpy_scalars_stay_exact():
    # a Fraction built from np.int64 keeps it as its numerator: 2^62 * 4
    # would wrap to 0 with only a RuntimeWarning
    sol = solve_lp(LpProblem(cost=[np.int64(4)], A_ub=[[np.int64(1)]], b_ub=[np.int64(2**62)]))
    assert sol.status == "optimal" and sol.value == 2**64
    assert type(sol.value.numerator) is int and type(sol.x[0].numerator) is int


def test_lp_statuses():
    assert solve_lp(LpProblem(cost=[1], A_ub=[[0]], b_ub=[-1])).status == "infeasible"
    assert solve_lp(LpProblem(cost=[1])).status == "unbounded"


def test_lp_exact_equalities():
    # max e  s.t.  e + l = -1/2, l >= 0, e free as e' - e''  ->  e = -1/2 at l = 0
    sol = solve_lp(LpProblem(cost=[1, -1, 0], A_eq=[[1, -1, 1]], b_eq=[Fraction(-1, 2)]),
                   exact=True)
    assert sol.status == "optimal" and sol.value == Fraction(-1, 2)
    assert sol.x[0] - sol.x[1] == Fraction(-1, 2) and sol.x[2] == 0


def test_lp_matches_scipy_on_random_instances(rng):
    for _ in range(120):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 7, size=m).astype(float)
        cost = rng.integers(-8, 9, size=n).astype(float)
        # min cost.x over 0 <= x <= 1 is max -cost.x with the rows x <= 1 appended
        mine = solve_lp(LpProblem(cost=list(-cost), A_ub=A.tolist() + np.eye(n).tolist(),
                                  b_ub=list(b) + [1] * n))
        ref = scipy_opt.linprog(cost, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert abs(-mine.value - ref.fun) < 1e-7


def test_lp_equalities_match_scipy(rng):
    # equality rows, one of them duplicated (phase 1 leaves its artificial
    # basic on an all-zero row, which is dropped), and a free variable z as
    # the columns z' - z'' (the last two); feasible by construction at x0
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m_ub, m_eq = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        A_ub = rng.integers(-3, 4, size=(m_ub, n + 1))
        A_eq = rng.integers(-3, 4, size=(m_eq, n + 1))
        A_eq = np.vstack([A_eq, A_eq[int(rng.integers(m_eq))]])
        x0 = np.append(rng.integers(0, 3, size=n), rng.integers(-3, 4))
        b_ub = A_ub @ x0 + rng.integers(0, 3, size=m_ub)
        b_eq = A_eq @ x0
        # |z| <= 3 and x <= 2 keep the optimum finite
        box = np.vstack([np.eye(n + 1), -np.eye(n + 1)[n:]]).astype(int)
        A_ub = np.vstack([A_ub, box])
        b_ub = np.append(b_ub, [2] * n + [3, 3])
        cost = rng.integers(-8, 9, size=n + 1)

        def split(A):   # z's column followed by its negation
            return np.hstack([A, -A[:, n:]]).tolist()

        mine = solve_lp(LpProblem(cost=list(cost) + [-cost[n]], A_ub=split(A_ub),
                                  b_ub=b_ub.tolist(), A_eq=split(A_eq), b_eq=b_eq.tolist()))
        ref = scipy_opt.linprog(-cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                bounds=[(0, None)] * n + [(None, None)], method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert abs(mine.value + ref.fun) < 1e-7
        x = np.array(mine.x, dtype=object)
        assert all(xj >= 0 for xj in x)
        assert (np.array(split(A_eq), dtype=object) @ x == b_eq).all()
        assert (np.array(split(A_ub), dtype=object) @ x <= b_ub).all()


def test_solve_bip_reads_only_block_tables():
    # a Bip given only dense rows has no tables for the branch and bound
    bip = Bip(n_v=2, H=1, cost=np.array([-1.0, 0.0]), A=np.array([[1, 1]], dtype=np.int64),
              b=[1])
    with pytest.raises(ValueError, match="build_bip"):
        solve_bip(bip)
    assert solve_dense(bip).x.tolist() == solve_bip_exhaustive(bip).x.tolist() == [1, 0]


def test_bip_idle_optimum():
    bip = Bip(n_v=3, H=1, cost=np.array([0.5, 0.0, 0.25]),
              A=np.array([[1, 1, 1]], dtype=np.int64), b=[2])
    sol = solve_dense(bip)
    assert sol.status == "optimal" and sol.x.tolist() == [0, 0, 0] and sol.value == 0.0


def test_bip_infeasible():
    # the zero-variable program still has a row to violate
    for bip in (Bip(n_v=2, H=1, cost=np.zeros(2),
                    A=np.array([[0, 0]], dtype=np.int64), b=[-1]),
                Bip(n_v=0, H=1, cost=np.zeros(0),
                    A=np.zeros((1, 0), dtype=np.int64), b=[-1])):
        assert solve_dense(bip).status == "infeasible"
        assert solve_bip_exhaustive(bip).status == "infeasible"


def test_bip_empty():
    bip = Bip(n_v=0, H=1, cost=np.zeros(0), A=np.zeros((0, 0), dtype=np.int64), b=[])
    for sol in (solve_dense(bip), solve_bip_exhaustive(bip)):
        assert sol.status == "optimal" and sol.value == 0.0 and len(sol.x) == 0


def test_bip_matches_exhaustive(rng):
    for _ in range(400):
        bip = _random_bip(rng)
        s1, s2 = solve_dense(bip), solve_bip_exhaustive(bip)
        assert s1.status == s2.status
        if s1.status == "optimal":
            assert s1.value == s2.value
            assert np.array_equal(s1.x, s2.x)


def test_lexicographic_tie_break():
    # both singletons cost the same; the later column wins lexicographically
    bip = Bip(n_v=2, H=1, cost=np.array([-1.0, -1.0]),
              A=np.array([[1, 1]], dtype=np.int64), b=[1])
    assert solve_dense(bip).x.tolist() == [0, 1]
    assert solve_bip_exhaustive(bip).x.tolist() == [0, 1]


def test_relaxation_lower_bounds_binary(rng):
    for _ in range(60):
        bip = _random_bip(rng, n=int(rng.integers(2, 9)))
        binary = solve_dense(bip)
        if binary.status != "optimal":
            continue
        # min cost.x over 0 <= x <= 1: max -cost.x with the rows x <= 1 appended
        relax = solve_lp(LpProblem(cost=list(-bip.cost),
                                   A_ub=[list(r) for r in bip.A] + np.eye(bip.n).tolist(),
                                   b_ub=list(bip.b) + [1] * bip.n))
        assert relax.status == "optimal"
        assert -relax.value <= binary.value + 1e-9


def test_bip_deterministic_and_node_capped(rng):
    for _ in range(30):
        bip = _random_bip(rng, n=8)
        s1, s2 = solve_dense(bip), solve_dense(bip)
        assert s1.nodes == s2.nodes and s1.status == s2.status
        if s1.status == "optimal":
            assert np.array_equal(s1.x, s2.x)
        assert s1.nodes <= 2 ** (bip.n + 1)


def test_exhaustive_guard():
    bip = Bip(n_v=21, H=1, cost=np.zeros(21), A=np.zeros((0, 21), dtype=np.int64), b=[])
    with pytest.raises(EnumerationLimitError):
        solve_bip_exhaustive(bip)


def test_fractional_rhs_exact():
    # x1 + x2 <= 3/2 admits exactly one active variable
    bip = Bip(n_v=2, H=1, cost=np.array([-1.0, -0.5]),
              A=np.array([[1, 1]], dtype=np.int64), b=[Fraction(3, 2)])
    assert solve_dense(bip).x.tolist() == [1, 0]


@pytest.mark.parametrize("chunk", [None, 1])
def test_block_search_matches_exhaustive_on_trajectory_programs(rng, monkeypatch, chunk):
    # chunk 1 loops every block but the last, so prefixes are pruned; sparse
    # backlogs starve sources, whose gates leave V_0 smaller than V
    if chunk is not None:
        monkeypatch.setattr(optim, "SCAN_CHUNK", chunk)
    gated = 0
    for k in range(300):
        net = random_network(rng, allow_copy=True)
        H = int(rng.integers(2, 5))
        while H * net.n_v > 12:
            H -= 1
        chain = random_chain(rng, net.n_s)
        q0 = rng.integers(0, 3, size=net.n_q)
        bip = build_bip(net, chain, random_arrivals(rng, net.n_q), q0, chain.s0, H)
        if k % 2:
            bip.cost = rng.integers(-8, 9, size=bip.n) / 8.0   # frequent exact ties
        gated += len(bip.A) > H * (net.C.shape[0] + net.n_q)   # source rows come last
        s1, s2 = solve_bip(bip), solve_bip_exhaustive(bip)
        assert s1.status == s2.status == "optimal", k
        assert s1.value == s2.value and np.array_equal(s1.x, s2.x), k
    assert gated > 50


@pytest.mark.parametrize("chunk", [None, 1])
def test_block_search_generic_coupled_rows(rng, monkeypatch, chunk):
    # rows span several blocks with mixed signs and fractional right-hand sides
    if chunk is not None:
        monkeypatch.setattr(optim, "SCAN_CHUNK", chunk)
    statuses = set()
    for _ in range(200):
        H, n_v = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        n, m = H * n_v, int(rng.integers(1, 6))
        A = rng.integers(-2, 3, size=(m, n)).astype(np.int64)
        b = [Fraction(int(x), int(d)) for x, d in zip(rng.integers(-2, 6, size=m),
                                                     rng.integers(1, 4, size=m))]
        bip = Bip(n_v=n_v, H=H, cost=rng.integers(-4, 5, size=n) / 4.0, A=A, b=b)
        s1, s2 = solve_dense(bip), solve_bip_exhaustive(bip)
        statuses.add(s1.status)
        assert s1.status == s2.status
        if s1.status == "optimal":
            assert s1.value == s2.value and np.array_equal(s1.x, s2.x)
    assert statuses == {"optimal", "infeasible"}


def test_live_rows_of_generic_coupled_rows(rng):
    # every row spans two blocks or more and no row is local, so each block
    # lists all its controls and reads every row it has a coefficient in
    for _ in range(100):
        H, n_v = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        A = rng.integers(-2, 3, size=(8, H * n_v)).astype(np.int64)
        A = A[(A.reshape(8, H, n_v) != 0).any(axis=2).sum(axis=1) > 1]
        bip = Bip(n_v=n_v, H=H, cost=rng.integers(-4, 5, size=H * n_v) / 4.0, A=A,
                  b=[int(x) for x in rng.integers(-2, 6, size=len(A))])
        tables, _ = dense_block_tables(bip)
        for t in range(H):
            expected = np.flatnonzero(A[:, t * n_v:].any(axis=1))
            assert tables.live[t].tolist() == expected.tolist(), (A, t)
        assert np.array_equal(solve_dense(bip).x, solve_bip_exhaustive(bip).x)


def test_block_search_coupled_example():
    # two blocks of two links; u0 + u2 <= 1 and u1 - u3 >= 0 couple them
    bip = Bip(n_v=2, H=2, cost=np.array([-1.0, -1.0, -2.0, -1.5]),
              A=np.array([[1, 0, 1, 0], [0, -1, 0, 1], [1, 1, 0, 0]], dtype=np.int64),
              b=[1, 0, 1])
    sol = solve_dense(bip)
    assert sol.status == "optimal" and sol.x.tolist() == [0, 1, 1, 1] and sol.value == -4.5
    assert np.array_equal(sol.x, solve_bip_exhaustive(bip).x)


def test_block_search_limit():
    # raised before any of the 2^25 controls of the block are listed
    bip = Bip(n_v=25, H=1, cost=np.zeros(25), A=np.zeros((0, 25), dtype=np.int64), b=[])
    with pytest.raises(EnumerationLimitError):
        solve_dense(bip)


@pytest.mark.parametrize("chunk", [None, 1])
def test_quadratic_scan_matches_enumeration(rng, monkeypatch, chunk):
    # solve_bip with a quadratic term against brute force over V^H and
    # against solve_bip_exhaustive.  Coarse dyadic coefficients: values are
    # exact and ties are frequent, so the lexicographic tie-break is
    # exercised; chunk 1 branches on every block but the last
    if chunk is not None:
        monkeypatch.setattr(optim, "SCAN_CHUNK", chunk)
    for _ in range(150):
        net = random_network(rng, allow_copy=True)
        H = int(rng.integers(1, 4))
        n = H * net.n_v
        cost = rng.integers(-4, 5, size=n) / 4.0
        Q = rng.integers(-2, 3, size=(n, n)) / 4.0
        q0 = rng.integers(0, 3, size=net.n_q)
        A, b = build_constraints(net, q0, random_arrivals(rng, net.n_q).rate, H)
        V = enumerate_control_set(net)
        best, best_val = None, np.inf
        for traj in product(V, repeat=H):
            u = np.concatenate(traj)
            if any(Fraction(int(lhs)) > Fraction(r) for lhs, r in zip(A @ u, b)):
                continue
            val = cost @ u + u @ Q @ u
            if val < best_val - 1e-9:
                best, best_val = u, val
        bip = Bip(n_v=net.n_v, H=H, cost=cost, A=A, b=b, Q=Q)
        sol = solve_dense(bip)
        assert sol.status == "optimal"
        assert sol.x.tolist() == best.tolist()
        assert sol.value == best_val
        oracle = solve_bip_exhaustive(bip)
        assert np.array_equal(sol.x, oracle.x) and sol.value == oracle.value
