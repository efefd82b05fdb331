"""In-repo solvers: dense two-phase simplex and trajectory search over binaries.

The simplex runs in exact `Fraction` arithmetic with zero tolerance (used for
region-membership and region-threshold programs), with Bland's rule for
anti-cycling.  Binary trajectory programs, with a linear or a quadratic
objective, are solved by branch and bound over per-slot control sets, read
from the tables of a compiled program (`BlockTables`); the enumeration
oracle reads a program's dense rows instead, over the binary vectors that
`model.binary_chunks` lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np

from .errors import EnumerationLimitError, SolverStallError
from .model import binary_chunks

OPT_TOL = 1e-9
MAX_PIVOTS = 20000   # per simplex phase


# ---------------------------------------------------------------------------
# Linear programs


@dataclass
class LpProblem:
    """max cost.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    A free variable is two columns, x = x' - x''; a lower bound lo is the
    shift x = lo + x'.
    """

    cost: list
    A_ub: list = field(default_factory=list)
    b_ub: list = field(default_factory=list)
    A_eq: list = field(default_factory=list)
    b_eq: list = field(default_factory=list)


@dataclass
class LpSolution:
    status: str                  # optimal | infeasible | unbounded
    x: list | None
    value: object | None


def _simplex_core(T, basis):
    """Phase-2 style iteration on tableau T with reduced costs in the last row.

    Returns "optimal" or "unbounded". Bland's rule: entering column is the
    lowest index with negative reduced cost; leaving row breaks ratio ties by
    lowest basis-variable index.
    """
    m = len(basis)
    ncols = T.shape[1] - 1
    for _ in range(MAX_PIVOTS):
        enter = -1
        for j in range(ncols):
            if T[m, j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            a = T[i, enter]
            if a > 0:
                ratio = T[i, -1] / a
                if best is None or ratio < best:
                    best, leave = ratio, i
                elif ratio == best and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise SolverStallError(
        f"simplex exceeded {MAX_PIVOTS} pivots (m={m}, n={ncols}); "
        "the instance may be degenerate or badly scaled")


def _pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    pivot_row = T[row]
    for i in range(T.shape[0]):
        if i != row:
            f = T[i, col]
            if f != 0:
                T[i] = T[i] - f * pivot_row
    basis[row] = col


def _exact(x) -> Fraction:
    """x as a Fraction.  Numpy scalars become Python numbers first: a Fraction
    built from np.int64 keeps it as its numerator, which then overflows."""
    return Fraction(x.item() if isinstance(x, np.generic) else x)


def solve_lp(problem: LpProblem, exact: bool = True) -> LpSolution:
    """Two-phase dense simplex on Fractions; the optimum is exact.

    The tableau holds the columns of x, then one slack per A_ub row, with the
    A_ub rows first; a row with a negative right-hand side is negated.
    `exact` must be True: there is no floating-point mode.
    """
    if not exact:
        raise ValueError("solve_lp runs in exact arithmetic only; exact=False is not supported")
    zero, one = Fraction(0), Fraction(1)
    n, n_ub = len(problem.cost), len(problem.A_ub)
    rows = list(zip(problem.A_ub, problem.b_ub)) + list(zip(problem.A_eq, problem.b_eq))
    m = len(rows)
    width = n + n_ub

    T = np.full((m + 1, width + 1), zero, dtype=object)
    basis = [0] * m
    needs_artificial = []
    for i, (coeffs, rhs) in enumerate(rows):
        T[i, :n] = [_exact(a) for a in coeffs]
        T[i, -1] = _exact(rhs)
        if i < n_ub:
            T[i, n + i] = one
        if T[i, -1] < zero:
            T[i] = -T[i]
        if i < n_ub and T[i, n + i] == one:
            basis[i] = n + i
        else:
            needs_artificial.append(i)

    if needs_artificial:
        art = np.full((m + 1, len(needs_artificial)), zero, dtype=object)
        for a_idx, i in enumerate(needs_artificial):
            art[i, a_idx] = one
            basis[i] = width + a_idx
        T = np.concatenate([T[:, :width], art, T[:, width:]], axis=1)
        # phase-1 objective: minimize the artificial sum
        for a_idx in range(len(needs_artificial)):
            T[m, width + a_idx] = one
        for i in needs_artificial:
            T[m] = T[m] - T[i]
        status = _simplex_core(T, basis)
        if status != "optimal" or T[m, -1] < 0:
            return LpSolution("infeasible", None, None)
        # drive remaining artificials out of the basis (or drop redundant rows)
        drop = []
        for i in range(m):
            if basis[i] >= width:
                piv = next((j for j in range(width) if T[i, j] != 0), None)
                if piv is not None:
                    _pivot(T, basis, i, piv)
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = T[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(basis)
        T = np.concatenate([T[:, :width], T[:, -1:]], axis=1)

    # phase 2 minimizes -cost.x
    cost = [_exact(c) for c in problem.cost]
    T[m, :] = zero
    T[m, :n] = [-c for c in cost]
    for i in range(m):
        if basis[i] < n and cost[basis[i]] != 0:
            T[m] = T[m] + cost[basis[i]] * T[i]
    status = _simplex_core(T, basis)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    x = [zero] * width
    for i in range(m):
        x[basis[i]] = T[i, -1]
    x = x[:n]
    return LpSolution("optimal", x, sum(c * xj for c, xj in zip(cost, x)))


# ---------------------------------------------------------------------------
# Binary linear programs


class Bip:
    """min cost.u + u'Qu  s.t.  A u <= b,  u in {0,1}^n, with H blocks of n_v vars.

    A is integer, and b is given as ints or Fractions and read floored, as
    int64: A u is an integer, so A u <= b exactly when A u <= floor(b).  The
    cost is floating point with a 1e-9 optimality tolerance.  Q is None for
    a linear objective.

    `solve_bip` reads only `blocks`, a compiled program's tables, and
    `bounds`, its int64 coupling bounds; the dense rows are for
    `solve_bip_exhaustive`.  `build_bip` gives them as `rows`, a function
    returning (A, b) that runs when A or b is first read.
    """

    def __init__(self, n_v: int, H: int, cost: np.ndarray, A=None, b=None, Q=None, *,
                 blocks: BlockTables | None = None, bounds: np.ndarray | None = None, rows=None):
        self.n_v, self.H, self.cost, self.Q = n_v, H, cost, Q
        self.blocks, self.bounds = blocks, bounds
        self._rows = rows if rows is not None else lambda: (A, b)

    @cached_property
    def _dense(self):
        A, b = self._rows()
        return A, np.array([math.floor(x) for x in b], dtype=np.int64)

    @property
    def A(self) -> np.ndarray:
        return self._dense[0]

    @property
    def b(self) -> np.ndarray:
        return self._dense[1]

    @property
    def n(self) -> int:
        return self.H * self.n_v

    def value(self, x: np.ndarray) -> float:
        """Objective value of the binary vector x."""
        quad = 0.0 if self.Q is None else x @ self.Q @ x
        return float(np.dot(self.cost, x) + quad)


@dataclass(eq=False)
class BipSolution:
    x: np.ndarray | None
    value: float | None
    status: str          # optimal | infeasible
    nodes: int = 0
    blocks: list | None = None   # solve_bip: each block's index into its candidates V[t]


SCAN_CHUNK = 1 << 10   # rows per array; a 2^12-row grid ran no faster and held 5x the memory


@dataclass(frozen=True, eq=False)
class BlockTables:
    """The constraints and quadratic term of a trajectory program, as the
    block search reads them.

    V[t] holds block t's candidate controls in lexicographic order.  lhs[t]
    is each candidate's part of the rows coupling blocks: a trajectory is
    feasible iff sum_t lhs[t] <= b, the bounds `Bip.bounds` passes.  A row
    may read one block only, as the rows gating block 0 do.  live[t] lists
    the rows some block t .. H-1 reads: a prefix of blocks 0 .. t-1 settles
    every other row.  Blocks k .. H-1 form one lexicographic grid of
    candidate indices, with summed lhs `glhs` on the rows live[k], and
    min_lhs[t] is the least lhs of blocks t .. H-1.  With a quadratic term,
    qlin[t] is each candidate's u'Qu inside block t, pair[t, r] the cross
    terms of blocks t < r, gpair their sum over the grid's blocks, and
    min_pair[t] the least pair entries summed over blocks t .. H-1.
    """

    V: list
    lhs: list
    live: list
    k: int
    grid: np.ndarray
    glhs: np.ndarray
    min_lhs: np.ndarray
    qlin: list | None = None
    pair: dict | None = None
    gpair: np.ndarray | int = 0
    min_pair: list | None = None


def block_tables(V: list, lhs: list, Q=None) -> BlockTables:
    """Tables over nonempty candidate lists V[t] and their coupling parts lhs[t].

    The grid takes the most trailing blocks whose candidates multiply to at
    most SCAN_CHUNK rows, and at least the last block; SCAN_CHUNK is read
    here, when the tables are built.  They hold no bound: each decision
    passes its own, as `Bip.bounds`.
    """
    H, n_v = len(V), V[0].shape[1]
    sizes = [len(v) for v in V]
    k = H - 1
    while k > 0 and prod(sizes[k - 1:]) <= SCAN_CHUNK:
        k -= 1
    grid = np.indices(sizes[k:]).reshape(H - k, -1).T
    min_lhs = [np.zeros(lhs[0].shape[1], dtype=np.int64)]   # built from the back
    read = [np.zeros(lhs[0].shape[1], dtype=bool)]
    for x in reversed(lhs):
        min_lhs.append(min_lhs[-1] + x.min(axis=0))
        read.append(read[-1] | (x != 0).any(axis=0))
    min_lhs.reverse()
    live = [np.flatnonzero(r) for r in reversed(read[1:])]
    glhs = sum(lhs[k + i][grid[:, i]] for i in range(H - k))[:, live[k]]
    if Q is None:
        return BlockTables(V, lhs, live, k, grid, glhs, min_lhs)
    bt = [slice(t * n_v, (t + 1) * n_v) for t in range(H)]
    qlin = [np.einsum("ai,ij,aj->a", v, Q[s, s], v) for v, s in zip(V, bt)]
    pair = {(t, r): V[t] @ (Q[bt[t], bt[r]] + Q[bt[r], bt[t]].T) @ V[r].T
            for t, r in combinations(range(H), 2)}
    gpair = sum(pair[k + i, k + j][grid[:, i], grid[:, j]]
                for i, j in combinations(range(H - k), 2))
    min_pair = [sum(pair[p].min() for p in combinations(range(t, H), 2)) for t in range(H)]
    return BlockTables(V, lhs, live, k, grid, glhs, min_lhs, qlin, pair, gpair, min_pair)


def _improve(rows: np.ndarray, vals: np.ndarray, best_val: float):
    """Scan feasible grid rows in order, replacing the incumbent only when beaten
    by more than 1e-9; returns the last replacing row (or None) and its value."""
    # only a value below every earlier one can displace the incumbent
    prev = np.minimum.accumulate(np.concatenate(([best_val], vals)))[:-1]
    best = None
    for i in np.flatnonzero(vals < prev):
        if vals[i] < best_val - OPT_TOL:
            best, best_val = rows[i], float(vals[i])
    return best, best_val


def solve_bip(bip: Bip) -> BipSolution:
    """Branch and bound over whole slot controls, in lexicographic order.

    The search reads only `bip.blocks`, a compiled program's tables, and
    `bip.bounds`; a `Bip` without tables raises `ValueError`.
    Trajectories in V_0 x ... x V_{H-1} are visited in lexicographic order,
    leading blocks depth first and the trailing ones as one grid.  The
    objective is a sum of per-block tables over V_t (cost and Q's diagonal
    blocks) and per-block-pair tables over V_t x V_r (Q's other blocks).
    A prefix's children enter the search only when their lhs plus each
    coupling row's least remaining part meets b (exactly, on integers).  A
    prefix is pruned when its value plus each remaining block's least
    conditional value (its table plus its pair terms with the prefix) plus
    each remaining pair's least entry is not 1e-9 below the incumbent.
    Replacing only on a gain over 1e-9 returns the lexicographically
    smallest optimum, as `solve_bip_exhaustive` does.

    Under a linear objective a prefix of depth t is also pruned when an
    earlier prefix of depth t, with the same lhs on the rows `live[t]` and
    a value no larger, was expanded.  Both have the same feasible
    completions, each adding the same terms, and a float sum is monotone in
    its first term: no completion of the later prefix scores below one of
    the earlier prefix, and none of those beat the incumbent by more than
    1e-9.  So the incumbent, its tie-break included, is the one the search
    without the rule returns.  A quadratic objective keeps no such rule,
    because its pair terms tie the remaining blocks' values to the prefix.

    The cost is read from `bip.cost` on every call.  `nodes` counts the
    prefixes visited, pruned or dominated ones included, each child
    rejected at its parent's expansion (a first control q0 does not allow
    is one), and the grid rows scored under each prefix that reaches the
    grid; `blocks` holds the optimum's candidate index in each V_t.
    """
    H, n_v = bip.H, bip.n_v
    tab = bip.blocks
    if tab is None:
        raise ValueError("solve_bip reads the block tables that build_bip gives a Bip; this "
                         "one has only dense rows, which solve_bip_exhaustive reads")
    V, lhs, live, b, k, grid, glhs, min_lhs = (tab.V, tab.lhs, tab.live, bip.bounds, tab.k,
                                               tab.grid, tab.glhs, tab.min_lhs)
    lin = [v @ c for v, c in zip(V, bip.cost.reshape(H, n_v))]
    quadratic = tab.qlin is not None
    if quadratic:
        lin = [x + q for x, q in zip(lin, tab.qlin)]
        pair, gpair, min_pair = tab.pair, tab.gpair, tab.min_pair
    else:
        gval = sum(lin[k + i][grid[:, i]] for i in range(H - k))
        min_lin = [0.0]   # least value of blocks t .. H-1, built from the back
        for x in reversed(lin):
            min_lin.append(min_lin[-1] + x.min())
        min_lin.reverse()

    best, best_val = None, np.inf
    # prefixes to visit: candidate indices, value, lhs, and each remaining
    # block's values conditional on the prefix; a root no trajectory fits is
    # one node
    stack = [([], 0.0, min_lhs[H], lin)] if (min_lhs[0] <= b).all() else []
    nodes = 1 - len(stack)
    # (depth, lhs on its live rows) -> least value of an expanded prefix; the
    # root, alone at depth 0, has no entry
    seen = {}
    while stack:
        path, head, acc, cond = stack.pop()
        t = len(path)
        bound = sum(c.min() for c in cond) + min_pair[t] if quadratic else min_lin[t]
        nodes += 1
        if head + bound >= best_val - OPT_TOL:
            continue
        if t and not quadratic:
            key = t, acc[live[t]].tobytes()
            if seen.get(key, np.inf) <= head:
                continue
            seen[key] = head
        if t < k:
            rest, nxt = cond[1:], acc + lhs[t]
            fits = (nxt + min_lhs[t + 1] <= b).all(axis=1)
            nodes += len(fits) - int(fits.sum())
            stack.extend(
                (path + [i], head + cond[0][i], nxt[i],
                 [c + pair[t, r][i] for r, c in enumerate(rest, t + 1)] if quadratic else rest)
                for i in reversed(np.flatnonzero(fits).tolist()))
            continue
        nodes += len(grid)
        if quadratic:
            vals = gpair + head + sum(c[grid[:, i]] for i, c in enumerate(cond))
        else:
            vals = gval + head
        rows = np.flatnonzero(vals < best_val - OPT_TOL)
        rows = rows[(glhs[rows] <= (b - acc)[live[k]]).all(axis=1)]
        row, best_val = _improve(rows, vals[rows], best_val)
        if row is not None:
            best = path + list(grid[row])

    if best is None:
        return BipSolution(None, None, "infeasible", nodes)
    x = np.concatenate([v[i] for v, i in zip(V, best)])
    return BipSolution(x, bip.value(x), "optimal", nodes, best)


def solve_bip_exhaustive(bip: Bip) -> BipSolution:
    """Full enumeration oracle with the same tolerance and tie-break."""
    n = bip.n
    if n > 20:
        raise EnumerationLimitError(f"exhaustive solve limited to 20 variables, got {n}")
    best_x = None
    best_val = np.inf
    for cand in binary_chunks(n, 1 << 14):
        cand = cand.astype(np.int64)
        lhs = cand @ bip.A.T
        feas = (lhs <= bip.b).all(axis=1)
        vals = cand @ bip.cost
        if bip.Q is not None:
            vals = vals + ((cand @ bip.Q) * cand).sum(axis=1)
        for idx in np.flatnonzero(feas):
            v = vals[idx]
            if v < best_val - OPT_TOL:
                best_val = v
                best_x = cand[idx].astype(np.int8)
    if best_x is None:
        return BipSolution(None, None, "infeasible", nodes=1 << n)
    return BipSolution(best_x, bip.value(best_x), "optimal", nodes=1 << n)
