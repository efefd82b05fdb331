"""Stability-region arithmetic and empirical stability classification.

Region membership solves, in exact rational arithmetic,

    max eps  s.t.  a_bar + sum_s pi_s sum_v lambda_{s,v} (R W^s v) = -eps 1,
                   lambda >= 0,  sum_v lambda_{s,v} <= 1  per state,

and reports inside when the optimum exceeds 1e-9.  An infeasible program
means no averaged control balances the arrival vector at all, which is
likewise outside.

Region boundaries along a ray a_bar = r d use the same constraints with r
as a variable: one threshold LP maximizes r subject to eps >= 1e-9, which
is exactly where the ray leaves the region.  `region_slice` still reports
the midpoint of a bisection bracket, so its rows keep the values a per-step
membership bisection prints; it decides each step against the threshold
instead of solving a membership LP there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import Trace
from .model import Network, enumerate_control_set
from .optim import LpProblem, solve_lp

EPS_THRESHOLD = Fraction(1, 10**9)
BRACKET_WIDTH = Fraction(1, 10**6)


@dataclass(eq=False)
class RegionQuery:
    net: Network
    a_bar: tuple                       # exact per-queue mean rates
    pi: tuple | None = None            # explicit stationary weights; required when n_s > 1
    options: np.ndarray | None = None  # restricted control set; default: full enumeration
    effect_scale: Fraction = Fraction(1)  # unit scale applied to R W^s v


@dataclass
class RegionResult:
    kind: str                 # inside | boundary | outside
    eps: Fraction | None


def mw_accessible_options(net: Network) -> np.ndarray:
    """Controls reachable by backlog-driven scheduling: copy links excluded.

    A copy link (a column with +1 entries but no -1) only ever increases the
    weighted backlog, so a myopic argmax never activates it.
    """
    V = enumerate_control_set(net)
    copy_links = ((net.R == 1).any(axis=0)) & (~(net.R == -1).any(axis=0))
    keep = ~(V[:, copy_links] == 1).any(axis=1) if copy_links.any() else np.ones(len(V), bool)
    return V[keep]


def _resolve_pi(query: RegionQuery) -> list[Fraction]:
    if query.pi is not None:
        return [Fraction(p) for p in query.pi]
    if query.net.n_s == 1:
        return [Fraction(1)]
    raise ValueError("multi-state region queries need explicit stationary weights pi")


class _RegionProgram:
    """The constraints every region LP of one query shares, over lambda >= 0:

        lead . y + sum_k lambda_k cols[k] = rhs   (one row per queue),
        sum_v lambda_{s,v} <= 1                   (one row per state),

    where cols[k] is the exact effect pi_s * scale * (R W^s v) of option v
    in state s, state-major.
    """

    def __init__(self, query: RegionQuery):
        net = query.net
        V = query.options if query.options is not None else enumerate_control_set(net)
        pi = _resolve_pi(query)
        scale = Fraction(query.effect_scale)
        self.n_s, self.n_opt = net.n_s, len(V)
        self.cols = []
        for s in range(net.n_s):
            RW = [[Fraction(int(net.R[i, j])) * Fraction(net.W[s][j]) for j in range(net.n_v)]
                  for i in range(net.n_q)]
            for v in V:
                on = np.flatnonzero(v)
                self.cols.append([scale * pi[s] * sum((RW[i][j] for j in on), Fraction(0))
                                  for i in range(net.n_q)])

    def _solve(self, lead: list, rhs: list, cost: list):
        """max cost . y over [y, lambda] >= 0; lead[i] holds row i's y coefficients."""
        n_y, n_lam = len(cost), len(self.cols)
        A_eq = [lead[i] + [c[i] for c in self.cols] for i in range(len(rhs))]
        A_ub = []
        for s in range(self.n_s):
            row = [0] * (n_y + n_lam)
            row[n_y + s * self.n_opt:n_y + (s + 1) * self.n_opt] = [1] * self.n_opt
            A_ub.append(row)
        return solve_lp(LpProblem(cost=cost + [0] * n_lam, A_ub=A_ub, b_ub=[1] * self.n_s,
                                  A_eq=A_eq, b_eq=rhs), exact=True)

    def membership(self, a_bar: list) -> RegionResult:
        """max eps  s.t.  a_bar + sum lambda col = -eps 1, with eps = y0 - y1 free."""
        sol = self._solve([[1, -1] for _ in a_bar], [-a for a in a_bar], [1, -1])
        if sol.status == "infeasible":
            return RegionResult("outside", None)
        if sol.status == "unbounded":
            # cannot happen with a finite option set and nonnegative rates
            raise RuntimeError("region program unbounded; inputs are inconsistent")
        eps = Fraction(sol.value)
        if eps > EPS_THRESHOLD:
            return RegionResult("inside", eps)
        if eps < -EPS_THRESHOLD:
            return RegionResult("outside", eps)
        return RegionResult("boundary", eps)

    def threshold(self, ray: list):
        """max r >= 0  s.t.  r ray + eps 1 + sum lambda col = 0 with eps >= EPS_THRESHOLD.

        Returns the exact optimum, None when no r >= 0 qualifies, and inf
        when r is unbounded.  The columns are r and y = eps - EPS_THRESHOLD.
        """
        sol = self._solve([[d, 1] for d in ray], [-EPS_THRESHOLD] * len(ray), [1, 0])
        if sol.status == "infeasible":
            return None
        if sol.status == "unbounded":
            return math.inf
        return Fraction(sol.value)


def region_membership(query: RegionQuery) -> RegionResult:
    program = _RegionProgram(query)
    a_bar = [Fraction(x) for x in query.a_bar]
    if len(a_bar) != query.net.n_q:
        raise ValueError(f"expected {query.net.n_q} arrival rates, got {len(a_bar)}")
    return program.membership(a_bar)


def region_slice(query: RegionQuery, directions,
                 axes: tuple[int, int] = (0, 1)) -> list[dict]:
    """Boundary points along rays from the origin in a 2-d arrival plane.

    Returns one row per ray: direction, boundary point, and eps at half the
    boundary radius.  The boundary radius is the midpoint of a bisection
    bracket of width 1e-6 (doubling from 1, then halving), so the rows keep
    the values a per-step membership bisection prints.  Its steps are not
    LPs: one threshold LP gives the exact radius r_thr where the ray leaves
    the region, and a step at x > 0 is inside exactly when x < r_thr, or
    x == r_thr and membership says inside there (a closed boundary, where
    the program turns infeasible just past r_thr).  This holds because the
    membership margin is concave along the ray and exceeds the threshold at
    the origin.  In the one case where it does not, the origin not inside
    while r_thr > 0, every step runs its membership LP.  So a ray costs the
    threshold LP, at most one membership LP at r_thr and the `eps_at_half`
    LP, plus one membership LP at the origin per call.  The effect columns
    are built once per call.
    """
    ax, ay = axes
    program = _RegionProgram(query)
    origin_inside = program.membership([Fraction(0)] * query.net.n_q).kind == "inside"
    rows = []
    for d in directions:
        dx, dy = Fraction(d[0]), Fraction(d[1])
        if dx == 0 and dy == 0:
            warnings.warn("skipping degenerate direction (0, 0)")
            continue
        ray = [Fraction(0)] * query.net.n_q
        ray[ax] = dx
        ray[ay] = dy

        def member(r: Fraction) -> RegionResult:
            return program.membership([r * x for x in ray])

        r_thr = program.threshold(ray)
        if r_thr is None:
            r_thr = Fraction(0)    # no r >= 0 reaches the threshold: no step x > 0 is inside
        if r_thr > 0 and not origin_inside:
            def inside(x: Fraction) -> bool:
                return member(x).kind == "inside"
        else:
            def inside(x: Fraction) -> bool:
                return x < r_thr or (x == r_thr and member(x).kind == "inside")

        lo, hi = Fraction(0), Fraction(1)
        for _ in range(64):
            if not inside(hi):
                break
            lo, hi = hi, hi * 2
        else:
            raise RuntimeError(f"direction {d} appears unbounded; inconsistent region")
        while hi - lo > BRACKET_WIDTH:
            mid = (lo + hi) / 2
            if inside(mid):
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


def region_rows_to_csv(rows: list[dict]) -> str:
    header = "direction_x,direction_y,boundary_x,boundary_y,eps_at_half"
    lines = [header]
    for r in rows:
        lines.append(",".join(repr(r[k]) for k in header.split(",")))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Empirical classification


STABLE_SLOPE = 0.01        # packets per slot
UNSTABLE_SLOPE = 0.05
QUEUE_FACTOR = 100.0       # bound = factor * mean arrival * sqrt(window)
QUEUE_FLOOR = 100.0        # lets zero-arrival traces classify as stable
MIN_ASSESS_SLOTS = 4       # the window, the second half, needs two slots


@dataclass
class StabilityVerdict:
    classification: str            # stable | unstable | inconclusive
    slope: float
    window: int


def assess_stability(trace: Trace) -> StabilityVerdict:
    """Least-squares slope of the total queue over the trace's second half."""
    series = trace.total_queue_series()
    if len(series) < MIN_ASSESS_SLOTS:
        raise ValueError(f"trace of {len(series)} slots is too short")
    window = len(series) // 2
    tail = series[-window:].astype(np.float64)
    ts = np.arange(window, dtype=np.float64)
    ts -= ts.mean()
    slope = float((ts * (tail - tail.mean())).sum() / (ts * ts).sum())
    mean_arrival = trace.cumulative_arrivals() / trace.slots
    bound = max(QUEUE_FACTOR * mean_arrival * np.sqrt(window), QUEUE_FLOOR)
    if slope > UNSTABLE_SLOPE:
        cls = "unstable"
    elif slope < STABLE_SLOPE and tail.max() < bound:
        cls = "stable"
    else:
        cls = "inconclusive"
    return StabilityVerdict(cls, slope, window)
