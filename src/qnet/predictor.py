"""Builds the H-step prediction data consumed by the receding-horizon policy.

For a horizon H the policy minimizes, by default, a linear surrogate of the
expected sum-of-squares queue objective over binary control trajectories
u_0 .. u_{H-1}.  The surrogate cost for block t is

    [2(H-t) q0 + (H+1+t)(H-t) a_bar] . R . What_t

where What_t is the expected success-probability diagonal t slots ahead.
Constituency constraints repeat per block; positiveness constraints are
block-lower-triangular: the drain scheduled in slot t may not exceed the
queue predicted from full-success transfers and mean arrivals.

`quadratic_objective` gives the exact objective in closed form instead, as
const + cost.u + u'Qu; Q holds the squared-transfer terms the surrogate
drops, which is what values a feed into an empty relay queue followed by
its drain.

Only this relaxed prediction (one control vector per future slot) is
implemented.  Richer schemes that condition future controls on realized
chain states or full realizations would replace `build_bip`'s variable
layout; they are deliberate non-goals here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .errors import EnumerationLimitError
from .markov import MarkovChain, propagate
from .model import ArrivalProcess, Network
from .optim import Bip

ORACLE_MAX_VARS = 16


def _state_distributions(chain: MarkovChain, s: int, H: int) -> list[np.ndarray]:
    """Chain-state distributions sigma_0 .. sigma_{H-1} from state s; one propagation per step."""
    sigma = np.zeros(chain.n_s)
    sigma[int(s)] = 1.0
    sigmas = []
    for _ in range(H):
        sigmas.append(sigma)
        sigma = propagate(sigma, chain.P, 1)
    return sigmas


def expected_weights_horizon(chain: MarkovChain, W: np.ndarray, s: int, H: int) -> np.ndarray:
    """Stack What_0 .. What_{H-1} as rows."""
    return np.array([sigma @ W for sigma in _state_distributions(chain, s, H)])


def build_objective(net: Network, chain: MarkovChain, q0, s: int, a_bar, H: int) -> np.ndarray:
    """Linear cost vector over the stacked trajectory, length H * n_v."""
    if H < 1:
        raise ValueError("horizon must be >= 1")
    q0 = np.asarray(q0, dtype=np.float64)
    a_bar = np.asarray(a_bar, dtype=np.float64)
    What = expected_weights_horizon(chain, net.W, s, H)
    blocks = []
    for t in range(H):
        lead = 2.0 * (H - t) * q0 + float((H + 1 + t) * (H - t)) * a_bar
        blocks.append((lead @ net.R) * What[t])
    return np.concatenate(blocks)


def build_constraints(net: Network, q0, rate: tuple, H: int):
    """Stacked inequality system (A, b) over {0,1}^{H n_v}.

    A is integer; b entries are exact (ints or Fractions built from the mean
    arrival rate).  Rows come in three groups, in this order: constituency
    (n_c per block), positiveness (n_q per block), then one source row per
    link whose required source queues are empty at the decision state,
    pinning it to zero in the first block.  The source rows keep the first
    control feasible for copy links that the positiveness rows cannot see.
    """
    if H < 1:
        raise ValueError("horizon must be >= 1")
    n_v, n_q = net.n_v, net.n_q
    n = H * n_v
    rows, rhs = [], []

    for t in range(H):
        for k in range(net.C.shape[0]):
            row = np.zeros(n, dtype=np.int64)
            row[t * n_v:(t + 1) * n_v] = net.C[k]
            rows.append(row)
            rhs.append(int(net.c[k]))
    for t in range(H):
        for i in range(n_q):
            row = np.zeros(n, dtype=np.int64)
            row[t * n_v:(t + 1) * n_v] = -net.R_minus[i]
            for tau in range(t):
                row[tau * n_v:(tau + 1) * n_v] = -net.R[i]
            rows.append(row)
            rhs.append(int(q0[i]) + t * Fraction(rate[i]))
    for j in range(n_v):
        if any(net.S_req[i, j] and q0[i] < 1 for i in range(n_q)):
            row = np.zeros(n, dtype=np.int64)
            row[j] = 1
            rows.append(row)
            rhs.append(0)

    return np.array(rows, dtype=np.int64), rhs


def build_bip(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
              q0, s: int, H: int, objective: str = "linear") -> Bip:
    """Full binary program for one policy decision.

    `objective` is "linear" (the surrogate) or "quadratic" (the exact
    expected sum of squares, from `quadratic_objective`).
    """
    if objective == "quadratic":
        cost, Q = quadratic_objective(net, chain, arrivals, q0, s, H)
    else:
        cost, Q = build_objective(net, chain, q0, s, arrivals.rate_float(), H), None
    A, b = build_constraints(net, q0, arrivals.rate, H)
    return Bip(n_v=net.n_v, H=H, cost=cost, A=A, b=b, Q=Q)


def quadratic_objective(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
                        q0, s: int, H: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[sum_{t=1..H} q_t'q_t] as const + cost.u + u'Qu; returns (cost, Q).

    Same open-loop model as `quadratic_objective_oracle`, in closed form.
    With X_t the transfers and A_t the arrivals before slot t, the cross term
    2 E[q0 + A_t] . E[X_t] gives `cost` (equal to `build_objective` for iid
    or constant arrivals) and E|X_t|^2 gives Q, with entry
    (H - max(t, r)) (R'R)_{jk} E[m_tj m_rk] for links j, k in blocks t, r.
    Within a block E[m_tj m_tk] = sum_s sigma_t(s) W_sj W_sk, or sigma_t W_j
    on the diagonal; across blocks it is sigma_t diag(W_j) P^(r-t) W_k.
    Periodic arrivals are read from phase 0 (`ArrivalProcess.mean(t)` at
    horizon step t), as in the oracle: a decision carries no slot index.
    """
    if H < 1:
        raise ValueError("horizon must be >= 1")
    n_v = net.n_v
    R, W, P = net.R, net.W, chain.P
    sigmas = _state_distributions(chain, s, H)
    # row t is E[q0 + A_{t+1}], the uncontrolled mean queue after slot t
    drift = (np.asarray(q0, dtype=np.float64)
             + np.cumsum([arrivals.mean(t) for t in range(H)], axis=0))
    gram = (R.T @ R).astype(np.float64)
    cost = np.zeros(H * n_v)
    Q = np.zeros((H * n_v, H * n_v))
    for t in range(H):
        bt = slice(t * n_v, (t + 1) * n_v)
        cost[bt] = (2.0 * drift[t:].sum(axis=0) @ R) * (sigmas[t] @ W)
        weighted = sigmas[t][:, None] * W          # sigma_t(s) W_sj
        moment = W.T @ weighted
        np.fill_diagonal(moment, sigmas[t] @ W)    # m^2 = m for one coin flip
        Q[bt, bt] = (H - t) * gram * moment
        ahead = W
        for r in range(t + 1, H):
            br = slice(r * n_v, (r + 1) * n_v)
            ahead = P @ ahead                      # P^(r-t) W
            block = (H - r) * gram * (weighted.T @ ahead)
            Q[bt, br] = block
            Q[br, bt] = block.T
    return cost, Q


# ---------------------------------------------------------------------------
# Exact quadratic oracle


def _bernoulli_outcomes(active, probs):
    """All (mask, probability) outcomes for the active links' coin flips."""
    if not active:
        return [(np.zeros(len(probs), dtype=np.int64), Fraction(1))]
    out = []
    for bits in product((0, 1), repeat=len(active)):
        mask = np.zeros(len(probs), dtype=np.int64)
        pr = Fraction(1)
        for j, hit in zip(active, bits):
            w = probs[j]
            pr *= w if hit else 1 - w
            mask[j] = hit
        if pr > 0:
            out.append((mask, pr))
    return out


def quadratic_objective_oracle(net: Network, chain: MarkovChain,
                               arrivals: ArrivalProcess, q0, s0: int,
                               H: int, u_traj) -> Fraction:
    """Exact E[sum_{t=1..H} q_t'q_t | q0, s0] under open-loop controls.

    Enumerates the full outcome tree (chain paths, per-link coin flips,
    arrival outcomes) in rational arithmetic.  The scheduled controls are
    applied unconditionally, exactly as the relaxed prediction model assumes,
    so intermediate states may go negative.  Periodic arrivals are read from
    phase 0: horizon step t draws `arrivals.support(t)`.  Small instances only.
    """
    u = np.asarray(u_traj, dtype=np.int64).reshape(H, net.n_v)
    if H * net.n_v > ORACLE_MAX_VARS:
        raise EnumerationLimitError(
            f"oracle limited to {ORACLE_MAX_VARS} trajectory variables, got {H * net.n_v}")
    W_frac = [[Fraction(x) for x in row] for row in net.W]
    P_frac = [[Fraction(x) for x in row] for row in chain.P]
    R = net.R

    memo: dict = {}

    def rec(t: int, q: tuple, s: int) -> Fraction:
        if t == H:
            return Fraction(0)
        key = (t, q, s)
        if key in memo:
            return memo[key]
        active = [j for j in range(net.n_v) if u[t, j]]
        total = Fraction(0)
        qv = np.array(q, dtype=np.int64)
        for mask, pm in _bernoulli_outcomes(active, W_frac[s]):
            moved = R @ mask if active else np.zeros(net.n_q, dtype=np.int64)
            for a_vec, pa in arrivals.support(t):
                q1 = qv + moved + a_vec
                w = pm * pa
                contrib = Fraction(int((q1 * q1).sum()))
                if t + 1 < H:
                    sub = Fraction(0)
                    for s1 in range(chain.n_s):
                        p = P_frac[s][s1]
                        if p > 0:
                            sub += p * rec(t + 1, tuple(int(x) for x in q1), s1)
                    contrib += sub
                total += w * contrib
        memo[key] = total
        return total

    return rec(0, tuple(int(x) for x in np.asarray(q0)), int(s0))
