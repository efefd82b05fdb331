"""Builds the H-step prediction data consumed by the receding-horizon policy.

For a horizon H the policy minimizes the expected sum of squared queues
E[sum_{t=1..H} q_t'q_t] over binary control trajectories u_0 .. u_{H-1}, or
by default its linear part.  `_expected_cost` is that part, the cross term
2 E[q0 + A_t] . E[X_t] between mean queue and transfers, for both objectives:
block t is

    2 sum_{u >= t} (q0 + a_0 + ... + a_u) . R . What_t

where a_u is the mean arrival vector of horizon step u and What_t the
expected success-probability diagonal t slots ahead.  It is affine in q0,
and no other part of either objective depends on q0.

Constituency constraints repeat per block; positiveness constraints are
block-lower-triangular: the drain scheduled in slot t may not exceed the
queue predicted from full-success transfers and mean arrivals.

`quadratic_objective` adds the squared-transfer terms the surrogate drops,
as const + cost.u + u'Qu; Q is what values a feed into an empty relay queue
followed by its drain.

Only this relaxed prediction (one control vector per future slot) is
implemented.  Richer schemes that condition future controls on realized
chain states or full realizations would replace `build_bip`'s variable
layout; they are deliberate non-goals here.
"""

from __future__ import annotations

import numpy as np

from .markov import MarkovChain, propagate
from .model import ArrivalProcess, Network
from .optim import Bip


def _state_distributions(chain: MarkovChain, s: int, H: int) -> list[np.ndarray]:
    """Chain-state distributions sigma_0 .. sigma_{H-1} from state s; one propagation per step."""
    if H < 1:
        raise ValueError("horizon must be >= 1")
    sigma = np.zeros(chain.n_s)
    sigma[int(s)] = 1.0
    sigmas = []
    for _ in range(H):
        sigmas.append(sigma)
        sigma = propagate(sigma, chain.P, 1)
    return sigmas


def _expected_cost(net: Network, sigmas, q0, means) -> np.ndarray:
    """Linear cost over the stacked trajectory, length H * n_v.

    `means[u]` is the mean arrival vector of horizon step u, and `sigmas[t]`
    the chain-state distribution t slots ahead.
    """
    # row u is E[q0 + A_{u+1}], the uncontrolled mean queue after slot u
    drift = np.asarray(q0, dtype=np.float64) + np.cumsum(means, axis=0)
    return np.concatenate([(2.0 * drift[t:].sum(axis=0) @ net.R) * (sigma @ net.W)
                           for t, sigma in enumerate(sigmas)])


def build_objective(net: Network, chain: MarkovChain, q0, s: int, a_bar, H: int) -> np.ndarray:
    """Linear surrogate cost over the stacked trajectory, with mean rate a_bar every step."""
    return _expected_cost(net, _state_distributions(chain, s, H), q0, [a_bar] * H)


def build_constraints(net: Network, q0, rate: tuple, H: int):
    """Stacked inequality system (A, b) over {0,1}^{H n_v}.

    A is integer and b holds Python ints: a positiveness bound q0_i + t rate_i
    is floored, which is exact because A u is an integer (`Bip` takes the
    same floor of any rational bound).  Rows come in three groups, in this
    order: constituency (n_c per block), positiveness (n_q per block), then
    one source row per link whose required source queues are empty at the
    decision state, pinning it to zero in the first block.  The source rows
    keep the first control feasible for copy links that the positiveness
    rows cannot see.
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
            rhs.append(int(q0[i]) + (t * rate[i].numerator) // rate[i].denominator)
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

    With X_t the transfers and A_t the arrivals before slot t, the cross term
    2 E[q0 + A_t] . E[X_t] gives `cost` (`_expected_cost`) and E|X_t|^2
    gives Q, with entry (H - max(t, r)) (R'R)_{jk} E[m_tj m_rk] for links
    j, k in blocks t, r.
    Within a block E[m_tj m_tk] = sum_s sigma_t(s) W_sj W_sk, or sigma_t W_j
    on the diagonal; across blocks it is sigma_t diag(W_j) P^(r-t) W_k.
    Periodic arrivals are read from phase 0 (`ArrivalProcess.mean(t)` at
    horizon step t): a decision carries no slot index.
    """
    n_v = net.n_v
    R, W, P = net.R, net.W, chain.P
    sigmas = _state_distributions(chain, s, H)
    cost = _expected_cost(net, sigmas, q0, [arrivals.mean(t) for t in range(H)])
    gram = (R.T @ R).astype(np.float64)
    Q = np.zeros((H * n_v, H * n_v))
    for t in range(H):
        bt = slice(t * n_v, (t + 1) * n_v)
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
