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

A policy compiles the program of each (chain state s, H, objective) once,
with `compile_program`: the controls V with C v <= c in lexicographic order
and their queue needs, each block's part of the positiveness rows that
couple blocks, the trailing-block grid, sigma_0 .. sigma_{H-1} with the
summed mean arrivals, and for the quadratic objective Q with its per-block
and pair tables.  A decision at q0 (`build_bip`) recomputes only what
depends on q0: the first controls it allows, q0 >= need (positiveness at
t = 0 and the source gates), the coupling bounds q0_i + floor(t rate_i),
and the cost.  Its dense rows (`build_constraints`) are built when first
read, which only the enumeration oracle does.

Only this relaxed prediction (one control vector per future slot) is
implemented.  Richer schemes that condition future controls on realized
chain states or full realizations would replace `build_bip`'s variable
layout; they are deliberate non-goals here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import queue_need
from .markov import MarkovChain, propagate
from .model import ArrivalProcess, Network, enumerate_control_set
from .optim import Bip, BlockTables, block_tables


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


def _cost_terms(net: Network, sigmas, means) -> tuple[list, np.ndarray]:
    """What `_expected_cost` reads besides q0: sigma_t W, the expected link
    successes t slots ahead, per step, and the mean arrival vectors `means`
    of the horizon steps summed up to each step."""
    return [sigma @ net.W for sigma in sigmas], np.array(means).cumsum(axis=0)


def _expected_cost(net: Network, q0, weights, arrived) -> np.ndarray:
    """Linear cost over the stacked trajectory, length H * n_v, from `_cost_terms`."""
    # row u is E[q0 + A_{u+1}], the uncontrolled mean queue after slot u
    drift = np.asarray(q0, dtype=np.float64) + arrived
    return np.concatenate([(2.0 * drift[t:].sum(axis=0) @ net.R) * w
                           for t, w in enumerate(weights)])


def build_objective(net: Network, chain: MarkovChain, q0, s: int, a_bar, H: int) -> np.ndarray:
    """Linear surrogate cost over the stacked trajectory, with mean rate a_bar every step."""
    return _expected_cost(net, q0, *_cost_terms(net, _state_distributions(chain, s, H),
                                                [a_bar] * H))


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
    n_v, n_q, n_c = net.n_v, net.n_q, net.C.shape[0]
    constituency = np.zeros((H, n_c, H, n_v), dtype=np.int64)
    positiveness = np.zeros((H, n_q, H, n_v), dtype=np.int64)
    for t in range(H):
        constituency[t, :, t] = net.C
        positiveness[t, :, t] = -net.R_minus
        positiveness[t, :, :t] = -net.R[:, None]
    gated = np.flatnonzero((np.asarray(q0) < 1) @ net.S_req > 0)
    A = np.concatenate([constituency.reshape(H * n_c, H * n_v),
                        positiveness.reshape(H * n_q, H * n_v),
                        np.eye(H * n_v, dtype=np.int64)[gated]])
    steps = [(t, i) for t in range(H) for i in range(n_q)]
    b = ([int(x) for x in net.c] * H
         + [int(q0[i]) + f for (_, i), f in zip(steps, _floor_arrivals(rate, steps))]
         + [0] * len(gated))
    return A, b


def _floor_arrivals(rate: tuple, steps) -> list:
    """floor(t rate_i) for each (t, i) in `steps`, exactly, as Python ints."""
    frac = [(r.numerator, r.denominator) for r in rate]
    return [t * frac[i][0] // frac[i][1] for t, i in steps]


@dataclass(frozen=True)
class TrajectoryProgram:
    """The part of the horizon-H program at chain state s that no decision
    state changes.

    `tables` lays every block over all of V, the controls with C v <= c,
    and leaves the first-block mask and the coupling bounds unset; `need`
    holds each control's `queue_need`.  The rows coupling blocks are the
    positiveness rows (t, i) of `build_constraints` at steps t >= 1, in its
    order; row (t, i) has `queues` entry i and `offsets` entry
    floor(t rate_i).  `weights` and `arrived` are the cost's `_cost_terms`.
    """

    s: int
    H: int
    objective: str
    tables: BlockTables
    need: np.ndarray
    queues: np.ndarray
    offsets: np.ndarray
    weights: list
    arrived: np.ndarray
    Q: np.ndarray | None


def compile_program(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
                    s: int, H: int, objective: str = "linear") -> TrajectoryProgram:
    """Compile the program of every decision at chain state s; `objective` as in
    `build_bip`."""
    sigmas = _state_distributions(chain, s, H)
    if objective == "quadratic":
        means, Q = [arrivals.mean(t) for t in range(H)], _second_moments(net, chain, sigmas)
    else:
        means, Q = [arrivals.rate_float()] * H, None
    V = enumerate_control_set(net)
    # the coupling rows are the positiveness rows of steps t = 1 .. H-1; a
    # control's part of row (t, i) is -R_i v before step t and -R_minus_i v at it
    steps = [(t, i) for t in range(1, H) for i in range(net.n_q)]
    feed, drain = -(V @ net.R.T), -(V @ net.R_minus.T)
    lhs = np.zeros((H, len(V), H - 1, net.n_q), dtype=np.int64)
    for t in range(1, H):
        lhs[:t, :, t - 1] = feed
        lhs[t, :, t - 1] = drain
    lhs = list(lhs.reshape(H, len(V), len(steps)))
    queues = np.array([i for _, i in steps], dtype=np.intp)
    offsets = np.array(_floor_arrivals(arrivals.rate, steps), dtype=np.int64)
    return TrajectoryProgram(int(s), H, objective, block_tables([V] * H, lhs, Q),
                             queue_need(net, V), queues, offsets,
                             *_cost_terms(net, sigmas, means), Q)


def build_bip(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
              q0, s: int, H: int, objective: str = "linear", *,
              program: TrajectoryProgram | None = None) -> Bip:
    """Full binary program for one policy decision.

    `objective` is "linear" (the surrogate) or "quadratic" (the exact
    expected sum of squares, from `quadratic_objective`).  `program` is the
    compiled program for (s, H, objective); without it one is compiled here.
    The decision adds the first controls q0 allows (q0 >= need), the
    coupling bounds q0_i + floor(t rate_i) and the cost.  The dense rows A, b
    come from `build_constraints` when first read.
    """
    if program is None:
        program = compile_program(net, chain, arrivals, s, H, objective)
    elif (program.s, program.H, program.objective) != (s, H, objective):
        raise ValueError(f"program compiled for (s, H, objective) = "
                         f"{(program.s, program.H, program.objective)}, "
                         f"not {(s, H, objective)}")
    q0 = np.asarray(q0)
    blocks = replace(program.tables, first=(q0 >= program.need).all(axis=1),
                     b=q0[program.queues] + program.offsets)
    return Bip(n_v=net.n_v, H=H, cost=_expected_cost(net, q0, program.weights, program.arrived),
               Q=program.Q, blocks=blocks,
               rows=lambda: build_constraints(net, q0, arrivals.rate, H))


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
    sigmas = _state_distributions(chain, s, H)
    means = [arrivals.mean(t) for t in range(H)]
    return (_expected_cost(net, q0, *_cost_terms(net, sigmas, means)),
            _second_moments(net, chain, sigmas))


def _second_moments(net: Network, chain: MarkovChain, sigmas) -> np.ndarray:
    """Q of `quadratic_objective`, from the chain-state distributions sigmas."""
    n_v, H = net.n_v, len(sigmas)
    R, W, P = net.R, net.W, chain.P
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
    return Q
