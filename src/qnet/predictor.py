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
queue predicted from full-success transfers and mean arrivals.  The
quadratic objective adds the squared-transfer terms the surrogate drops, as
u'Qu (`_second_moments`); Q is what values a feed into an empty relay queue
followed by its drain.

A policy compiles the program of each (chain state s, H, objective) once
(`compile_program`), and each decision at q0 (`build_bip`) adds only what
depends on q0: the coupling bounds and the cost.  The first slot's own
constraint, q0 >= each control's queue need, is one more coupling row per
queue.  The compiled rows are built from the control table, the dense rows
(`build_constraints`, built when first read, which only the enumeration
oracle does) from R; the two builders share only the bounds, `_offsets`.

Only this relaxed prediction (one control vector per future slot) is
implemented.  Richer schemes that condition future controls on realized
chain states or full realizations would replace `build_bip`'s variable
layout; they are deliberate non-goals here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, propagate
from .model import ArrivalProcess, Network, enumerate_control_set, queue_need
from .optim import Bip, BlockTables, block_tables


def _state_distributions(chain: MarkovChain, s: int, H: int) -> list[np.ndarray]:
    """Chain-state distributions sigma_0 .. sigma_{H-1} from state s; one propagation per step."""
    sigma = np.zeros(chain.n_s)
    sigma[int(s)] = 1.0
    sigmas = []
    for _ in range(H):
        sigmas.append(sigma)
        sigma = propagate(sigma, chain.P, 1)
    return sigmas


def _expected_cost(net: Network, q0, weights, arrived) -> np.ndarray:
    """Linear cost over the stacked trajectory, length H * n_v."""
    # row u is E[q0 + A_{u+1}], the uncontrolled mean queue after slot u
    drift = np.asarray(q0, dtype=np.float64) + arrived
    return np.concatenate([(2.0 * drift[t:].sum(axis=0) @ net.R) * w
                           for t, w in enumerate(weights)])


def _offsets(rate: tuple, H: int) -> list:
    """The offsets floor(t rate_i) as Python ints: the bound of the row of
    step t and queue i is q0_i + offsets[t][i], floored exactly because the
    row's value on a binary trajectory is an integer."""
    if H < 1:
        raise ValueError("horizon must be >= 1")
    return [[t * r.numerator // r.denominator for r in rate] for t in range(H)]


def build_constraints(net: Network, q0, rate: tuple, H: int):
    """Stacked inequality system (A, b) over {0,1}^{H n_v}.

    A is integer and b holds Python ints.  Rows come in three groups, in this
    order: constituency (n_c per block), positiveness (n_q per block: step
    t's rows read -R on the blocks before t and -R_minus at t), then one
    source row per link whose required source queues are empty at the
    decision state, pinning it to zero in the first block.  The source rows
    keep the first control feasible for copy links the positiveness rows
    cannot see.
    """
    offsets = _offsets(rate, H)
    eye, before = np.eye(H, dtype=np.int64), np.tri(H, k=-1, dtype=np.int64)
    gated = np.flatnonzero((np.asarray(q0) < 1) @ net.S_req > 0)
    A = np.concatenate([np.kron(eye, net.C),
                        np.kron(before, -net.R) - np.kron(eye, net.R_minus),
                        np.eye(H * net.n_v, dtype=np.int64)[gated]])
    b = ([int(x) for x in net.c] * H
         + [int(q) + f for step in offsets for q, f in zip(q0, step)]
         + [0] * len(gated))
    return A, b


@dataclass(frozen=True, eq=False)
class TrajectoryProgram:
    """The part of the horizon-H program at chain state s that no decision
    state changes.

    `tables` lays every block over all of V, the controls with C v <= c;
    `need` holds each control's `queue_need`.  `controls` pairs each row of
    V, read-only, with its need as a list: a solved trajectory is the
    controls at the candidate indices `solve_bip` returns.  The n_q rows of
    step tau couple blocks, bounded by q0 + `offsets` (zero at step 0):
    block t reads 0 when tau < t, the drain -R_minus v when tau = t and the
    full-success feed -R v when tau > t, but step 0 reads `need`, source
    requirements included.  The cost reads `weights`, sigma_t W per step,
    and `arrived`, the mean arrivals summed up to each step.
    """

    s: int
    H: int
    objective: str
    tables: BlockTables
    need: np.ndarray
    controls: list
    offsets: np.ndarray
    weights: list
    arrived: np.ndarray
    Q: np.ndarray | None


def compile_program(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
                    s: int, H: int, objective: str = "linear") -> TrajectoryProgram:
    """Compile the program of every decision at chain state s; `objective` as in
    `build_bip`."""
    offsets = _offsets(arrivals.rate, H)
    sigmas = _state_distributions(chain, s, H)
    if objective == "quadratic":
        means, Q = [arrivals.mean(t) for t in range(H)], _second_moments(net, chain, sigmas)
    else:
        means, Q = [arrivals.rate_float()] * H, None
    V = enumerate_control_set(net)
    need = queue_need(net, V)
    feed, drain, zero = -(V @ net.R.T), -(V @ net.R_minus.T), np.zeros_like(need)
    # lhs[t]: block t's part of the rows of steps 0 .. H-1, in step order
    lhs = [np.hstack([zero] * t + [drain if t else need] + [feed] * (H - 1 - t)) for t in range(H)]
    return TrajectoryProgram(int(s), H, objective, block_tables([V] * H, lhs, Q), need,
                             list(zip(V, need.tolist())), np.array(offsets, dtype=np.int64),
                             [sigma @ net.W for sigma in sigmas],
                             np.array(means).cumsum(axis=0), Q)


def build_bip(net: Network, chain: MarkovChain, arrivals: ArrivalProcess,
              q0, s: int, H: int, objective: str = "linear", *,
              program: TrajectoryProgram | None = None) -> Bip:
    """Full binary program for one policy decision.

    `objective` is "linear" (the surrogate `cost`) or "quadratic" (the exact
    expected sum of squares, const + cost.u + u'Qu).  `program` is the
    compiled program for (s, H, objective); without it one is compiled here.
    The `Bip` reads the program's tables as they are and adds the
    decision's coupling bounds, q0 + offsets, and the cost; the bounds of
    step 0, q0 itself, gate the first control.  The dense rows A, b come
    from `build_constraints` when first read.
    """
    if program is None:
        program = compile_program(net, chain, arrivals, s, H, objective)
    elif (program.s, program.H, program.objective) != (s, H, objective):
        raise ValueError(f"program compiled for (s, H, objective) = "
                         f"{(program.s, program.H, program.objective)}, "
                         f"not {(s, H, objective)}")
    q0 = np.asarray(q0)
    return Bip(n_v=net.n_v, H=H, cost=_expected_cost(net, q0, program.weights, program.arrived),
               Q=program.Q, blocks=program.tables, bounds=(program.offsets + q0).ravel(),
               rows=lambda: build_constraints(net, q0, arrivals.rate, H))


def _second_moments(net: Network, chain: MarkovChain, sigmas) -> np.ndarray:
    """Q of the quadratic objective, from the chain-state distributions sigmas.

    With X_t the transfers and A_t the arrivals before slot t, the cross term
    2 E[q0 + A_t] . E[X_t] gives the cost (`_expected_cost`) and E|X_t|^2
    gives Q, with entry (H - max(t, r)) (R'R)_{jk} E[m_tj m_rk] for links
    j, k in blocks t, r.
    Within a block E[m_tj m_tk] = sum_s sigma_t(s) W_sj W_sk, or sigma_t W_j
    on the diagonal; across blocks it is sigma_t diag(W_j) P^(r-t) W_k.
    Periodic arrivals are read from phase 0 (`ArrivalProcess.mean(t)` at
    horizon step t): a decision carries no slot index.
    """
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
