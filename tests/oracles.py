"""Test-only references: the exact quadratic objective and dense-row search tables.

`quadratic_objective_oracle` computes E[sum q_t'q_t] by enumerating the
outcome tree, a reference for the `cost` and `Q` of
`qnet.predictor.build_bip`, quadratic and linear; small instances only.
`solve_dense` solves a hand-built `Bip`, given only its dense rows, by the
branch and bound, from tables `dense_block_tables` builds from those rows.
`solve_tables_exhaustive` solves a `Bip` from its tables by scoring every
trajectory, past `solve_bip_exhaustive`'s 20-variable limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from qnet import optim
from qnet.errors import EnumerationLimitError
from qnet.markov import MarkovChain
from qnet.model import ArrivalProcess, Network
from qnet.optim import (OPT_TOL, Bip, BipSolution, BlockTables, binary_chunks, block_tables,
                        solve_bip)

ORACLE_MAX_VARS = 16
TABLES_CHUNK = 1 << 12   # trajectories per chunk of solve_tables_exhaustive


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


def dense_block_tables(bip: Bip) -> tuple[BlockTables, np.ndarray] | None:
    """Tables of a program given by its dense rows A u <= b and the bounds on
    their coupling rows, or None when some block has no control meeting its
    own rows.

    Block t's candidates are the binary controls, listed SCAN_CHUNK at a
    time, meeting every row of A inside block t (rows with no nonzero go to
    block 0); the other rows couple blocks.
    """
    H, n_v, A, b = bip.H, bip.n_v, bip.A, bip.b
    support = (A != 0).reshape(len(A), H, n_v).any(axis=2)
    coupling = support.sum(axis=1) > 1
    local = [~coupling & (support.argmax(axis=1) == t) for t in range(H)]
    blocks = [slice(t * n_v, (t + 1) * n_v) for t in range(H)]
    V = [[] for _ in blocks]
    for c in binary_chunks(n_v, optim.SCAN_CHUNK):
        for t, (r, bt) in enumerate(zip(local, blocks)):
            V[t].append(c[(c @ A[r, bt].T <= b[r]).all(axis=1)])
    V = [np.concatenate(v) for v in V]
    if not all(map(len, V)):
        return None
    return (block_tables(V, [v @ A[coupling, bt].T for v, bt in zip(V, blocks)], bip.Q),
            b[coupling])


def solve_dense(bip: Bip) -> BipSolution:
    """`solve_bip` on a `Bip` given only dense rows, through `dense_block_tables`."""
    program = dense_block_tables(bip)
    if program is None:
        return BipSolution(None, None, "infeasible", nodes=1)
    tables, bounds = program
    return solve_bip(Bip(bip.n_v, bip.H, bip.cost, bip.A, bip.b, bip.Q, blocks=tables,
                         bounds=bounds))


def solve_tables_exhaustive(bip: Bip) -> BipSolution:
    """Score every trajectory of V_0 x ... x V_{H-1} from `bip.blocks` and
    `bip.bounds`, in lexicographic order, replacing the incumbent only on a
    gain over 1e-9, as `solve_bip` does.

    Each chunk fixes the leading blocks and lists every index tuple of the
    trailing blocks j .. H-1, at most TABLES_CHUNK of them (or the last block
    alone).  A trajectory is feasible when its summed lhs meets the bounds
    on every coupling row; its value is cost.u, summed block by block, plus
    u'Qu of its stacked controls u.  `nodes` counts the trajectories scored.
    """
    V, lhs, H = bip.blocks.V, bip.blocks.lhs, bip.H
    lin = [v @ c for v, c in zip(V, bip.cost.reshape(H, bip.n_v))]
    sizes = [len(v) for v in V]
    j = H - 1
    while j > 0 and prod(sizes[j - 1:]) <= TABLES_CHUNK:
        j -= 1
    tail = np.indices(sizes[j:]).reshape(H - j, -1).T
    tail_lhs = sum(lhs[t][tail[:, t - j]] for t in range(j, H))
    tail_val = sum(lin[t][tail[:, t - j]] for t in range(j, H))
    tail_u = np.hstack([V[t][tail[:, t - j]] for t in range(j, H)])
    best, best_val = None, np.inf
    for lead in product(*map(range, sizes[:j])):
        vals = tail_val + sum(lin[t][i] for t, i in enumerate(lead))
        if bip.Q is not None:
            u = np.hstack([np.tile(V[t][i], (len(tail), 1)) for t, i in enumerate(lead)] + [tail_u])
            vals = vals + ((u @ bip.Q) * u).sum(axis=1)
        room = bip.bounds - sum(lhs[t][i] for t, i in enumerate(lead))
        feasible = (tail_lhs <= room).all(axis=1)
        for r in np.flatnonzero(feasible & (vals < best_val - OPT_TOL)):
            if vals[r] < best_val - OPT_TOL:
                best, best_val = [*lead, *tail[r].tolist()], vals[r]
    if best is None:
        return BipSolution(None, None, "infeasible", nodes=prod(sizes))
    x = np.concatenate([v[i] for v, i in zip(V, best)])
    return BipSolution(x, bip.value(x), "optimal", prod(sizes), best)
