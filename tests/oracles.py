"""Exact quadratic oracle: E[sum q_t'q_t] by enumerating the outcome tree.

Test-only reference for the `cost` and `Q` of `qnet.predictor.build_bip`,
quadratic and linear; small instances only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from qnet.errors import EnumerationLimitError
from qnet.markov import MarkovChain
from qnet.model import ArrivalProcess, Network

ORACLE_MAX_VARS = 16


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
