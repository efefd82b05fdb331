"""Discrete-time Markov chain driving the per-slot link-success matrices."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import _as_array

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 10**6


@dataclass(frozen=True)
class MarkovChain:
    n_s: int
    P: np.ndarray            # row-stochastic n_s x n_s
    s0: int | None = None    # initial state (0-indexed)
    sigma0: np.ndarray | None = None

    def __post_init__(self):
        self.P.setflags(write=False)
        if self.sigma0 is not None:
            self.sigma0.setflags(write=False)

    def to_json(self) -> dict:
        out = {"P": self.P.tolist()}
        if self.s0 is not None:
            out["s0"] = self.s0
        else:
            out["sigma0"] = self.sigma0.tolist()
        return out


def validate_chain(raw: dict) -> MarkovChain:
    if not isinstance(raw, dict):
        raise ValidationError("chain", f"expected an object, got {raw!r}")
    P = _as_array(raw.get("P"), "chain.P", np.float64, shape=(None, None), lo=0, hi=1)
    if P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise ValidationError("chain.P", f"expected a square matrix, got shape {P.shape}")
    n_s = P.shape[0]
    rows = P.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=ROW_SUM_TOL, rtol=0):
        i = int(np.argmax(np.abs(rows - 1.0)))
        raise ValidationError(f"chain.P[{i}]", f"row sums to {rows[i]!r}, expected 1")
    s0 = raw.get("s0")
    sigma0 = raw.get("sigma0")
    if (s0 is None) == (sigma0 is None):
        raise ValidationError("chain", "exactly one of s0, sigma0 is required")
    if s0 is not None:
        s0 = _as_array(s0, "chain.s0", shape=(), lo=0, hi=n_s - 1)
        return MarkovChain(n_s=n_s, P=P, s0=int(s0))
    sigma0 = _as_array(sigma0, "chain.sigma0", np.float64, shape=(n_s,))
    # NaN fails the comparison, and an infinite entry the sum
    if not ((sigma0 >= 0).all() and abs(sigma0.sum() - 1.0) <= ROW_SUM_TOL):
        raise ValidationError("chain.sigma0", "must be nonnegative and sum to 1")
    return MarkovChain(n_s=n_s, P=P, sigma0=sigma0)


def propagate(sigma0: np.ndarray, P: np.ndarray, t: int) -> np.ndarray:
    """Distribution after t steps: sigma0 P^t, one vector-matrix product per step.

    A 0/1 (deterministic) P started from a single state stays exact: each
    step's entries are a single product with 1.0 plus zeros.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    sigma = np.asarray(sigma0, dtype=np.float64).copy()
    P = np.asarray(P, dtype=np.float64)
    for _ in range(t):
        sigma = sigma @ P
    return sigma


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution by power iteration (tiny state spaces).

    Raises on chains that oscillate instead of converging (periodic) or that
    exhaust the iteration budget.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    # asymmetric start: a uniform vector is a fixed point of any doubly
    # stochastic chain, which would mask periodicity
    sigma = np.arange(1.0, n + 1.0)
    sigma /= sigma.sum()
    window = []
    for _ in range(STATIONARY_MAX_ITER):
        nxt = sigma @ P
        if np.abs(nxt - sigma).max() < STATIONARY_TOL:
            pi = nxt / nxt.sum()
            return pi
        for old in window:
            if np.abs(nxt - old).max() < STATIONARY_TOL:
                raise ValueError("power iteration oscillates: chain may be periodic or reducible")
        window.append(sigma)
        if len(window) > 4:
            window.pop(0)
        sigma = nxt
    raise ValueError("no convergence within 10^6 iterations: chain may be periodic or reducible")


def next_states(s: int, P: np.ndarray, u) -> list[int]:
    """The states that follow s, one per uniform in u, each from the row of the last.

    From row r the next state is the first k with u < cumsum(P[r])[k],
    clipped to the last state when rounding leaves the row sum below u.
    """
    cum = np.cumsum(P, axis=1).tolist()
    last = P.shape[1] - 1
    out = []
    for x in u:
        s = min(bisect_right(cum[s], x), last)
        out.append(s)
    return out


def sample_next(s: int, P: np.ndarray, rng) -> int:
    """Draw a state from row s of P, consuming exactly one uniform."""
    return next_states(s, P, [rng.random()])[0]
