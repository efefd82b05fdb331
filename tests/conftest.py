"""Shared generators for randomized tests.

Random probabilities are kept dyadic (multiples of 1/16 or 1/256) so float
arithmetic on them is exact and cost ties are exact ties, never 1e-16 noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from qnet.markov import validate_chain
from qnet.model import validate_arrivals, validate_network


def random_network(rng, n_q=None, n_v=None, n_s=None, allow_copy=False):
    """Random validated network; conventional unless `allow_copy`."""
    n_q = n_q or int(rng.integers(2, 4))
    n_v = n_v or int(rng.integers(2, 4))
    n_s = n_s or int(rng.integers(1, 3))
    cols = []
    for _ in range(n_v):
        col = [0] * n_q
        src = int(rng.integers(n_q))
        if allow_copy and rng.random() < 0.25 and n_q > 1:
            col[src] = 1              # copy link: fills without draining
        else:
            col[src] = -1
            if rng.random() < 0.7 and n_q > 1:
                dst = int(rng.integers(n_q - 1))
                dst = dst if dst < src else dst + 1
                col[dst] = 1
        cols.append(col)
    R = np.array(cols).T.tolist()
    C = [[1] * n_v]
    c = [int(rng.integers(1, n_v + 1))]
    W = (rng.integers(1, 17, size=(n_s, n_v)) / 16.0).tolist()
    return validate_network({"R": R, "C": C, "c": c, "W": W, "a_hat": [2] * n_q})


def random_chain(rng, n_s):
    P = rng.integers(1, 9, size=(n_s, n_s)).astype(float)
    P /= P.sum(axis=1, keepdims=True)
    return validate_chain({"P": P.tolist(), "s0": int(rng.integers(n_s))})


def random_arrivals(rng, n_q, max_sixteenths=8):
    p = [f"{int(rng.integers(0, max_sixteenths + 1))}/16" for _ in range(n_q)]
    return validate_arrivals({"kind": "iid-bernoulli-batch", "p": p, "batch": [1] * n_q}, n_q)


def zero_arrivals(n_q):
    return validate_arrivals({"kind": "constant", "value": [0] * n_q}, n_q)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
