"""Chain propagation, stationary distributions, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnet.errors import ValidationError
from qnet.markov import next_states, propagate, sample_next, stationary, validate_chain

P2 = np.array([[0.5, 0.5], [0.2, 0.8]])
CYCLE3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def test_validate_chain_checks():
    validate_chain({"P": P2.tolist(), "s0": 0})
    with pytest.raises(ValidationError, match=r"chain.P\[0\]"):
        validate_chain({"P": [[0.5, 0.4], [0.2, 0.8]], "s0": 0})
    with pytest.raises(ValidationError, match="chain.s0"):
        validate_chain({"P": P2.tolist(), "s0": 5})
    with pytest.raises(ValidationError, match="chain"):
        validate_chain({"P": P2.tolist()})
    validate_chain({"P": P2.tolist(), "sigma0": [0.25, 0.75]})


def test_propagate_identity():
    sigma = np.array([0.3, 0.7])
    assert np.array_equal(propagate(sigma, np.eye(2), 7), sigma)


def test_propagate_cycle():
    e1 = np.array([1.0, 0.0, 0.0])
    assert propagate(e1, CYCLE3, 2).tolist() == [0.0, 0.0, 1.0]


def test_propagate_one_step():
    assert np.allclose(propagate([1.0, 0.0], P2, 1), [0.5, 0.5])


@given(st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 6))
@settings(deadline=None, max_examples=40, derandomize=True)
def test_chapman_kolmogorov(seed, t1, t2):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    P = rng.integers(1, 9, size=(n, n)).astype(float)
    P /= P.sum(axis=1, keepdims=True)
    sigma0 = rng.integers(1, 9, size=n).astype(float)
    sigma0 /= sigma0.sum()
    lhs = propagate(sigma0, P, t1 + t2)
    rhs = propagate(propagate(sigma0, P, t1), P, t2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_stationary_single_state():
    assert stationary(np.array([[1.0]])).tolist() == [1.0]


def test_stationary_two_state():
    pi = stationary(P2)
    assert np.allclose(pi, [2 / 7, 5 / 7], atol=1e-9)
    assert np.abs(pi @ P2 - pi).max() < 1e-10
    assert abs(pi.sum() - 1.0) < 1e-12


def test_stationary_periodic_rejected():
    with pytest.raises(ValueError, match="periodic or reducible"):
        stationary(CYCLE3)


def test_propagate_converges_to_stationary():
    pi = stationary(P2)
    sigma = propagate([1.0, 0.0], P2, 10_000)
    assert np.abs(sigma - pi).max() < 1e-8


def test_sample_next_degenerate():
    rng = np.random.default_rng(0)
    assert sample_next(1, np.eye(3), rng) == 1
    assert sample_next(0, CYCLE3, rng) == 1


def test_sample_next_statistics():
    # one long run serves both checks: one-step frequencies from a fixed row
    # and long-run occupation vs the stationary distribution.  next_states
    # maps a batch of uniforms as sample_next maps them one draw at a time,
    # and a batch of uniforms equals the scalar draws bit for bit
    rng = np.random.default_rng(99)
    row_p = np.array([[0.3, 0.7], [0.3, 0.7]])   # equal rows: every step is from row 0
    hits = next_states(0, row_p, rng.random(10**6)).count(0)
    assert abs(hits / 10**6 - 0.3) < 0.005

    rng = np.random.default_rng(7)
    pi = stationary(P2)
    counts = np.bincount(next_states(0, P2, rng.random(10**6)), minlength=2)
    freq = counts / counts.sum()
    se = np.sqrt(pi * (1 - pi) / 10**6)
    assert (np.abs(freq - pi) < 3 * se + 5e-4).all()
