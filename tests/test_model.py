"""Network model validation, control-set enumeration, arrival processes."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from qnet.errors import EnumerationLimitError, ValidationError
from qnet.model import enumerate_control_set, validate_arrivals, validate_network

RELAY = {"R": [[-1, 0], [1, -1]], "C": [[0, 0]], "c": [1], "W": [[1.0, 1.0]]}


def test_relay_network_valid():
    net = validate_network(RELAY)
    assert net.conventional
    assert net.R_minus.tolist() == [[-1, 0], [0, -1]]
    assert net.S_req.tolist() == [[1, 0], [0, 1]]
    assert net.n_q == 2 and net.n_v == 2 and net.n_s == 1


def test_zero_column_flagged():
    with pytest.warns(UserWarning, match="all-zero column"):
        validate_network({"R": [[-1, 0], [1, 0]], "C": [[0, 0]], "c": [1], "W": [[1.0, 1.0]]})


def test_probability_out_of_range():
    raw = dict(RELAY, W=[[1.0, 1.3]])
    with pytest.raises(ValidationError, match=r"W\[0\]\[1\].*outside"):
        validate_network(raw)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_probability_not_finite(bad):
    # NaN escapes `W < 0` and `W > 1` alike; it must still be rejected
    with pytest.raises(ValidationError) as info:
        validate_network(dict(RELAY, W=[[1.0, 0.5], [0.5, bad]]))
    assert info.value.path == "network.W[1][1]"


def test_network_not_an_object():
    with pytest.raises(ValidationError) as info:
        validate_network([1, 2])
    assert info.value.path == "network" and "expected an object" in str(info.value)


def test_routing_entry_out_of_domain():
    with pytest.raises(ValidationError, match=r"R\[0\]\[0\]"):
        validate_network(dict(RELAY, R=[[-2, 0], [1, -1]]))


def test_dimension_mismatch_reported():
    with pytest.raises(ValidationError, match="network.C"):
        validate_network(dict(RELAY, C=[[0, 0, 0]]))
    with pytest.raises(ValidationError, match="network.c"):
        validate_network(dict(RELAY, c=[1, 2]))


def test_sreq_override_cannot_drop_drains():
    raw = dict(RELAY, S_req=[[0, 0], [0, 0]])
    net = validate_network(raw)
    # drain requirements implied by R stay in place
    assert net.S_req.tolist() == [[1, 0], [0, 1]]
    raw = dict(RELAY, S_req=[[1, 1], [0, 0]])
    assert validate_network(raw).S_req.tolist() == [[1, 1], [0, 1]]


def test_validation_stable():
    net = validate_network(RELAY)
    again = validate_network(net.to_json())
    assert np.array_equal(net.R, again.R)
    assert np.array_equal(net.S_req, again.S_req)
    assert np.array_equal(net.W, again.W)
    assert net.conventional == again.conventional


def test_enumerate_relay_all_four():
    net = validate_network(RELAY)
    V = enumerate_control_set(net)
    assert V.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_enumerate_forbidden_links():
    net = validate_network({"R": [[-1, 0], [1, -1]], "C": [[1, 0], [0, 1]],
                            "c": [0, 0], "W": [[1.0, 1.0]]})
    assert enumerate_control_set(net).tolist() == [[0, 0]]


def test_enumerate_disjunct_three_links():
    net = validate_network({"R": [[-1, 0, -1], [0, 1, -1]], "C": [[1, 1, 1]],
                            "c": [1], "W": [[0.25, 1.0, 1.0]]})
    V = enumerate_control_set(net)
    assert sorted(map(tuple, V.tolist())) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumeration_guard():
    R = [[-1] * 25]
    with pytest.raises(EnumerationLimitError):
        enumerate_control_set(validate_network({"R": R, "C": [[0] * 25], "c": [1],
                                                "W": [[1.0] * 25]}))


@given(st.integers(0, 255), st.integers(1, 6))
@settings(deadline=None, max_examples=60, derandomize=True)
def test_enumerate_completeness(seed, n_v):
    rng = np.random.default_rng(seed)
    C = rng.integers(0, 3, size=(2, n_v))
    c = rng.integers(0, 4, size=2)
    net = validate_network({"R": [[-1] * n_v], "C": C.tolist(), "c": c.tolist(),
                            "W": [[1.0] * n_v]})
    V = {tuple(v) for v in enumerate_control_set(net).tolist()}
    for k in range(1 << n_v):
        v = tuple((k >> (n_v - 1 - i)) & 1 for i in range(n_v))
        assert (v in V) == bool((C @ np.array(v) <= c).all())


def test_negative_part_examples():
    def r_minus(R):
        return validate_network({"R": R, "W": [[1.0] * len(R[0])]}).R_minus.tolist()

    assert r_minus([[-1, 1]]) == [[-1, 0]]
    with pytest.warns(UserWarning, match="all-zero column"):
        assert r_minus([[0, 0, 0], [0, 0, 0]]) == [[0, 0, 0], [0, 0, 0]]
    # shared-transmission topology: the copy column has no drain
    assert r_minus([[-1, 0, -1], [0, 1, -1]]) == [[-1, 0, -1], [0, 0, -1]]


# ---------------------------------------------------------------------------
# Arrival processes


def test_constant_arrivals():
    ap = validate_arrivals({"kind": "constant", "value": [2, 0]}, 2)
    assert ap.rate == (Fraction(2), Fraction(0))
    assert ap.sample(0, None).tolist() == [2, 0]
    vecs = ap.support(5)
    assert len(vecs) == 1 and vecs[0][1] == 1
    assert vecs[0][0].tolist() == [2, 0]


def test_periodic_arrivals():
    ap = validate_arrivals({"kind": "deterministic-periodic",
                            "pattern": [[1, 0], [0, 0]]}, 2)
    assert ap.rate == (Fraction(1, 2), Fraction(0))
    assert ap.sample(0, None).tolist() == [1, 0]
    assert ap.sample(1, None).tolist() == [0, 0]
    assert ap.a_hat.tolist() == [1, 0]


def test_bernoulli_batch_arrivals():
    ap = validate_arrivals({"kind": "iid-bernoulli-batch", "p": ["0.45", "1/4"],
                            "batch": [1, 2]}, 2)
    assert ap.rate == (Fraction(9, 20), Fraction(1, 2))
    pair = validate_arrivals({"kind": "iid-bernoulli-batch", "p": [[9, 20], 0]}, 2)
    assert pair.p == (Fraction(9, 20), Fraction(0))
    # numpy scalars are read as Python numbers: 0.5 by its decimal digits, and
    # no Fraction keeps an overflowing np.int64 numerator
    scalars = validate_arrivals({"kind": "iid-bernoulli-batch",
                                 "p": [np.float64(0.5), np.int64(1)]}, 2)
    assert scalars.p == (Fraction(1, 2), Fraction(1))
    assert all(type(x.numerator) is int for x in scalars.p)
    rng = np.random.default_rng(3)
    draws = np.array([ap.sample(t, rng) for t in range(4000)])
    assert (draws <= ap.a_hat).all()
    assert abs(draws[:, 0].mean() - 0.45) < 0.03
    support = ap.support(0)
    assert sum(p for _, p in support) == 1
    mean = sum(np.asarray(v) * float(p) for v, p in support)
    assert np.allclose(mean, [0.45, 0.5])


def test_bernoulli_bad_probability():
    with pytest.raises(ValidationError, match=r"arrivals.p\[1\]"):
        validate_arrivals({"kind": "iid-bernoulli-batch", "p": ["0.5", "1.5"]}, 2)
    # a pair of nested lists is no (numerator, denominator) pair
    with pytest.raises(ValidationError, match=r"arrivals.p\[0\]"):
        validate_arrivals({"kind": "iid-bernoulli-batch", "p": [[[1], [2]], "0"]}, 2)


def test_unknown_kind():
    with pytest.raises(ValidationError, match="arrivals.kind"):
        validate_arrivals({"kind": "poisson"}, 2)
