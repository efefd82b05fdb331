"""Built-in scenario reconstructions and the JSON schema."""

import functools
import json
import math
import operator

import numpy as np
import pytest
from fractions import Fraction

from qnet.dynamics import make_streams, run
from qnet.errors import ValidationError
from qnet.harness import ExperimentResult
from qnet.model import enumerate_control_set
from qnet.optim import solve_bip
from qnet.policies import IdlePolicy, PolicySpec
from qnet.predictor import build_bip, compile_program
from qnet.scenarios import (BUILTIN_BUILDERS, EXAMPLE2_POINTS, builtin_scenario,
                            scenario_example1, scenario_example2, validate_scenario)
from qnet.stability import RegionQuery


def test_example1_shape():
    sc = scenario_example1()
    assert sc.slots == 9
    assert sc.net.n_q == 4 and sc.net.n_v == 6 and sc.net.n_s == 10
    assert sc.net.conventional
    # five arrivals over nine slots, one every second slot starting at 0
    total = sum(int(sc.arrivals.sample(t, None).sum()) for t in range(9))
    assert total == 5
    assert sc.arrivals.rate == (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))


def _array_holders():
    """One of each dataclass that holds an ndarray, built from the built-ins."""
    sc = scenario_example2("red")
    program = compile_program(sc.net, sc.chain, sc.arrivals, 0, 2)
    bip = build_bip(sc.net, sc.chain, sc.arrivals, (1, 1), 0, 2, program=program)
    trace = run(sc.net, sc.chain, sc.arrivals, IdlePolicy(sc.net), 2, make_streams(0))
    return [sc.net, sc.arrivals, sc, scenario_example1().chain, ExperimentResult(sc),
            RegionQuery(sc.net, sc.arrivals.rate, options=enumerate_control_set(sc.net)),
            trace.records[0], solve_bip(bip), program.tables, program]


def test_model_objects_compare_and_hash_by_identity():
    ones, others = _array_holders(), _array_holders()
    for x, y in zip(ones, others):
        name = type(x).__name__
        assert x == x and not x != x and hash(x) == hash(x), name
        assert x != y and not x == y, name
    assert len(set(ones + others)) == 2 * len(ones)
    # values compare through to_json; a PolicySpec compares by value
    assert ones[2].to_json() == others[2].to_json()
    assert PolicySpec("PNC", 2) == PolicySpec("PNC", 2)


def test_example1_schedule():
    sc = scenario_example1()
    W = sc.net.W
    assert set(np.unique(W)) <= {0.0, 1.0}
    # wired links always on
    assert (W[:, :3] == 1.0).all()
    # exactly one wireless link on per schedule state, none in the terminal state
    for s in range(9):
        assert W[s, 3:].sum() == 1.0
    assert (W[9, 3:] == 0.0).all()
    # at t=4 the chain sits in state 4: second sector, so AP2's wireless is on
    on = np.flatnonzero(W[4, 3:])
    assert on.tolist() == [1]          # columns ordered AP3, AP2, AP1
    # deterministic shift chain with an absorbing tail state
    P = sc.chain.P
    assert P[3, 4] == 1.0 and P[9, 9] == 1.0
    assert set(np.unique(P)) == {0.0, 1.0}


def test_example1_constituency():
    sc = scenario_example1()
    V = enumerate_control_set(sc.net)
    # one wired and one wireless at a time
    assert all(v[:3].sum() <= 1 and v[3:].sum() <= 1 for v in V)
    assert len(V) == 16


def test_example2_construction():
    sc = scenario_example2("red")
    net = sc.net
    assert not net.conventional
    effects = 4 * (net.R * net.W[0])
    assert effects.T.tolist() == [[-1.0, 0.0], [0.0, 4.0], [-4.0, -4.0]]
    V = enumerate_control_set(net)
    assert [0, 0, 0] in V.tolist()
    assert sc.region_scale == Fraction(4)
    # share link requires a packet at the head queue
    assert net.S_req[0, 1] == 1
    assert sc.arrivals.rate == (Fraction(1, 8), Fraction(1, 16))


@pytest.mark.parametrize("point", sorted(EXAMPLE2_POINTS))
def test_example2_points_scale(point):
    sc = scenario_example2(point)
    scaled = EXAMPLE2_POINTS[point]
    assert sc.arrivals.rate == (scaled[0] / 4, scaled[1] / 4)


def test_example2_unknown_point():
    with pytest.raises(ValidationError, match="point"):
        scenario_example2("violet")


def test_builtin_registry():
    for name in ("example1", "example2", "example2-red", "example2-blue", "example2-green"):
        sc = builtin_scenario(name)
        assert sc.seed is not None
    with pytest.raises(ValidationError, match="unknown builtin"):
        builtin_scenario("example3")


def test_scenario_json_round_trip():
    sc = scenario_example2("blue")
    again = validate_scenario(sc.to_json())
    assert again.name == sc.name
    assert np.array_equal(again.net.R, sc.net.R)
    assert again.arrivals.rate == sc.arrivals.rate
    assert [p.name for p in again.policies] == [p.name for p in sc.policies]
    assert again.region_scale == sc.region_scale
    assert again.slots == sc.slots and again.seed == sc.seed
    # q0 and the arrival kinds no built-in example2 uses come back unchanged
    for arrivals in ({"kind": "constant", "value": [1, 0]},
                     {"kind": "deterministic-periodic", "pattern": [[1, 0], [0, 1]]}):
        first = validate_scenario(dict(sc.to_json(), q0=[3, 1], arrivals=arrivals))
        assert first.to_json()["arrivals"] == arrivals
        again = validate_scenario(first.to_json())
        assert again.to_json() == first.to_json()
        assert again.q0.tolist() == [3, 1] and again.arrivals.rate == first.arrivals.rate


WIDE_NETWORK = {"R": [[-1] * 25, [0] * 25], "C": [[1] * 25], "c": [1], "W": [[1.0] * 25]}


def test_scenario_validation_paths():
    sc = scenario_example2("red").to_json()
    bad = dict(sc)
    del bad["seed"]
    with pytest.raises(ValidationError, match="seed"):
        validate_scenario(bad)
    bad = dict(sc, slots=0)
    with pytest.raises(ValidationError, match="slots"):
        validate_scenario(bad)
    # a bool is an int to isinstance; true must not pass as 1
    for field in ("slots", "replications", "seed"):
        with pytest.raises(ValidationError) as info:
            validate_scenario(dict(sc, **{field: True}))
        assert info.value.path == field
    bad = dict(sc, policies=[])
    with pytest.raises(ValidationError, match="policies"):
        validate_scenario(bad)
    bad = dict(sc, q0=[1, -1])
    with pytest.raises(ValidationError, match="q0"):
        validate_scenario(bad)
    bad = dict(sc)
    bad["network"] = dict(bad["network"], W=[[0.25, 1.0, 2.0]])
    with pytest.raises(ValidationError, match=r"network.W\[0\]\[2\]"):
        validate_scenario(bad)
    bad = dict(sc)
    bad["arrivals"] = {"kind": "iid-bernoulli-batch", "p": ["1/2", "0"], "batch": [5, 1]}
    with pytest.raises(ValidationError, match="a_hat"):
        validate_scenario(bad)
    # non-numeric entries and a non-list p name their field (CLI exit 2)
    net = sc["network"]
    for path, block, value in (
            ("network.c", "network", dict(net, c=["x"])),
            ("network.W", "network", dict(net, W=[["x", 1.0, 1.0]])),
            ("network.a_hat", "network", dict(net, a_hat=["x", 1])),
            ("arrivals.value", "arrivals", {"kind": "constant", "value": ["x", 1]}),
            ("arrivals.pattern", "arrivals", {"kind": "deterministic-periodic",
                                              "pattern": [[1, "x"]]}),
            ("arrivals.batch", "arrivals", {"kind": "iid-bernoulli-batch",
                                            "p": ["1/2", "0"], "batch": ["x", 1]}),
            ("arrivals.p", "arrivals", {"kind": "iid-bernoulli-batch", "p": 5}),
            ("arrivals", "arrivals", ["constant", [1, 0]]),
            ("q0", "q0", ["x", 1]),
            ("region_scale", "region_scale", "x"),
            ("chain.P", "chain", {"P": [["x"]], "s0": 0}),
            ("chain.s0", "chain", {"P": [[1.0]], "s0": "x"}),
            ("chain", "chain", [[1.0]]),
            ("policies", "policies", 5),
            # integer fields take integral numbers only, never cast to one
            ("q0[0]", "q0", [1.5, 2.7]),
            ("q0[0]", "q0", [True, 2]),
            ("network.R[1][2]", "network", dict(net, R=[[-1, 0, -1], [0, 1, -1.5]])),
            ("network.c[0]", "network", dict(net, c=[1.9])),
            ("network.a_hat[0]", "network", dict(net, a_hat=[True, 1])),
            ("arrivals.batch[0]", "arrivals", {"kind": "iid-bernoulli-batch",
                                               "p": ["1/2", "0"], "batch": [1.5, 1]}),
            ("chain.s0", "chain", {"P": [[1.0]], "s0": 0.9}),
            ("chain.s0", "chain", {"P": [[1.0]], "s0": True}),
            ("chain.sigma0", "chain", {"P": [[1.0]], "sigma0": [float("nan")]}),
            ("chain.sigma0", "chain", {"P": [[1.0]], "sigma0": ["x"]}),
            ("region_scale", "region_scale", -2),
            ("region_scale", "region_scale", 0),
            ("arrivals.p[0]", "arrivals", {"kind": "iid-bernoulli-batch", "p": [True, "0"]}),
            ("arrivals.p[1][0]", "arrivals", {"kind": "iid-bernoulli-batch",
                                              "p": ["1/2", [1.5, 2]]}),
            # a horizon only on predictive policies, and within the size limit:
            # example2 has 4 controls per slot, and 4^13 > 2^24
            ("policy.H", "policies", [{"kind": "MW", "H": 3}]),
            ("policy.H", "policies", [{"kind": "PNC", "H": 1000000}]),
            ("policy.H", "policies", [{"kind": "FPNC", "H": 13}]),
            # MW lists the 2^25 controls of 25 links
            ("network.R", "network", WIDE_NETWORK),
            # the name prefixes output files inside --out
            ("name", "name", "../escaped"),
            ("name", "name", "sub/dir"),
            ("name", "name", "sub\\dir"),
            ("name", "name", "a\0b"),
            ("name", "name", "."),
            ("name", "name", ".."),
            # notes, when present and not null, are text
            ("notes", "notes", 7),
            ("notes", "notes", ["a"]),
            ("notes", "notes", {"x": 1})):
        with pytest.raises(ValidationError) as info:
            validate_scenario(dict(sc, **{block: value}))
        assert info.value.path == path
    assert validate_scenario(dict(sc, notes=None)).notes == ""
    with pytest.raises(ValidationError) as info:
        validate_scenario([1])
    assert info.value.path == "scenario"
    # every policy but IDLE lists the binary controls, of at most 24 links
    for policy in ({"kind": "PNC", "H": 1}, {"kind": "FPNC", "H": 2}, {"kind": "RANDOM"}):
        with pytest.raises(ValidationError, match=policy["kind"]) as info:
            validate_scenario(dict(sc, network=WIDE_NETWORK, policies=[policy]))
        assert info.value.path == "network.R"
    assert validate_scenario(dict(sc, network=WIDE_NETWORK,
                                  policies=[{"kind": "IDLE"}])).net.n_v == 25


MALFORMED = (None, "x", [], [[1]], math.nan, math.inf, -math.inf, True, -1, 1.5, 10**30,
             [[1], [1, 2]], [1, [1]])


def _nodes(doc, where=()):
    """The key path of every value inside a JSON document, depth first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield where + (key,)
        yield from _nodes(child, where + (key,))


@pytest.mark.filterwarnings("ignore:link .* has an all-zero column")
def test_one_field_mutations_fail_with_validation_errors_only():
    # each built-in scenario's JSON with one value, at any depth, replaced by a
    # malformed one.  Some replacements stay valid (a seed of 10**30, notes of
    # null); every other one must name its field, never escape as a numpy error
    escaped = []
    texts = {json.dumps(build().to_json()) for build in BUILTIN_BUILDERS.values()}
    for text in sorted(texts):
        for where in _nodes(json.loads(text)):
            for value in MALFORMED:
                doc = json.loads(text)
                functools.reduce(operator.getitem, where[:-1], doc)[where[-1]] = value
                try:
                    validate_scenario(doc)
                except ValidationError:
                    pass
                except Exception as exc:
                    escaped.append((where, value, repr(exc)))
    assert escaped == []
