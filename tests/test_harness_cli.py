"""Experiment orchestration, file emission, and the command-line interface."""

import csv
import json
import os

import numpy as np
import pytest

import qnet.stability as stability
from qnet.cli import main
from qnet.errors import ValidationError
from qnet.harness import region_rows, run_experiment, run_one, write_region_csv
from qnet.policies import PolicySpec
from qnet.scenarios import load_scenario, scenario_example1, scenario_example2
from qnet.stability import MIN_ASSESS_SLOTS


def small_example2(point="red", slots=300, reps=2):
    sc = scenario_example2(point, slots=slots, replications=reps)
    sc.policies = [PolicySpec("MW"), PolicySpec("PNC", 2)]
    return sc


def run_for(result, policy, replication=0):
    return next(r for r in result.runs if (r.policy, r.replication) == (policy, replication))


def test_run_experiment_files_and_summary(tmp_path):
    sc = small_example2()
    res = run_experiment(sc, out_dir=str(tmp_path))
    assert len(res.runs) == 4
    trace_files = [f for f in res.files if "__rep" in f]
    assert len(trace_files) == 4
    summary = [f for f in res.files if f.endswith("__summary.csv")]
    assert len(summary) == 1
    with open(summary[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        r = run_for(res, row["policy"], int(row["replication"]))
        tr = r.trace
        assert int(row["delivered"]) == tr.cumulative_delivered()
        assert int(row["arrivals"]) == tr.cumulative_arrivals()
        recomputed = tr.cumulative_delivered() / tr.cumulative_arrivals()
        assert float(row["delivered_fraction"]) == pytest.approx(recomputed)


def test_rerun_byte_identical(tmp_path):
    sc = small_example2()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run_experiment(sc, out_dir=str(d1))
    r2 = run_experiment(small_example2(), out_dir=str(d2))
    for f1, f2 in zip(sorted(r1.files), sorted(r2.files)):
        assert os.path.basename(f1) == os.path.basename(f2)
        assert open(f1, "rb").read() == open(f2, "rb").read()


def test_paired_environment_across_policies(tmp_path):
    sc = small_example2(point="blue", slots=400, reps=1)
    res = run_experiment(sc)
    t_mw = run_for(res, "MW").trace
    t_pnc = run_for(res, "PNC-H2").trace
    for a, b in zip(t_mw.records, t_pnc.records):
        assert np.array_equal(a.a, b.a)
        assert a.s == b.s


def test_aborted_run_recorded(monkeypatch):
    import qnet.harness as harness

    class Bad:
        def decide(self, q, s):
            return np.array([0, 0, 1])   # synchronized drain from empty queues

    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: Bad())
    sc = small_example2(slots=50, reps=1)
    res = run_experiment(sc, policies=[PolicySpec("MW")])
    assert res.runs[0].verdict == "aborted"
    assert "positiveness" in res.runs[0].error
    assert "aborted" in res.summary_csv()


def test_short_run_is_inconclusive():
    # too few slots to fit a slope: no verdict is drawn
    sc = small_example2(slots=MIN_ASSESS_SLOTS - 1, reps=1)
    res = run_one(sc, PolicySpec("MW"), 0)
    assert (res.trace.slots, res.verdict, res.slope) == (MIN_ASSESS_SLOTS - 1, "inconclusive", 0.0)


@pytest.mark.parametrize("control", [["1", "0", "0"], [None, 0, 0], [[1], 0, 0]],
                         ids=["strings", "none", "ragged"])
def test_malformed_control_aborts_the_run(monkeypatch, control):
    # a control whose first entry is not a number is a binary violation,
    # never a stray numpy error out of the run
    import qnet.harness as harness
    from qnet.dynamics import check_feasible

    class Bad:
        def decide(self, q, s):
            return control

    sc = small_example2(slots=50, reps=1)
    res = check_feasible(sc.net, [3, 3], control)
    assert (res.ok, res.family, res.index) == (False, "binary", 0)
    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: Bad())
    out = run_experiment(sc, policies=[PolicySpec("MW")])
    assert out.runs[0].verdict == "aborted"
    assert "binary violation at index 0" in out.runs[0].error


def test_region_rows_mw_axis(tmp_path):
    sc = scenario_example2("red")
    rows = region_rows(sc, "mw", n_rays=2)   # rays (1,0) and (0,1)
    first = rows[0]
    assert first["direction_y"] == 0.0
    assert abs(first["boundary_x"] - 1.0) < 1e-4
    path = write_region_csv(sc, "mw", str(tmp_path), n_rays=2)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "direction_x,direction_y,boundary_x,boundary_y,eps_at_half"
    assert len(lines) == 3


@pytest.mark.parametrize("rays", [0, -3])
def test_region_rows_rejects_nonpositive_rays(tmp_path, rays):
    sc = scenario_example2("red")
    with pytest.raises(ValueError, match="positive ray count"):
        region_rows(sc, "full", rays)
    with pytest.raises(ValueError, match="positive ray count"):
        write_region_csv(sc, "mw", str(tmp_path / "out"), n_rays=rays)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "example1" in out and "example2-green" in out


def test_cli_validate_builtin(capsys):
    assert main(["validate", "example2"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_broken_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"name": "x", "slots": 10}))
    assert main(["validate", str(bad)]) == 2
    assert "network" in capsys.readouterr().err
    notjson = tmp_path / "bad.json"
    notjson.write_text("{nope")
    assert main(["validate", str(notjson)]) == 2


def test_cli_policy_objective(tmp_path, capsys):
    raw = scenario_example2("red", slots=20, replications=1).to_json()
    raw["policies"] = [{"kind": "PNC", "H": 2, "objective": "quadratic"}]
    good = tmp_path / "quadratic.json"
    good.write_text(json.dumps(raw))
    assert main(["run", str(good), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "example2-red__PNC-H2-quadratic__rep0.csv").exists()
    raw["policies"] = [{"kind": "MW", "objective": "quadratic"}]
    bad = tmp_path / "mw.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 2
    assert "policy.objective" in capsys.readouterr().err


SMALL_RED = scenario_example2("red", slots=20, replications=1).to_json()


@pytest.mark.parametrize("path, field, value", [
    ("network.W[0][1]", "network", dict(SMALL_RED["network"], W=[[0.25, float("nan"), 1.0]])),
    ("network", "network", [1, 2]),
    ("slots", "slots", True),
    ("replications", "replications", True),
    ("seed", "seed", True),
    ("policy.H", "policies", [{"kind": "MW", "H": 3}]),
    ("network.c", "network", dict(SMALL_RED["network"], c=["x"])),
    ("arrivals.p", "arrivals", {"kind": "iid-bernoulli-batch", "p": 5}),
    ("q0", "q0", ["x", 1]),
    ("region_scale", "region_scale", "x"),
    ("chain.P", "chain", {"P": [["x"]], "s0": 0}),
    ("chain.s0", "chain", {"P": [[1.0]], "s0": "x"}),
    ("scenario", None, [1]),
    ("policies", "policies", 5),
    ("q0[0]", "q0", [1.5, 2.7]),
    ("q0[0]", "q0", [True, 2]),
    ("network.R[1][2]", "network", dict(SMALL_RED["network"], R=[[-1, 0, -1], [0, 1, -1.5]])),
    ("network.c[0]", "network", dict(SMALL_RED["network"], c=[1.9])),
    ("network.a_hat[0]", "network", dict(SMALL_RED["network"], a_hat=[True, 1])),
    ("arrivals.batch[0]", "arrivals", {"kind": "iid-bernoulli-batch", "p": ["1/2", "0"],
                                       "batch": [1.5, 1]}),
    ("chain.s0", "chain", {"P": [[1.0]], "s0": 0.9}),
    ("chain.sigma0", "chain", {"P": [[1.0]], "sigma0": [float("nan")]}),
    ("chain.sigma0", "chain", {"P": [[1.0]], "sigma0": ["x"]}),
    ("region_scale", "region_scale", -2),
    ("region_scale", "region_scale", 0),
    ("arrivals.p[0]", "arrivals", {"kind": "iid-bernoulli-batch", "p": [True, "0"]}),
    ("arrivals.p[1][0]", "arrivals", {"kind": "iid-bernoulli-batch", "p": ["1/2", [1.5, 2]]}),
    ("policy.H", "policies", [{"kind": "PNC", "H": 1000000}]),
    ("policy.H", "policies", [{"kind": "PNC", "H": 13}]),
    ("network.R", "network", {"R": [[-1] * 25, [0] * 25], "C": [[1] * 25], "c": [1],
                              "W": [[1.0] * 25]}),
    ("name", "name", "../x"),
    ("name", "name", "a/b"),
    ("seed", "seed", -1),
    ("notes", "notes", 7),
    ("notes", "notes", ["a"]),
    ("notes", "notes", {"x": 1}),
    # a range error names the entry, as a type error does
    ("network.c[0]", "network", dict(SMALL_RED["network"], c=[-1])),
])
def test_cli_malformed_fields_exit_2(tmp_path, capsys, path, field, value):
    # field None replaces the whole document
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(value if field is None else dict(SMALL_RED, **{field: value})))
    assert main(["validate", str(bad)]) == 2
    assert f"{path}:" in capsys.readouterr().err


def test_cli_unreadable_scenario_files_exit_2(tmp_path, capsys):
    # bytes that are not UTF-8 and a directory are scenario errors with a path
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["validate", str(binary)]) == 2
    assert f"{binary}:" in capsys.readouterr().err
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(["validate", str(folder)]) == 2
    assert "scenario:" in capsys.readouterr().err


@pytest.mark.parametrize("rays", ["0", "-3"])
def test_cli_region_rejects_nonpositive_rays(tmp_path, capsys, rays):
    assert main(["region", "example2", "--rays", rays, "--out", str(tmp_path)]) == 2
    assert "--rays:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [("--slots", "0"), ("--replications", "0"),
                                         ("--seed", "-1"), ("--slots", "-5")])
def test_cli_run_rejects_bad_overrides(tmp_path, capsys, flag, value):
    # checked like the scenario fields they replace, before any file is written
    assert main(["run", "example2", "--policy", "MW", flag, value, "--out", str(tmp_path)]) == 2
    assert f"{flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


TWO_QUEUE_WIDE = {"name": "wide", "network": {"R": [[-1] * 25, [0] * 25], "C": [[1] * 25],
                                              "c": [1], "W": [[1.0] * 25]},
                  "chain": {"P": [[1.0]], "s0": 0},
                  "arrivals": {"kind": "constant", "value": [0, 0]},
                  "policies": [{"kind": "IDLE"}], "slots": 10, "seed": 1}


TWO_QUEUE_TWO_STATE = {"name": "two-state",
                       "network": {"R": [[-1, 0], [1, -1]], "C": [[1, 1]], "c": [1],
                                   "W": [[0.5, 1.0], [0.5, 0.0]]},
                       "chain": {"P": [[0.9, 0.1], [0.1, 0.9]], "s0": 0},
                       "arrivals": {"kind": "constant", "value": [0, 0]},
                       "policies": [{"kind": "IDLE"}], "slots": 10, "seed": 1}
TWO_QUEUE_FREE = dict(TWO_QUEUE_WIDE, name="free",
                      network={"R": [[-1] * 17, [0] * 17], "W": [[1.0] * 17]})
UNMAPPABLE = {"wide": (TWO_QUEUE_WIDE, "network.R"),
              "two-state": (TWO_QUEUE_TWO_STATE, "chain.P"),
              "free": (TWO_QUEUE_FREE, "network.R")}


@pytest.mark.parametrize("scenario", ["example1", "wide", "two-state", "free"])
def test_cli_region_rejects_unmappable_networks(tmp_path, capsys, monkeypatch, scenario):
    # example1 has four queues; the wide network has more links than any
    # control enumeration lists; the two-state chain's region would need
    # stationary weights; the free network's 17 unconstrained links give
    # 2^17 controls, over the 2^16 a region sweep lists.  None is listed.
    def no_listing(net):
        raise AssertionError("a rejected region sweep listed its controls")

    monkeypatch.setattr(stability, "enumerate_control_set", no_listing)
    field = "network.R"
    if scenario in UNMAPPABLE:
        doc, field = UNMAPPABLE[scenario]
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        with pytest.raises(ValidationError) as info:
            region_rows(load_scenario(str(path)))
        assert info.value.path == field
        scenario = str(path)
    out = tmp_path / "out"
    assert main(["region", scenario, "--out", str(out)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_scenario(capsys):
    assert main(["validate", "no-such-scenario"]) == 2
    assert "neither a builtin" in capsys.readouterr().err


def test_cli_run_smoke(tmp_path, capsys):
    code = main(["run", "example2", "--policy", "PNC", "--horizon", "2",
                 "--slots", "100", "--replications", "1", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert any("PNC-H2" in line for line in out)
    assert any(line.endswith("__summary.csv") for line in out)
    for line in out:
        assert os.path.exists(line)


def test_cli_run_env_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QNET_OUT_DIR", str(tmp_path / "envout"))
    assert main(["run", "example1"]) == 0
    assert (tmp_path / "envout" / "example1__MW__rep0.csv").exists()


def test_cli_run_exits_3_on_aborted_run(tmp_path, capsys, monkeypatch):
    import qnet.harness as harness

    class Infeasible:
        def decide(self, q, s):
            return np.array([0, 0, 1])   # synchronized drain from empty queues

    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: Infeasible())
    assert main(["run", "example2", "--policy", "MW", "--slots", "10",
                 "--replications", "1", "--out", str(tmp_path)]) == 3
    assert "1 run(s) aborted" in capsys.readouterr().err


def test_cli_conflicting_flags(capsys):
    assert main(["run", "example2", "--horizon", "2"]) == 2
    assert "--horizon:" in capsys.readouterr().err
    assert main(["run", "example2", "--policy", "PNC", "--slots", "10"]) == 2
    assert "policy.H:" in capsys.readouterr().err
    assert main(["run", "example2", "--policy", "MW", "--horizon", "3",
                 "--slots", "10"]) == 2
    assert "policy.H:" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["13", "1000000"])
def test_cli_run_rejects_oversized_horizon(tmp_path, capsys, horizon):
    # example2 has 4 controls per slot: H = 13 searches 4^13 > 2^24 trajectories
    assert main(["run", "example2", "--policy", "PNC", "--horizon", horizon,
                 "--slots", "10", "--out", str(tmp_path)]) == 2
    assert "policy.H:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_run_rejects_wide_network_and_escaping_names(tmp_path, capsys):
    # validation fails before any file is written, inside --out or beside it
    network = {"R": [[-1] * 25, [0] * 25], "C": [[1] * 25], "c": [1], "W": [[1.0] * 25]}
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(dict(SMALL_RED, network=network, policies=[{"kind": "IDLE"}])))
    out = tmp_path / "out"
    for flags in (["MW"], ["PNC", "--horizon", "1"], ["FPNC", "--horizon", "2"], ["RANDOM"]):
        assert main(["run", str(wide), "--policy", *flags, "--out", str(out)]) == 2
        assert "network.R:" in capsys.readouterr().err
    for name in ("../escaped", "sub/dir"):
        named = tmp_path / "named.json"
        named.write_text(json.dumps(dict(SMALL_RED, name=name)))
        assert main(["run", str(named), "--out", str(out)]) == 2
        assert "name:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.json", "wide.json"]
    assert main(["run", str(wide), "--out", str(out)]) == 0   # IDLE lists no controls


def test_cli_region(tmp_path, capsys):
    code = main(["region", "example2", "--policy-set", "mw", "--rays", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    path = capsys.readouterr().out.strip()
    rows = list(csv.DictReader(open(path)))
    assert abs(float(rows[0]["boundary_x"]) - 1.0) < 1e-4
