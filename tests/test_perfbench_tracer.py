"""The benchmark's tracer patches qnet functions by name; every name must exist.

`perfbench/tracer.py` wraps the calls one qnet module makes into another
(for example `qnet.policies.solve_bip`).  A rename or deletion in qnet breaks
a traced benchmark run (`perfbench/run.py --trace 1`) without failing an
untraced one, so this test installs the tracer, runs a small traced
workload and uninstalls it.
"""

import importlib.util
from pathlib import Path

import qnet.optim as optim
import qnet.policies as policies
import qnet.stability as stability
from qnet.harness import region_rows, run_experiment
from qnet.scenarios import scenario_example2

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_restores():
    originals = [(owner, name, getattr(owner, name))
                 for owner, name in ((policies, "solve_bip"), (policies, "build_bip"),
                                     (policies.FpncPolicy, "decide"),
                                     (optim, "solve_lp"), (stability, "solve_lp"))]
    tracer = _load_tracer().Tracer().install()
    try:
        assert all(getattr(owner, name) is not fn for owner, name, fn in originals)
        sc = scenario_example2("green", slots=40, replications=1)
        sc.policies = [p for p in sc.policies if p.name in ("MW", "PNC-H2", "FPNC-H2")]
        run_experiment(sc)
        region_rows(sc, "mw", n_rays=2)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for owner, name, fn in originals)
    metrics = {k: v for k, (v, _unit) in tracer.layer_metrics(rays=2, bytes_written=0).items()}
    assert metrics["dynamics.slots"] == metrics["policies.decisions"] == 120
    assert metrics["policies.solves"] == metrics["optim.solve_bip_calls"] > 0
    # the harness classifies each run through its own `assess_stability` name
    assert metrics["stability.assess_s"] > 0
    # the region LPs reach the tracer as exact calls
    assert metrics["optim.lp_exact_calls"] > 0 and metrics["optim.lp_float_calls"] == 0
