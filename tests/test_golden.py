"""Golden outputs: SHA-256 digests of the trace, summary and region CSVs.

Four fixed runs through the public API pin every output byte: example2-red
(2000 slots, all five policies), example2-green (2*10^4 slots, MW and
FPNC-H3), example1 at its defaults, and both region CSVs of example2 at the
default 13 rays.  A change that moves any byte fails here; an intended
output change updates the digest below together with the reason.
"""

import hashlib
import os

import pytest

from qnet.harness import DEFAULT_RAY_COUNT, run_experiment, write_region_csv
from qnet.scenarios import builtin_scenario, scenario_example1, scenario_example2

RED = {
    "example2-red__MW__rep0.csv":
        "d3ec75303cc9bdde87f6adeca0198676a241a0c029630c7149cbe7c66cfe1420",
    "example2-red__PNC-H2__rep0.csv":
        "7f32505897fd98579417f5e2cd25ae3e95f2a1fe0e0f0d0083e4c98b307ad2f2",
    "example2-red__PNC-H3__rep0.csv":
        "7f32505897fd98579417f5e2cd25ae3e95f2a1fe0e0f0d0083e4c98b307ad2f2",
    "example2-red__FPNC-H2__rep0.csv":
        "1ceb9c9f55bf83caf4c21f69c226e791a6e6b675e5f9a990aea8af21e220b071",
    "example2-red__FPNC-H3__rep0.csv":
        "f601f908daf4534d00f8a8334058a13c3174d9083feb9756d86efa49bd0062a6",
    "example2-red__summary.csv":
        "299b5cf3a4e9660cd3f21bca209892bfdcb9df09b62252fe21db72f2cf14f5eb",
}

GREEN = {
    "example2-green__MW__rep0.csv":
        "15cebbfceaed5f64c7618515c745d2fdc97879d1202444c825471d85a0d07561",
    "example2-green__FPNC-H3__rep0.csv":
        "1d8078e00b80eefb99de27d6fe74100d03c9212826b8fc846aa3e1285536cf03",
    "example2-green__summary.csv":
        "613da628a908365eb0b7757baf86b492a3eafc9b01df86d2a4a0d8f5e2243612",
}

# MW and every horizon deliver the same schedule on example1's defaults
EXAMPLE1_TRACE = "ec0ef08e207f191641b5347bec6faab50b315b591c870eedeca592a0b6262d82"
EXAMPLE1 = {
    **{f"example1__{p}__rep0.csv": EXAMPLE1_TRACE
       for p in ("MW", "PNC-H2", "PNC-H3", "PNC-H4", "PNC-H5")},
    "example1__summary.csv":
        "5d7db5ddee041835fdd809045835a9fde5f51b14d09386f414df3cb91571bc27",
}

REGION = {
    "example2-red__region_full.csv":
        "c993706d19c3702e272efc0b1a614744987671aafe398b8a6d6d46ccfaa3038c",
    "example2-red__region_mw.csv":
        "e870237c423abbfe0f6e100d9e74b949953c341dba446377f815d99aeb9aca0a",
}


def _digests(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _example2(point, slots, policy_names):
    sc = scenario_example2(point, slots=slots, replications=1, seed=1)
    sc.policies = [p for p in sc.policies if p.name in policy_names]
    return sc


@pytest.mark.parametrize("scenario, expected", [
    pytest.param(lambda: _example2("red", 2000, ("MW", "PNC-H2", "PNC-H3", "FPNC-H2",
                                                 "FPNC-H3")), RED, id="example2-red"),
    pytest.param(lambda: _example2("green", 20000, ("MW", "FPNC-H3")), GREEN,
                 id="example2-green"),
    pytest.param(scenario_example1, EXAMPLE1, id="example1"),
])
def test_run_outputs_pinned(tmp_path, scenario, expected):
    result = run_experiment(scenario(), out_dir=str(tmp_path))
    assert _digests(result.files) == expected


def test_region_outputs_pinned(tmp_path):
    sc = builtin_scenario("example2")
    paths = [write_region_csv(sc, option_set, str(tmp_path), DEFAULT_RAY_COUNT)
             for option_set in ("full", "mw")]
    assert _digests(paths) == REGION
