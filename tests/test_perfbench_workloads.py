"""The benchmark's pinned units pass their own checks and digests.

`perfbench/run.py` starts every workload with its pinned unit: fixed inputs,
the workload's `check` (verdicts, run length, mass balance, first controls
against the enumeration oracle, the closed-form region boundary) and the
SHA-256 of every output file against `perfbench/digests.json`.  This test
runs the same pinned units, so a change that would fail those checks fails
here first.  It reads perfbench and writes only to a temporary directory.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _finish(result):
    """A unit's result; a generator unit is driven through its yields."""
    if not inspect.isgenerator(result):
        return result
    while True:
        try:
            next(result)
        except StopIteration as stop:
            return stop.value


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_pinned_unit_passes_its_checks_and_digests(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name]
    result = _finish(workload.pinned(str(tmp_path)))
    checks = WORKLOADS.Checks()
    workload.check(result, checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
    digests = {os.path.relpath(f, tmp_path): _sha256(f) for f in result.files}
    assert digests == DIGESTS[name]
