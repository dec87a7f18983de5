"""Drop 0 of the paper-s, spare-4x4 and figures benchmark banks
against their committed references (sum rates; lobe metrics and the
outage curve).

The benchmark in ``perfbench/`` checks every op of these banks, but a
run takes minutes; one drop here catches a fingerprint break in the
unit tests.  ``perfbench/workloads.py`` is imported read-only, so the
checks and tolerances are the benchmark's own.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["paper-s", "spare-4x4"])
def test_drop_zero_matches_reference(workloads, name):
    workload = workloads.WORKLOADS[name]()
    reference = workloads.load_reference(name)
    ops = workload.drop_ops(0)
    assert len(ops) == len(workload.schemes)
    for op in ops:
        scenario = workload.prepare(op)
        with warnings.catch_warnings():
            # close pairs warn that cross-mode interference is neglected
            warnings.simplefilter("ignore")
            result = workload.run(op, scenario, None)
        assert workload.check(op, scenario, result, reference) == [], op.key


def test_figures_drop_zero_matches_reference(workloads, tmp_path):
    workload = workloads.WORKLOADS["figures"]()
    reference = workloads.load_reference("figures")
    (op,) = workload.drop_ops(0)
    params = workload.prepare(op)
    result = workload.run(op, params, tmp_path)
    assert workload.check(op, params, result, reference) == []
