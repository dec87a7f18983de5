"""Drop 0 of the paper-s, spare-4x4 and figures benchmark banks
against their committed references (sum rates; lobe metrics and the
outage curve), and the FP calls of the scenario drops 0 and of paper-s
drop 1 against the G-space oracle.

The benchmark in ``perfbench/`` checks every op of these banks, but a
run takes minutes; one drop here catches a fingerprint break in the
unit tests.  ``perfbench/workloads.py`` is imported read-only, so the
checks and tolerances are the benchmark's own.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmpass import multiuser
from oracles import fp_precoding_g

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


# FP calls per drop: the multi-mode schemes take one slot each, the
# single-mode ones two.  Every call of drop 0 stops at the cap; paper-s
# drop 1 adds three calls that stop by the tolerance (after 38, 173 and
# 191 iterations), so a tolerance stop that moves shows too.
FP_CALLS = {"paper-s": 3 + 2 * 2, "spare-4x4": 3}


@pytest.mark.parametrize("name, drop", [("paper-s", 0), ("paper-s", 1),
                                        ("spare-4x4", 0)])
def test_bank_fp_calls_match_g_space_oracle(workloads, name, drop,
                                            monkeypatch):
    # the reference check's 1e-5 tolerance cannot see an FP stop that
    # moved by one iteration; the oracle's trace pins every stop
    calls = []
    fp = multiuser.fp_precoding

    def recording(*args, **kwargs):
        result = fp(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(multiuser, "fp_precoding", recording)
    workload = workloads.WORKLOADS[name]()
    for op in workload.drop_ops(drop):
        scenario = workload.prepare(op)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.run(op, scenario, None)
    assert len(calls) == FP_CALLS[name]
    for n, (args, kwargs, (fact, trace)) in enumerate(calls):
        _, _, want, _ = fp_precoding_g(*args, **kwargs)
        # the oracle stops at the first gain below its tol of 1e-6
        stopped = want.size > 1 and abs(want[-1] - want[-2]) < 1e-6
        assert fact.iterations == len(trace) == len(want), n
        assert fact.converged == stopped, n
        np.testing.assert_allclose(trace, want, rtol=1e-9, atol=0.0,
                                   err_msg=f"call {n}")


def test_figures_drop_zero_matches_reference(workloads, tmp_path):
    workload = workloads.WORKLOADS["figures"]()
    reference = workloads.load_reference("figures")
    (op,) = workload.drop_ops(0)
    params = workload.prepare(op)
    result = workload.run(op, params, tmp_path)
    assert workload.check(op, params, result, reference) == []
