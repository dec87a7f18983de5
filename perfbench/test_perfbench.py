"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import copy
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mmpass  # noqa: E402
from mmpass import multiuser, placement  # noqa: E402
from tracer import Tracer, WarningCounter  # noqa: E402
from workloads import WORKLOADS, Op, load_reference  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 8]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 8, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 4.0, "b": 2.0, "c": 1.0, "d": 3.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_self_time_adds_repeated_calls():
    # a [0, 6] calls b twice: [1, 2] and [3, 5]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6]))
    tracer.enter("a")
    for _ in range(2):
        tracer.enter("b")
        tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 3.0, "b": 3.0}
    assert tracer.calls["b"] == 2


def test_patch_swaps_every_binding_and_restores_them():
    fp = multiuser.fp_precoding
    pair = placement.two_user_shared_position
    seen = []
    with Tracer() as tracer:
        tracer.patch(multiuser, "fp_precoding", "fp",
                     on_result=lambda t, a, k, r: seen.append(len(r[1])))
        tracer.patch(placement, "two_user_shared_position", "pair")
        assert multiuser.fp_precoding is not fp
        assert mmpass.fp_precoding is multiuser.fp_precoding
        assert multiuser.two_user_shared_position is not pair
        assert placement.two_user_shared_position is not pair
        h = np.eye(2, dtype=complex)
        multiuser.fp_precoding(h, np.eye(2), 1.0, 1.0, max_iter=3)
    assert tracer.calls["fp"] == 1 and seen and seen[0] <= 3
    assert multiuser.fp_precoding is fp and mmpass.fp_precoding is fp
    assert multiuser.two_user_shared_position is pair
    assert placement.two_user_shared_position is pair
    assert mmpass.two_user_shared_position is pair


def test_restore_runs_when_the_traced_call_raises():
    fp = multiuser.fp_precoding
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.patch(multiuser, "fp_precoding", "fp")
            multiuser.fp_precoding(np.eye(2), np.eye(2), 1.0, -1.0)
    assert multiuser.fp_precoding is fp
    assert tracer.calls["fp"] == 1 and not tracer._stack


def test_warnings_counted_by_category_and_layer():
    tracer = Tracer()
    with WarningCounter(lambda: tracer.current) as counter:
        warnings.warn("outside")
        tracer.enter("layer")
        for _ in range(3):
            warnings.warn("same text")
        warnings.warn("other", RuntimeWarning)
        tracer.exit()
    assert counter.counts == {("UserWarning", "op"): 1,
                              ("UserWarning", "layer"): 3,
                              ("RuntimeWarning", "layer"): 1}
    assert counter.total(layer="layer") == 4


@pytest.fixture(scope="module")
def paper_op():
    wl = WORKLOADS["paper-s"]()
    op = Op(0, "pa-mm")
    scenario = wl.prepare(op)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = wl.run(op, scenario, None)
    return wl, op, scenario, result, load_reference("paper-s")


def test_reference_op_passes(paper_op):
    wl, op, scenario, result, reference = paper_op
    assert wl.check(op, scenario, result, reference) == []


@pytest.mark.parametrize("scale", [1 + 1e-4, 1 - 2e-2])
def test_perturbed_reference_sum_rate_fails(paper_op, scale):
    wl, op, scenario, result, reference = paper_op
    perturbed = dict(reference)
    perturbed[op.key] = reference[op.key] * scale
    problems = wl.check(op, scenario, result, perturbed)
    assert any("reference" in p for p in problems)


def test_missing_reference_fails(paper_op):
    wl, op, scenario, result, _ = paper_op
    assert wl.check(op, scenario, result, {})


def test_invariants_catch_broken_outputs(paper_op):
    wl, op, scenario, result, reference = paper_op

    broken = copy.deepcopy(result)
    broken.report.per_user_rate[0] += 0.1
    assert any("sum to" in p for p in wl.check(op, scenario, broken, reference))

    broken = copy.deepcopy(result)
    broken.slots[0].trace[-1] = broken.slots[0].trace[-2] - 1e-6
    assert any("trace" in p for p in wl.check(op, scenario, broken, reference))

    broken = copy.deepcopy(result)
    x = broken.slots[0].assignment.x
    x[:, 0] = 0
    assert any("not served" in p
               for p in wl.check(op, scenario, broken, reference))

    broken = copy.deepcopy(result)
    row = broken.slots[0].placements[0]
    served = [n for n in range(len(row))
              if broken.slots[0].assignment.x[n].any()]
    assert len(served) >= 2
    row[served[1]] = replace(row[served[1]],
                             x_position=row[served[0]].x_position)
    assert any("apart" in p for p in wl.check(op, scenario, broken, reference))


def test_perturbed_figures_reference_fails(tmp_path):
    wl = WORKLOADS["figures"]()
    reference = load_reference("figures")
    op = Op(0)
    params = wl.prepare(op)
    result = wl.run(op, params, str(tmp_path))
    assert wl.check(op, params, result, reference) == []

    lobe = copy.deepcopy(reference)
    lobe[op.key]["lobe"]["peak_db"] += 1e-3
    assert any("lobe" in p for p in wl.check(op, params, result, lobe))

    curve = copy.deepcopy(reference)
    curve[op.key]["outage"][-1][2] += 2.0 / curve[op.key]["trials"]
    assert any("outage" in p for p in wl.check(op, params, result, curve))
