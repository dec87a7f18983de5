"""Experiment drivers: exported rows and outage drops."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mmpass import bench
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.placement import (LinkModel, bounded_minimize, eq22_sum_rate,
                              optimal_position, tdma_sum_rate)


def test_field_map_rows_match_per_point_rounding():
    cfg = ScenarioConfig()
    result = bench.run_field_map(cfg, grid_res=0.07, port_pitch=0.6)
    want = [(float(round(x, 6)), float(round(y, 6)),
             float(round(result.grid_db[iy, ix], 4)))
            for iy, y in enumerate(result.ys)
            for ix, x in enumerate(result.xs)]
    assert result.rows == want
    assert all(type(v) is float for row in result.rows[:5] for v in row)


@pytest.mark.parametrize("seed", [1, 7, 2 ** 31 - 1])
def test_outage_drops_equal_uniform_draws(seed):
    # random() scaled by the region is the uniform draw of the same
    # generator, bit for bit
    cfg = ScenarioConfig(seed=seed)
    pts = bench._trial_pairs(cfg, 300)
    want = np.array([np.random.default_rng((seed, t)).uniform(
        [0, 0], [cfg.d_x, cfg.d_y], size=(2, 2)) for t in range(300)])
    assert np.array_equal(pts, want)


def test_outage_positions_match_scipy_bounded(monkeypatch):
    # the dual-mode position maximizes the dual-mode pair rate and the
    # single-mode one the time-division rate, each over the interval
    # between the two single-user optima: scipy's bounded search on the
    # same objective returns the same x, bit for bit
    searched = []

    def recording(fun, lo, hi):
        searched.append(bounded_minimize(fun, lo, hi))
        return searched[-1]

    monkeypatch.setattr(bench, "bounded_minimize", recording)
    cfg = ScenarioConfig()
    bench.run_outage(cfg, [0.0], trials=100)
    assert len(searched) == 2
    scn = build_scenario(replace(cfg, pas_per_waveguide=1),
                         users=np.zeros((2, 3)))
    link = LinkModel(scn)
    sigmas = (scn.noise[0], scn.noise[0])
    pts = bench._trial_pairs(cfg, 100)
    u1, u2 = (np.column_stack([pts[:, i], np.zeros(100)]) for i in (0, 1))
    x1, _ = optimal_position(u1, link.wg, scn.alpha_a)
    x2, _ = optimal_position(u2, link.wg, scn.alpha_a)
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    for x, rate in zip(searched, (eq22_sum_rate, tdma_sum_rate)):
        for t in range(0, 100, 9):
            res = minimize_scalar(
                lambda x: -rate(np.array([x]), link, u1[t:t + 1],
                                u2[t:t + 1], sigmas, scn.power)[0],
                bounds=(lo[t], hi[t]), method="bounded",
                options={"xatol": 1e-9})
            assert float(res.x) == x[t], (rate.__name__, t)
