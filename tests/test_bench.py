"""Experiment drivers: exported rows and outage drops."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mmpass import bench
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.placement import (LinkModel, bounded_minimize, eq22_sum_rate,
                              optimal_position, tdma_sum_rate)
from oracles import csv_text


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


@pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32 + 7,
                                  2 ** 70 + 3, 2 ** 100 + 5])
def test_trial_pairs_equal_per_trial_generators(seed):
    # one to four 32-bit seed words (with t, four fill the hash pool and
    # five overflow it); trial t draws what its own default_rng((seed, t))
    # draws, whatever the trial count
    cfg = ScenarioConfig(seed=seed)
    want = np.array([np.random.default_rng((seed, t)).random((2, 2))
                     for t in range(10_000)]) * [cfg.d_x, cfg.d_y]
    for n in (1, 300, 10_000):
        assert np.array_equal(bench._trial_pairs(cfg, n), want[:n]), n


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


def test_outage_objectives_equal_the_pair_rates_on_user_arrays(monkeypatch):
    # both searches read each trial's lane geometry, computed once per
    # drop; at random x, over every lane and over a subset of lanes,
    # their objectives are the dual-mode and time-division pair rates
    # evaluated on the user position arrays, bit for bit
    objectives = []

    def recording(fun, lo, hi):
        objectives.append(fun)
        return bounded_minimize(fun, lo, hi)

    monkeypatch.setattr(bench, "bounded_minimize", recording)
    cfg = ScenarioConfig(seed=12)
    trials = 200
    bench.run_outage(cfg, [0.0], trials=trials)
    assert len(objectives) == 2
    scn = build_scenario(replace(cfg, pas_per_waveguide=1),
                         users=np.zeros((2, 3)))
    link = LinkModel(scn)
    sigmas = (scn.noise[0], scn.noise[0])
    pts = bench._trial_pairs(cfg, trials)
    u1, u2 = (np.column_stack([pts[:, i], np.zeros(trials)]) for i in (0, 1))
    rng = np.random.default_rng(13)
    subset = np.sort(rng.choice(trials, 37, replace=False))
    for fun, rate in zip(objectives, (eq22_sum_rate, tdma_sum_rate)):
        for lanes in (np.arange(trials), subset):
            x = rng.uniform(0.0, link.wg.length, lanes.size)
            want = -rate(x, link, u1[lanes], u2[lanes], sigmas, scn.power)
            assert np.array_equal(fun(x, lanes), want), rate.__name__


def _synthetic(experiment, columns, rows):
    return bench.ExperimentResult(experiment, columns, rows,
                                  {"config": "abc123", "seed": 4})


@pytest.mark.parametrize("result", [
    _synthetic("outage", ("power_dbw", "scheme", "outage"),
               [(-22.0, "MM", 0.25), (-22.0, "SM-TDMA", np.float64(1.0)),
                (-20.0, "MM", 0.0)]),
    _synthetic("convergence", ("iteration", "scheme", "sum_rate"),
               [(0, "PA-MM", 3.14159265), (1, "PA-MM", float("inf")),
                (2, "PI-SM", float("nan")), (3, "PI-SM", -0.0)]),
    _synthetic("rate_vs_power", ("power_dbw", "scheme", "sum_rate"),
               [(0.0, "DP-MM", np.float64(28.1171234567)),
                (5.0, "PA-SM", float("-inf"))]),
    _synthetic("scaling", ("sweep", "m", "n", "k", "scheme", "sum_rate"),
               [("mn", 2, 1, 24, "PA-MM", 12.5),
                ("k", np.int64(4), 3, 8, "PI-MM", np.float64(1e300))]),
    _synthetic("empty", ("a", "b"), []),
], ids=lambda r: r.experiment)
def test_write_csv_matches_value_oracle(result, tmp_path):
    path = result.write_csv(tmp_path)
    with open(path) as fh:
        text = fh.read()
    assert text == csv_text(result)
    assert len(text.splitlines()) == 2 + len(result.rows)


def test_driver_csvs_match_value_oracle(tmp_path):
    cfg = ScenarioConfig(seed=3)
    for result in (bench.run_field_map(cfg, grid_res=0.25),
                   bench.run_outage(cfg, [-20.0, -10.0], trials=100)):
        with open(result.write_csv(tmp_path)) as fh:
            assert fh.read() == csv_text(result), result.experiment


@pytest.mark.parametrize("pitch", [np.pi / 4, 0.6])
def test_field_map_csv_from_grid_matches_value_oracle(pitch, tmp_path):
    # the benchmark's default resolution (121 121 rows): the grid writer
    # gives the bytes the one-format-per-row rule gives, through the one
    # write method the export span wraps
    result = bench.run_field_map(ScenarioConfig(), port_pitch=pitch)
    assert isinstance(result, bench.FieldMapResult)
    assert type(result).write_csv is bench.ExperimentResult.write_csv
    assert len(result.rows) == 121_121
    with open(result.write_csv(tmp_path)) as fh:
        lines = fh.read().split("\n")
    # compared as lists, so a failure names its first line
    assert lines == csv_text(result).split("\n")


def test_power_at_outage_takes_the_highest_power_crossing():
    # noise makes this curve cross 0.1 three times, at -18.4, -17.33 and
    # -13 dBW; scanning down from high power meets -13 first
    curve = _synthetic("outage", ("power_dbw", "scheme", "outage"),
                       [(-12.0, "MM", 0.0), (-20.0, "MM", 0.3),
                        (-18.0, "MM", 0.05), (-16.0, "MM", 0.2),
                        (-14.0, "MM", 0.2)])
    assert bench.power_at_outage(curve, "MM", 0.1) == pytest.approx(-13.0)
    with pytest.raises(ValueError, match="never crosses"):
        bench.power_at_outage(curve, "MM", 0.5)
    with pytest.raises(ValueError, match="never crosses"):
        bench.power_at_outage(curve, "SM-TDMA", 0.1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rate_vs_power_keeps_the_scheme_ordering(seed):
    # polarization-aware multi-mode serves best, the codebook beats the
    # fixed polarization, and multi-mode beats single-mode at each power
    rows = bench.run_rate_vs_power(ScenarioConfig(seed=seed),
                                   [-10.0, 10.0, 30.0]).rows
    for power in (-10.0, 10.0, 30.0):
        rate = {r[1]: r[2] for r in rows if r[0] == power}
        assert (rate["PA-MM"] > rate["DP-MM"] > rate["PI-MM"]
                > rate["PI-SM"]), (power, rate)
        assert rate["PA-MM"] > rate["PA-SM"], (power, rate)


def test_scaling_rows_report_the_users_they_ran_with():
    # listed users fix K: every row carries their count, and there is no
    # user-count sweep to run
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=2,
                         user_mode="explicit", schemes=("pa-mm",),
                         user_positions=((1.0, 1.0), (3.0, 2.0),
                                         (6.0, 4.0), (8.5, 5.0)))
    rows = bench.run_scaling(cfg).rows
    assert len(rows) == 9
    assert {(r[0], r[3]) for r in rows} == {("mn", 4)}
    uniform = bench.run_scaling(replace(cfg, user_mode="uniform",
                                        user_positions=(), num_users=6))
    assert sorted({(r[0], r[3]) for r in uniform.rows}) == [
        ("k", 8), ("k", 16), ("k", 24), ("mn", 6)]
