"""Experiment drivers: exported rows and outage drops."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mmpass import bench, placement, radiation
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.placement import (LinkModel, bounded_minimize, eq22_sum_rate,
                              optimal_position, pair_search, tdma_sum_rate,
                              two_user_shared_position)
from oracles import csv_text


def test_field_map_rows_match_per_point_rounding():
    cfg = ScenarioConfig()
    result = bench.run_field_map(cfg, grid_res=0.07, port_pitch=0.6)
    want = [(float(round(x, 6)), float(round(y, 6)),
             float(round(result.grid_db[iy, ix], 4)))
            for iy, y in enumerate(result.ys)
            for ix, x in enumerate(result.xs)]
    rows = list(result.rows)
    assert rows == want
    assert all(type(v) is float for row in rows for v in row)


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


def _outage_lanes(cfg, trials):
    """The link, noise powers, user arrays and single-user optima of
    ``run_outage``'s trials."""
    scn = build_scenario(replace(cfg, pas_per_waveguide=1),
                         users=np.zeros((2, 3)))
    link = LinkModel(scn)
    sigmas = (scn.noise[0], scn.noise[0])
    pts = bench._trial_pairs(cfg, trials)
    u1, u2 = (np.column_stack([pts[:, i], np.zeros(trials)]) for i in (0, 1))
    x1, _ = optimal_position(u1, link.wg, scn.alpha_a)
    x2, _ = optimal_position(u2, link.wg, scn.alpha_a)
    return link, sigmas, u1, u2, x1, x2


def test_outage_positions_match_scipy_bounded(monkeypatch):
    # the dual-mode search maximizes the dual-mode pair rate and the
    # single-mode one the time-division rate, each over the interval
    # between the two single-user optima: scipy's bounded search on the
    # same objective returns the same x, bit for bit
    searched = []

    def recording(fun, lo, hi):
        searched.append(bounded_minimize(fun, lo, hi))
        return searched[-1]

    monkeypatch.setattr(placement, "bounded_minimize", recording)
    cfg = ScenarioConfig()
    bench.run_outage(cfg, [0.0], trials=100)
    assert len(searched) == 2
    link, sigmas, u1, u2, x1, x2 = _outage_lanes(cfg, 100)
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    lanes = np.nonzero(hi - lo > 1e-9)[0]
    for (x, _), rate in zip(searched, (eq22_sum_rate, tdma_sum_rate)):
        assert x.size == lanes.size
        for k in range(0, lanes.size, 9):
            t = lanes[k]
            res = minimize_scalar(
                lambda x: -rate(np.array([x]), link, u1[t:t + 1],
                                u2[t:t + 1], sigmas, link.scenario.power)[0],
                bounds=(lo[t], hi[t]), method="bounded",
                options={"xatol": 1e-9})
            assert float(res.x) == x[k], (rate.__name__, t)


def test_outage_objectives_equal_the_pair_rates_on_user_arrays(monkeypatch):
    # both searches read each trial's lane geometry, computed once per
    # drop; at random x, over every searched lane and over a subset of
    # them, their objectives are the dual-mode and time-division pair
    # rates evaluated on the user position arrays, bit for bit
    objectives = []

    def recording(fun, lo, hi):
        objectives.append(fun)
        return bounded_minimize(fun, lo, hi)

    monkeypatch.setattr(placement, "bounded_minimize", recording)
    cfg = ScenarioConfig(seed=12)
    trials = 200
    bench.run_outage(cfg, [0.0], trials=trials)
    assert len(objectives) == 2
    link, sigmas, u1, u2, x1, x2 = _outage_lanes(cfg, trials)
    searched = np.nonzero(np.abs(x1 - x2) > 1e-9)[0]
    rng = np.random.default_rng(13)
    subset = np.sort(rng.choice(searched.size, 37, replace=False))
    for fun, rate in zip(objectives, (eq22_sum_rate, tdma_sum_rate)):
        for lanes in (np.arange(searched.size), subset):
            x = rng.uniform(0.0, link.wg.length, lanes.size)
            t = searched[lanes]
            want = -rate(x, link, u1[t], u2[t], sigmas, link.scenario.power)
            assert np.array_equal(fun(x, lanes), want), rate.__name__


def test_outage_positions_equal_the_pipeline_pair_solve(monkeypatch):
    # the dual-mode outage position of every trial is the x* that
    # two_user_shared_position gives the same pair, bit for bit
    found = []

    def recording(objective, x1, x2):
        found.append(pair_search(objective, x1, x2))
        return found[-1]

    monkeypatch.setattr(bench, "pair_search", recording)
    cfg = ScenarioConfig(seed=5)
    bench.run_outage(cfg, [0.0], trials=300)
    link, sigmas, u1, u2, _, _ = _outage_lanes(cfg, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some pairs under 1 m apart
        sol = two_user_shared_position(u1, u2, link, link.scenario.power,
                                       sigmas)
    assert np.array_equal(found[0][0], sol.x_star)
    assert np.array_equal(found[0][1], sol.sum_rate)


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


def _ulps(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


# Values whose product v * 1e4 is exactly a half, which rint rounds to
# even; the last three carry the integer part to one more digit, and
# -9999.99995 past what the tables spell.
TIES = [-0.00005, -0.00125, -2.00025, -9.99995, -99.99995, -999.99995,
        -9999.99995]

# Intensities at the edges of the digit-table spelling: signed zeros,
# values that round to -0.0, the ties and their neighbours one ulp
# either side, integer parts that change digit count, positive values,
# and values the tables cannot spell (|k| >= 10**8, inf, nan), whose
# text can be wider than a spelled one.
EDGE_VALUES = [
    0.0, -0.0, -5e-324, -1e-300, -1e-5, -4.9999e-5,
    *(u for v in TIES for u in _ulps(v)),
    *_ulps(-0.00015), *_ulps(-1.00005),
    -9.9999, -10.0, -99.9999, -100.0, -1000.0, -3233.0,
    5e-5, 0.00125, 1.23456, 12.3, 9999.5, *_ulps(9999.99994),
    *_ulps(-9999.99994), -10000.0, 10000.0,
    -12345.6789, 1e300, -1e300, 1.7e308, -1.7e308,
    -np.inf, np.inf, np.nan,
]


def test_ties_are_exact_halves():
    assert np.all(np.array(TIES) * 1e4 % 1 == 0.5)


def _field_map(grid):
    grid = np.asarray(grid, dtype=float)
    return bench.FieldMapResult(
        "field_map", ("x", "y", "intensity_db"),
        metadata={"config": "abc123", "seed": 4},
        xs=np.linspace(-1.5, 12.25, grid.shape[1]),
        ys=np.linspace(6.0, -0.5, grid.shape[0]), grid_db=grid)


# np.round(1.7e308, 4) would overflow in its multiply; neither the rows
# nor the spelled text may warn on it
NO_WARNING = "error::RuntimeWarning"


@pytest.mark.filterwarnings(NO_WARNING)
@pytest.mark.parametrize("block_rows", [1, 3, 100])
def test_field_map_text_at_the_spelling_edges_matches_value_oracle(
        block_rows, monkeypatch, tmp_path):
    # the edge values spread over blocks of 1 and 3 rows, and in one
    # block, among random intensities across the spelled range
    rng = np.random.default_rng(11)
    spread = np.concatenate([-10.0 ** rng.uniform(-6, 3.6, 600),
                             np.round(rng.uniform(-200, 200, 400), 5)])
    values = np.concatenate([EDGE_VALUES, spread[len(EDGE_VALUES):]])
    rng.shuffle(values)
    grid = values.reshape(40, 25)
    monkeypatch.setattr(radiation, "_BLOCK_POINTS", block_rows * 25)
    result = _field_map(grid)
    with open(result.write_csv(tmp_path)) as fh:
        lines = fh.read().split("\n")
    assert lines == csv_text(result).split("\n")


@pytest.mark.filterwarnings(NO_WARNING)
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_field_map_spells_each_edge_value_as_the_rows_do(value, tmp_path):
    # one value per map, so a wrong line names its value; a row rounds
    # the value to 4 decimals unless v * 1e4 overflows, and then keeps it
    result = _field_map([[value, -1.0], [-2.0, value]])
    with open(result.write_csv(tmp_path)) as fh:
        assert fh.read() == csv_text(result)
    want = float(value)
    if np.isfinite(want * 1e4):
        want = float(np.round(want, 4))
    got = result.rows[0][2]
    assert got == want or np.isnan(got) and np.isnan(want)
    assert np.signbit(got) == np.signbit(want)


@pytest.fixture(scope="module")
def fine_map():
    # the field map at grid_res 0.002: 121 x 5001 points, 41 row blocks
    return bench.run_field_map(ScenarioConfig(), grid_res=0.002)


def test_fine_field_map_file_equals_the_generic_rule(fine_map, tmp_path):
    assert fine_map.grid_db.shape == (121, 5001)
    with open(fine_map.write_csv(tmp_path), "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    assert got == hashlib.sha256(csv_text(fine_map).encode()).hexdigest()


def test_field_map_export_memory_is_a_block_of_text(fine_map, tmp_path):
    # the whole map's text at once would be ~19 MB; blocked, the export
    # holds about one block's rows as bytes, mask and text at a time
    block_text = max(map(len, fine_map._body()))
    tables = bench._INT_DIGITS.nbytes + bench._FRAC_DIGITS.nbytes
    tracemalloc.start()
    try:
        fine_map.write_csv(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block_text + tables + 2e6, peak


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
