"""Experiment drivers: exported rows."""

from mmpass import bench
from mmpass.config import ScenarioConfig


def test_field_map_rows_match_per_point_rounding():
    cfg = ScenarioConfig()
    result = bench.run_field_map(cfg, grid_res=0.07, port_pitch=0.6)
    want = [(float(round(x, 6)), float(round(y, 6)),
             float(round(result.grid_db[iy, ix], 4)))
            for iy, y in enumerate(result.ys)
            for ix, x in enumerate(result.xs)]
    assert result.rows == want
    assert all(type(v) is float for row in result.rows[:5] for v in row)
