"""Scenario construction: default element placement, guide layout,
mode slicing, the normalized per-mode gains, and the immutability that
lets a scenario keep one deployment."""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from mmpass import multiuser
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.placement import LinkModel
from mmpass.radiation import PortResponse
from mmpass.scenario import default_placements, waveguide_y_positions
from mmpass.waveguide import WaveguideSpec, h_wg_to_pa


def _guide(length, y=1.0):
    return WaveguideSpec(a=3e-3, b=2e-3, feed_point=np.array([0.0, y, 3.0]),
                         length=length, num_pas=3)


def test_default_placements_spread_over_each_guide_pointing_down():
    guides = [_guide(8.0), _guide(5.0, y=4.0)]
    placements = default_placements(guides, 3, 2)
    assert [[pa.x_position for pa in row] for row in placements] == \
        [[2.0, 4.0, 6.0], [1.25, 2.5, 3.75]]
    for row in placements:
        for pa in row:
            assert len(pa.orientations) == 2
            for orientation in pa.orientations:
                boresight = orientation.gcs_from_lcs()[:, 2]
                np.testing.assert_allclose(boresight, [0.0, 0.0, -1.0],
                                           atol=1e-15)


def test_built_scenario_places_elements_over_the_region_length():
    scn = build_scenario(ScenarioConfig(d_x=12.0, pas_per_waveguide=2,
                                        num_users=2))
    for wg, row in zip(scn.waveguides, scn.placements):
        assert wg.length == 12.0
        assert [pa.x_position for pa in row] == [4.0, 8.0]


@pytest.mark.parametrize("count", [1, 2, 4, 7])
def test_waveguides_are_centered_and_evenly_spaced(count):
    ys = waveguide_y_positions(6.0, count)
    np.testing.assert_allclose(ys + ys[::-1], 6.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(np.diff(ys), 6.0 / count, rtol=1e-12)
    assert ys[0] == pytest.approx(3.0 / count, rel=1e-12)


def test_with_modes_slices_modes():
    scn = build_scenario(ScenarioConfig(num_users=2))
    single = scn.with_modes(1)
    assert single.modes == scn.modes[:1]
    assert single.mode_amplitude(1) == scn.mode_amplitude(1)
    assert scn.num_modes == 2


def test_per_mode_normalization_at_the_reference_distance():
    # no losses: 1 m straight below an element, mode q's link gain is
    # its obliquity factor squared over the N-way guide share, and it is
    # the port's pattern, squared, times that share
    n_pas = 3
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=n_pas,
                         num_users=1, alpha_w_db=0.0, alpha_a_db=0.0)
    scn = build_scenario(cfg, users=np.zeros((1, 3)))
    wg, pa = scn.waveguides[0], scn.placements[0][0]
    center = pa.center(wg)
    user = center - [0.0, 0.0, 1.0]
    link = LinkModel(scn)
    for q, mode in enumerate(scn.modes, start=1):
        gain = link.gain(q, pa.x_position, user)
        obliquity = 1.0 + mode.propagation_constant / scn.med.k0
        assert gain == pytest.approx(obliquity ** 2 / n_pas, rel=1e-12)
        resp = PortResponse(scn.med, mode, wg, center, pa.orientations[q - 1],
                            user)
        share = abs(h_wg_to_pa(mode, wg, pa)) ** 2
        assert gain == pytest.approx(resp.pattern[0] ** 2 * share,
                                     rel=1e-12)


@pytest.mark.parametrize("name, change", [
    ("a", {"a": 4e-3}), ("b", {"b": 1e-3}), ("aperture_scale",
                                             {"aperture_scale": 10.0}),
    ("num_pas", {"num_pas": 4}), ("length", {"length": 9.0}),
    ("alpha_w", {"alpha_w": 0.1}),
    ("axis_z", {"feed_point": np.array([0.0, 4.5, 2.5])})])
def test_scenario_rejects_guides_that_differ_beyond_axis_y(name, change):
    scn = build_scenario(ScenarioConfig(num_users=2))
    guides = list(scn.waveguides)
    guides[2] = replace(guides[2], **change)
    with pytest.raises(ValueError, match=f"guide 2 differs from guide 0 "
                                         f"in {name} "):
        replace(scn, waveguides=guides)
    # a guide moved along y only is the layout every scenario has
    guides[2] = replace(scn.waveguides[2], feed_point=np.array([0.0, 5.9,
                                                                3.0]))
    assert replace(scn, waveguides=guides).waveguides[2].axis_y == 5.9


def test_scenario_fields_cannot_be_reassigned():
    scn = build_scenario(ScenarioConfig(num_users=2))
    with pytest.raises(FrozenInstanceError):
        scn.power = 1.0
    with pytest.raises(TypeError):
        scn.waveguides[0] = scn.waveguides[1]
    with pytest.raises(ValueError):
        scn.waveguides[0].feed_point[1] = 0.0


@pytest.mark.parametrize("name", ["users", "noise"])
def test_scenario_arrays_are_read_only(name):
    users = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
    scn = build_scenario(ScenarioConfig(num_users=2), users=users)
    with pytest.raises(ValueError):
        getattr(scn, name)[0] = 1.0
    # the caller's array is copied, not frozen
    users[0, 0] = 5.0
    assert scn.users[0, 0] == 1.0


def test_replaced_scenario_is_deployed_anew(monkeypatch):
    powers = []
    solve = multiuser.two_user_shared_position

    def recording(user1, user2, link, power, sigmas):
        powers.append(power)
        return solve(user1, user2, link, power, sigmas)

    monkeypatch.setattr(multiuser, "two_user_shared_position", recording)
    scn = build_scenario(ScenarioConfig(num_waveguides=2, pas_per_waveguide=2,
                                        num_users=4))
    louder = replace(scn, power=10.0 * scn.power)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in (scn, scn, louder, louder):
            multiuser.optimize_scenario(run, "pa-mm")
    assert powers == [scn.power, louder.power]
