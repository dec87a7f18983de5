"""Scenario construction: guide layout, mode slicing, the normalized
per-mode gains, the default placement of elements a deployment leaves
unassigned, and the immutability that lets a scenario keep one
deployment."""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from mmpass import multiuser
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.geometry import Orientation
from mmpass.placement import LinkModel
from mmpass.radiation import PortResponse
from mmpass.scenario import waveguide_y_positions
from mmpass.waveguide import element_center, power_share


def _idle_elements(monkeypatch, cfg):
    """The scenario of ``cfg`` and the records of the elements that the
    first pa-mm slot leaves unassigned when the greedy fill is skipped,
    as (guide, element, record) triples."""
    monkeypatch.setattr(multiuser._SlotSolver, "greedy_fill",
                        lambda self, assignment: assignment)
    scn = build_scenario(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slot = multiuser.optimize_scenario(scn, "pa-mm").slots[0]
    n_pas = scn.num_pas
    return scn, [(m, n, pa) for m, row in enumerate(slot.placements)
                 for n, pa in enumerate(row)
                 if not slot.assignment.x[m * n_pas + n].any()]


def test_default_placements_spread_over_each_guide_pointing_down(
        monkeypatch):
    # one pair on 2 x 3 elements: five elements stay unassigned
    scn, idle = _idle_elements(monkeypatch, ScenarioConfig(
        d_x=8.0, num_waveguides=2, pas_per_waveguide=3, num_users=2))
    assert len(idle) == 5
    for m, n, pa in idle:
        assert pa.x_position == [2.0, 4.0, 6.0][n]
        assert len(pa.orientations) == 2
        for orientation in pa.orientations:
            boresight = orientation.gcs_from_lcs()[:, 2]
            np.testing.assert_allclose(boresight, [0.0, 0.0, -1.0],
                                       atol=1e-15)


def test_built_scenario_places_elements_over_the_region_length(monkeypatch):
    scn, idle = _idle_elements(monkeypatch, ScenarioConfig(
        d_x=12.0, pas_per_waveguide=2, num_users=2))
    assert all(wg.length == 12.0 for wg in scn.waveguides)
    assert len(idle) == 2 * scn.num_waveguides - 1
    for m, n, pa in idle:
        assert pa.x_position == [4.0, 8.0][n]


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
    # 1 m straight below an element, mode q's boresight link gain is the
    # port's amplitude, squared, times the guide's power share, with the
    # default losses or none; without losses that is its obliquity
    # factor squared over the N-way share
    n_pas = 3
    for lossless in (True, False):
        losses = dict(alpha_w_db=0.0, alpha_a_db=0.0) if lossless else {}
        cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=n_pas,
                             num_users=1, **losses)
        scn = build_scenario(cfg, users=np.zeros((1, 3)))
        assert (scn.alpha_a == 0.0) == lossless
        wg = scn.waveguides[0]
        x = wg.length / (n_pas + 1)
        center = element_center(x, wg)
        user = center - [0.0, 0.0, 1.0]
        link = LinkModel(scn)
        for q, mode in enumerate(scn.modes, start=1):
            gain = link.gain(q, x, user)
            if lossless:
                obliquity = 1.0 + mode.propagation_constant / scn.med.k0
                assert gain == pytest.approx(obliquity ** 2 / n_pas,
                                             rel=1e-12)
            resp = PortResponse(scn.med, mode, wg, center, Orientation(),
                                user)
            assert gain == pytest.approx(
                resp.amplitude(scn.alpha_a)[0] ** 2 * power_share(x, wg),
                rel=1e-12)


@pytest.mark.parametrize("name, change", [
    ("a", {"a": 4e-3}), ("b", {"b": 1e-3}), ("aperture_scale",
                                             {"aperture_scale": 10.0}),
    ("num_pas", {"num_pas": 4}), ("length", {"length": 9.0}),
    ("alpha_w", {"alpha_w": 0.1}),
    ("axis_z", {"axis_z": 2.5})])
def test_scenario_rejects_guides_that_differ_beyond_axis_y(name, change):
    scn = build_scenario(ScenarioConfig(num_users=2))
    guides = list(scn.waveguides)
    guides[2] = replace(guides[2], **change)
    with pytest.raises(ValueError, match=f"guide 2 differs from guide 0 "
                                         f"in {name} "):
        replace(scn, waveguides=guides)
    # a guide moved along y only is the layout every scenario has
    guides[2] = replace(scn.waveguides[2], axis_y=5.9)
    assert replace(scn, waveguides=guides).waveguides[2].axis_y == 5.9


def test_scenario_fields_cannot_be_reassigned():
    scn = build_scenario(ScenarioConfig(num_users=2))
    with pytest.raises(FrozenInstanceError):
        scn.power = 1.0
    with pytest.raises(TypeError):
        scn.waveguides[0] = scn.waveguides[1]
    with pytest.raises(FrozenInstanceError):
        scn.waveguides[0].axis_y = 0.0


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
