import tracemalloc

import numpy as np
import pytest

from mmpass import radiation
from mmpass.geometry import Orientation
from mmpass.placement import optimal_orientation
from mmpass.radiation import PortResponse, intensity_map, row_blocks
from mmpass.waveguide import (MediumConstants, PaPlacement, WaveguideSpec,
                              mode_spec, te_modes)
from oracles import (MU_0, h_wg_to_pa, local_angles, pattern_factor,
                     polarization_components, radiated_field,
                     spherical_basis)

A, B = 3e-3, 2e-3
ALPHA_A = 0.011512925464970228  # 0.05 dB/m


def _medium():
    return MediumConstants(frequency=100e9, n_core=2.0)


def _guide(aperture_scale=1.0, alpha_w=0.0, num_pas=1):
    return WaveguideSpec(a=A, b=B, feed_point=np.array([0.0, 3.0, 3.0]),
                         length=10.0, alpha_w=alpha_w, num_pas=num_pas,
                         aperture_scale=aperture_scale)


# ---------------------------------------------------------------------------
# pattern factors

def test_pattern_boresight_unity():
    lam = _medium().wavelength0
    for q in (1, 2):
        for phi in (0.0, 0.7, -2.0):
            assert pattern_factor(q, 0.0, phi, A, B, lam) == pytest.approx(1.0)


def test_pattern_taper_removable_singularity():
    # sin t sin p = lam/(2a): the cosine taper tends to pi/4 exactly
    lam = A  # convenient wavelength making the locus reachable
    theta = np.arcsin(0.5)
    value = pattern_factor(1, theta, np.pi / 2, A, B, lam)
    assert value == pytest.approx(np.pi / 4, rel=1e-12)


def test_pattern_sinc_null():
    # sin t cos p = lam/b puts the separable sinc at its first zero
    lam = 1.5e-3
    theta = np.arcsin(lam / B)
    assert pattern_factor(1, theta, 0.0, A, B, lam) == pytest.approx(0.0, abs=1e-15)


def test_pattern_continuity_near_singularities():
    # fine scans across both removable loci: the samples follow a smooth
    # curve (no kink or jump in the second difference) and the singular
    # point itself sits on the chord of its neighbors
    lam = A
    sin_target = 0.5  # taper singular locus at phi = pi/2
    base = np.arcsin(sin_target)
    for locus, phi in ((base, np.pi / 2), (1e-9, 0.0)):
        thetas = locus + np.arange(-50, 51) * 1e-4
        thetas = thetas[thetas >= 0]
        vals = pattern_factor(1, thetas, phi, A, B, lam)
        assert np.max(np.abs(np.diff(vals, 2))) < 1e-6
        h = 1e-4
        mid = pattern_factor(1, locus, phi, A, B, lam)
        chord = 0.5 * (pattern_factor(1, locus - h, phi, A, B, lam)
                       + pattern_factor(1, locus + h, phi, A, B, lam))
        assert abs(mid - chord) < 1e-6


def test_pattern_mode_swap_reciprocity():
    lam = _medium().wavelength0
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(-np.pi, np.pi)
        s2 = pattern_factor(2, theta, phi, A, B, lam)
        s1_swapped = pattern_factor(1, theta, np.pi / 2 - phi, B, A, lam)
        assert s2 == pytest.approx(s1_swapped, rel=1e-12, abs=1e-12)


def test_pattern_bounded_on_grid():
    lam = _medium().wavelength0
    thetas, phis = np.meshgrid(np.linspace(0, np.pi / 2, 80),
                               np.linspace(-np.pi, np.pi, 80))
    for q in (1, 2):
        vals = pattern_factor(q, thetas, phis, 15 * A, 15 * B, lam)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# polarization vectors

def test_polarization_boresight_norm():
    med = _medium()
    wg = _guide()
    for q, mode in enumerate(te_modes(wg, med), start=1):
        expected = 1.0 + mode.propagation_constant / med.k0
        for phi in (0.0, 1.0, -2.5):
            c_t, c_p = polarization_components(q, 0.0, phi,
                                               mode.propagation_constant,
                                               med.k0)
            assert np.hypot(c_t, c_p) == pytest.approx(expected, rel=1e-12)


def test_polarization_component_zeroing():
    med = _medium()
    mode = mode_spec(1, 0, _guide(), med)
    c_t, c_p = polarization_components(1, np.pi / 4, np.pi / 2,
                                       mode.propagation_constant, med.k0)
    assert c_t == pytest.approx(0.0, abs=1e-12)
    assert abs(c_p) > 0


def test_polarization_mode_symmetry_forced_equal_beta():
    beta = 3000.0
    rho = 2095.845
    rng = np.random.default_rng(2)
    for _ in range(50):
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(-np.pi, np.pi)
        p1 = polarization_components(1, theta, phi, beta, rho)
        p2 = polarization_components(2, theta, np.pi / 2 - phi, beta, rho)
        assert p1[0] == pytest.approx(p2[0], rel=1e-12, abs=1e-12)
        assert p1[1] == pytest.approx(p2[1], rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# radiated field (the scalar oracle the kernel is checked against)

def _port(x=5.0, pitch=0.0, roll=0.0, num_modes=1):
    return PaPlacement(x, tuple(Orientation(pitch, roll)
                                for _ in range(num_modes)))


def test_field_inverse_distance_law():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = _port()
    f1 = radiated_field(med, wg, mode, pa, pa.orientations[0],
                        [5.0, 3.0, 3.0 - 2.0], warn_near_field=False)
    f2 = radiated_field(med, wg, mode, pa, pa.orientations[0],
                        [5.0, 3.0, 3.0 - 4.0], warn_near_field=False)
    assert f1.magnitude / f2.magnitude == pytest.approx(2.0, rel=1e-12)


def test_field_absorption_ratio():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = _port()
    r = 3.0
    f1 = radiated_field(med, wg, mode, pa, pa.orientations[0],
                        [5.0, 3.0, 0.0], alpha_a=ALPHA_A, warn_near_field=False)
    f2 = radiated_field(med, wg, mode, pa, pa.orientations[0],
                        [5.0, 3.0, -1.0], alpha_a=ALPHA_A, warn_near_field=False)
    expected = (r + 1) / r * np.exp(ALPHA_A / 2)
    assert f1.magnitude / f2.magnitude == pytest.approx(expected, rel=1e-12)


def test_field_transverse_everywhere():
    med, wg = _medium(), _guide()
    modes = te_modes(wg, med)
    rng = np.random.default_rng(9)
    for _ in range(50):
        pa = _port(x=rng.uniform(1, 9), pitch=rng.uniform(-1, 1),
                   roll=rng.uniform(-1, 1))
        point = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        for mode in modes:
            f = radiated_field(med, wg, mode, pa, pa.orientations[0], point,
                               warn_near_field=False)
            radial = f.to_gcs() @ f.basis.upsilon
            assert abs(radial) < 1e-12 * max(f.magnitude, 1e-30)


def test_field_boresight_composition():
    # port aimed at the user: the sample reduces to the on-axis form
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    user = np.array([6.0, 2.0, 0.0])
    pa = _port(x=5.0)
    orient = optimal_orientation(pa.center(wg), user)
    f = radiated_field(med, wg, mode, pa, orient, user, warn_near_field=False)
    r = np.linalg.norm(user - pa.center(wg))
    k0 = med.k0
    omega = 2 * np.pi * med.frequency
    amp = (k0 * wg.aperture_a * wg.aperture_b * omega * MU_0
           / (2 * mode.cutoff_wavenumber ** 2 * np.pi * r))
    psi0 = 1.0 + mode.propagation_constant / k0
    assert f.magnitude == pytest.approx(amp * psi0, rel=1e-9)
    # mode 1 on axis is purely vartheta-polarized under the phi=0 pole rule
    assert abs(f.e_phi) < 1e-12 * abs(f.e_theta)


def test_field_rejects_source_point():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = _port()
    with pytest.raises(ValueError):
        radiated_field(med, wg, mode, pa, pa.orientations[0], pa.center(wg))


# ---------------------------------------------------------------------------
# port-to-user gain

def test_end_to_end_field_ratio_oracle():
    # the guide-to-port gain times the kernel's port-to-user gain (the
    # signed pattern, absorption and free-space phase) is the radiated
    # field along the kernel's field direction up to one constant per
    # mode, with the radiation phase j: the constants the normalized
    # gain leaves out depend on neither the element nor the user
    med = _medium()
    wg = _guide(alpha_w=0.018420680743952365, num_pas=2)
    rng = np.random.default_rng(11)
    for mode in te_modes(wg, med):
        ratios = []
        for _ in range(10):
            pa = _port(x=rng.uniform(0.5, 9.5), pitch=rng.uniform(-0.8, 0.8),
                       roll=rng.uniform(-0.8, 0.8))
            user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
            resp = PortResponse(med, mode, wg, pa.center(wg),
                                pa.orientations[0], user)
            gain = (h_wg_to_pa(mode, wg, pa.x_position)
                    * resp.amplitude(ALPHA_A)[0]
                    * np.exp(-1j * med.k0 * resp.r[0]))
            field = radiated_field(med, wg, mode, pa, pa.orientations[0],
                                   user, alpha_a=ALPHA_A,
                                   warn_near_field=False).to_gcs()
            along = field @ resp.direction[0]
            assert np.allclose(field, along * resp.direction[0], rtol=0.0,
                               atol=1e-12 * abs(along))
            ratios.append(along / gain)
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-9
        assert ratios[0] / abs(ratios[0]) == pytest.approx(1j, abs=1e-9)


@pytest.mark.parametrize("shared", [True, False])
def test_port_lanes_equal_single_port_evaluations(shared):
    # L ports of random aims in one call, at P shared points or at P
    # points of each lane's own, give each port's own evaluation bit for
    # bit, for both modes; some points lie on a port's boresight (the
    # pole, where the azimuth is pinned) and some lanes point straight
    # down at a point right below them
    med, wg = _medium(), _guide(aperture_scale=15.0)
    rng = np.random.default_rng(3 if shared else 4)
    n_lanes, n_points = 13, 7
    pitch = rng.uniform(-1.2, 1.2, n_lanes)
    roll = rng.uniform(-1.2, 1.2, n_lanes)
    pitch[:3] = roll[:3] = 0.0
    centers = np.column_stack([rng.uniform(0, 10, n_lanes),
                               rng.uniform(0, 6, n_lanes),
                               np.full(n_lanes, 3.0)])
    aims = [Orientation(p, r) for p, r in zip(pitch, roll)]
    on_axis = np.array([c + 2.5 * a.gcs_from_lcs()[:, 2]
                        for c, a in zip(centers, aims)])
    if shared:
        points = np.vstack([rng.uniform([0, 0, 0], [10, 6, 0],
                                        (n_points - 2, 3)), on_axis[:2]])
    else:
        points = rng.uniform([0, 0, 0], [10, 6, 0],
                             (n_lanes, n_points, 3))
        points[:, 0] = on_axis
        points[1:3, 1] = centers[1:3] - [0.0, 0.0, 3.0]
    for mode in te_modes(wg, med):
        lanes = PortResponse(med, mode, wg, centers,
                             Orientation(pitch, roll), points)
        assert lanes.pattern.shape == (n_lanes, n_points)
        assert lanes.direction.shape == (n_lanes, n_points, 3)
        for lane, aim in enumerate(aims):
            one = PortResponse(med, mode, wg, centers[lane], aim,
                               points if shared else points[lane])
            assert np.array_equal(lanes.r[lane], one.r)
            assert np.array_equal(lanes.pattern[lane], one.pattern)
            assert np.array_equal(lanes.direction[lane], one.direction)
    # one point per lane is the P = 1 case
    single = PortResponse(med, mode, wg, centers, Orientation(pitch, roll),
                          on_axis[:, None])
    for lane, aim in enumerate(aims):
        one = PortResponse(med, mode, wg, centers[lane], aim, on_axis[lane])
        assert np.array_equal(single.direction[lane], one.direction)
        assert np.array_equal(single.pattern[lane], one.pattern)


def _special_directions(lam):
    """LCS unit directions where the kernel's formulas are singular or
    degenerate: the boresight, a direction inside the pole tolerance,
    the back pole, and for both modes the first two sinc nulls and the
    taper's |argument| = 1, each on both signs of its axis."""
    a, b = 15 * A, 15 * B
    uv = [(0.0, 0.0), (1e-13, 0.0), (0.0, -1e-13)]
    for k in (1, 2):
        uv += [(s * k * lam / b, 0.0) for s in (1, -1)]     # S_1 sinc null
        uv += [(0.0, s * k * lam / a) for s in (1, -1)]     # S_2 sinc null
    for s in (1, -1):
        uv += [(0.0, s * lam / (2 * a)), (s * lam / (2 * b), 0.0),  # tapers
               (0.3 * s, lam / (2 * a)), (lam / (2 * b), -0.4 * s)]
    dirs = [(u, v, np.sqrt(1.0 - u * u - v * v)) for u, v in uv]
    return np.array(dirs + [(0.0, 0.0, -1.0)])


def test_port_response_matches_angle_oracle():
    # r, the pattern and the field direction of the direction-cosine
    # kernel equal the angle forms (atan2 angles, sin/cos of theta and
    # phi, the full spherical triad) to 1e-12 of each lane's peak, on
    # random lanes and on the directions where the formulas are singular
    med, wg = _medium(), _guide(aperture_scale=15.0)
    lam = med.wavelength0
    rng = np.random.default_rng(21)
    n_lanes = 9
    pitch = rng.uniform(-1.2, 1.2, n_lanes)
    roll = rng.uniform(-1.2, 1.2, n_lanes)
    centers = np.column_stack([rng.uniform(0, 10, n_lanes),
                               rng.uniform(0, 6, n_lanes),
                               np.full(n_lanes, 3.0)])
    special = _special_directions(lam)
    points = np.concatenate([
        rng.uniform([0, 0, 0], [10, 6, 0], (n_lanes, 40, 3)),
        np.stack([c + rng.uniform(0.5, 4.0) * Orientation(p, r).to_gcs(special)
                  for c, p, r in zip(centers, pitch, roll)])], axis=1)
    for mode in te_modes(wg, med):
        resp = PortResponse(med, mode, wg, centers,
                            Orientation(pitch, roll), points)
        for lane in range(n_lanes):
            aim = Orientation(pitch[lane], roll[lane])
            r, theta, phi = local_angles(points[lane], centers[lane], aim)
            psi_t, psi_p = polarization_components(
                mode.index, theta, phi, mode.propagation_constant, med.k0)
            norm = np.hypot(psi_t, psi_p)
            pattern = pattern_factor(mode.index, theta, phi, wg.aperture_a,
                                     wg.aperture_b, lam) * norm / r
            basis = spherical_basis(theta, phi, aim)
            direction = ((psi_t[:, None] * basis.vartheta
                          + psi_p[:, None] * basis.varphi) / norm[:, None])
            peak = np.abs(pattern).max()
            assert np.allclose(resp.r[lane], r, rtol=1e-12, atol=0.0)
            assert np.allclose(resp.pattern[lane], pattern, rtol=0.0,
                               atol=1e-12 * peak)
            assert np.allclose(resp.direction[lane], direction, rtol=0.0,
                               atol=1e-12)


def test_gain_decreases_off_boresight():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = _port(x=5.0)
    r = 3.0
    # swing the user along the theta arc at constant distance
    thetas = np.linspace(0.0, 0.3, 30)
    users = pa.center(wg) + r * np.column_stack(
        [np.sin(thetas), np.zeros_like(thetas), -np.cos(thetas)])
    resp = PortResponse(med, mode, wg, pa.center(wg), pa.orientations[0],
                        users)
    assert np.all(np.diff(np.abs(resp.pattern)) < 0)


def test_gain_spreading_law():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = _port(x=5.0)
    users = pa.center(wg) + np.outer([2.0, 4.0, 8.0], [0.0, 0.0, -1.0])
    mags = np.abs(PortResponse(med, mode, wg, pa.center(wg),
                               pa.orientations[0], users).pattern)
    assert mags[0] / mags[1] == pytest.approx(2.0, rel=1e-12)
    assert mags[1] / mags[2] == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# intensity map

def _dual_port_pa(pitch):
    return PaPlacement(5.0, (Orientation(pitch, 0.0),
                             Orientation(-pitch, 0.0)))


def test_intensity_map_peak_below_port():
    med, wg = _medium(), _guide(aperture_scale=15.0)
    mode = mode_spec(1, 0, wg, med)
    pa = PaPlacement(5.0, (Orientation(),))
    xs = np.linspace(3, 7, 201)
    ys = np.linspace(1, 5, 81)
    grid = intensity_map(med, wg, [mode], pa, xs, ys)
    iy, ix = np.unravel_index(np.argmax(grid), grid.shape)
    assert xs[ix] == pytest.approx(5.0, abs=0.05)
    assert ys[iy] == pytest.approx(3.0, abs=0.1)
    assert grid.max() == pytest.approx(0.0, abs=1e-12)


def test_intensity_map_two_lobes():
    med, wg = _medium(), _guide(aperture_scale=15.0)
    modes = te_modes(wg, med)
    pa = _dual_port_pa(np.pi / 4)
    xs = np.linspace(0, 10, 1001)
    ys = np.linspace(2.5, 3.5, 11)
    per_port = [intensity_map(med, wg, [mode], PaPlacement(5.0, (o,)),
                              xs, ys)
                for mode, o in zip(modes, pa.orientations)]
    iy = 5
    peak1 = xs[np.argmax(per_port[0][iy])]
    peak2 = xs[np.argmax(per_port[1][iy])]
    # +/- 45 deg pitch at 3 m height: beams land 3 m either side
    assert peak1 == pytest.approx(8.0, abs=0.15)
    assert peak2 == pytest.approx(2.0, abs=0.15)


def test_intensity_map_is_the_normalized_raw_field():
    # the summed intensity of both ports of a lossy element is the
    # oracle's raw radiated field over the grid maximum, in dB; the
    # modes' weights differ by their 1/rho_q^2 field factors
    med = _medium()
    wg = _guide(aperture_scale=15.0, alpha_w=0.018420680743952365,
                num_pas=3)
    modes = te_modes(wg, med)
    pa = PaPlacement(6.0, (Orientation(0.3, 0.1), Orientation(-0.2, 0.25)))
    xs = np.linspace(3.0, 9.0, 7)
    ys = np.linspace(1.0, 5.0, 5)
    grid = intensity_map(med, wg, modes, pa, xs, ys, alpha_a=ALPHA_A)
    total = np.array([[sum(radiated_field(med, wg, mode, pa, orientation,
                                          [x, y, 0.0], alpha_a=ALPHA_A,
                                          warn_near_field=False).magnitude ** 2
                           for mode, orientation in zip(modes,
                                                        pa.orientations))
                       for x in xs] for y in ys])
    expected = 10 * np.log10(total / total.max())
    assert np.max(np.abs(grid - expected)) <= 1e-9


def test_intensity_map_rejects_tiny_grid():
    med, wg = _medium(), _guide()
    mode = mode_spec(1, 0, wg, med)
    pa = PaPlacement(5.0, (Orientation(),))
    with pytest.raises(ValueError):
        intensity_map(med, wg, [mode], pa, [1.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# row blocks

@pytest.mark.parametrize("n_rows, row_points", [
    (121, 1001), (37, 1001), (3, 20001), (2, 2), (16, 4608)])
def test_row_blocks_cover_the_rows_in_order_within_the_cap(n_rows, row_points):
    blocks = list(row_blocks(n_rows, row_points))
    assert [r for rows in blocks for r in range(n_rows)[rows]] == list(
        range(n_rows))
    for rows in blocks:
        size = len(range(n_rows)[rows])
        # a block holds whole rows; a row over the cap is a block alone
        assert size * row_points <= radiation._BLOCK_POINTS or size == 1
    # as many rows as fit: only the last block may be short
    assert all(len(range(n_rows)[rows]) == len(range(n_rows)[blocks[0]])
               for rows in blocks[:-1])


@pytest.mark.parametrize("n_x, n_y", [(1001, 37), (20001, 3), (2, 2)])
def test_intensity_map_blocks_equal_one_block(monkeypatch, n_x, n_y):
    # a row count that is no multiple of the block, rows wider than a
    # block, and the smallest grid, each against one whole-grid block
    med, wg = _medium(), _guide(aperture_scale=15.0, num_pas=3)
    modes = te_modes(wg, med)
    pa = PaPlacement(4.0, (Orientation(0.5, 0.1), Orientation(-0.3, -0.2)))
    xs = np.linspace(0.0, 10.0, n_x)
    ys = np.linspace(0.0, 6.0, n_y)
    blocked = intensity_map(med, wg, modes, pa, xs, ys, alpha_a=ALPHA_A)
    assert len(list(row_blocks(n_y, n_x))) == (1 if n_y == 2 else 3)
    monkeypatch.setattr(radiation, "_BLOCK_POINTS", n_x * n_y)
    assert len(list(row_blocks(n_y, n_x))) == 1
    whole = intensity_map(med, wg, modes, pa, xs, ys, alpha_a=ALPHA_A)
    assert np.array_equal(blocked, whole)


def test_intensity_map_memory_is_the_grid_plus_a_block():
    # the field map's 0.002 m grid, 121 x 5001 points: the temporaries
    # of the whole grid at once would take ~80 MB
    med, wg = _medium(), _guide(aperture_scale=15.0)
    modes = te_modes(wg, med)
    xs = np.arange(0.0, 10.0 + 1e-9, 0.002)
    ys = np.arange(0.0, 6.0 + 1e-9, 0.05)
    tracemalloc.start()
    try:
        grid = intensity_map(med, wg, modes, _dual_port_pa(np.pi / 4), xs,
                             ys, alpha_a=ALPHA_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (121, 5001)
    assert peak < 2 * grid.nbytes + 4e6, peak
