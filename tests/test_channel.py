import numpy as np
import pytest

from mmpass import channel
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.geometry import Orientation
from mmpass.placement import (LinkModel, optimal_orientation, power_split,
                              two_user_shared_position)
from mmpass.polarization import receive_polarization
from mmpass.radiation import PortResponse
from mmpass.waveguide import PaPlacement, element_center, power_share
from oracles import guide_to_port_matrix, h_wg_to_pa, radiated_field


def _single_link_scenario(user=(5.5, 3.0, 0.0)):
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=1, num_users=1)
    scn = build_scenario(cfg, users=np.array([user]))
    return cfg, scn


def _arrays(placements):
    """The element arrays of ``port_factors`` for PaPlacement records
    [m][n]: positions (M, N) and aims with (M, N, Q) angles."""
    x = np.array([[pa.x_position for pa in row] for row in placements])
    angles = np.array([[[(o.pitch, o.roll) for o in pa.orientations]
                        for pa in row] for row in placements])
    return x, Orientation(pitch=angles[..., 0], roll=angles[..., 1])


def _aim_and_place(scn, x, user):
    """One element at x with every port aimed at the user."""
    pa_pos = element_center(x, scn.waveguides[0])
    return PaPlacement(x, tuple(optimal_orientation(pa_pos, user)
                                for _ in scn.modes))


def _matched_rx(scn, pa, user, q=0):
    wg = scn.waveguides[0]
    e_dir = PortResponse(scn.med, scn.modes[q], wg, pa.center(wg),
                         pa.orientations[q], user).direction[0]
    return receive_polarization("matched", e_dir, user, pa.center(wg))


def test_degenerate_scalar_composition():
    # K = M = N = 1: the assembled entry is eta * h_pu * h_wp
    cfg, scn = _single_link_scenario()
    user = scn.users[0]
    pa = _aim_and_place(scn, 5.0, user)
    rx = _matched_rx(scn, pa, user)[None, :]
    factors = channel.port_factors(scn, *_arrays([[pa]]))
    cm = channel.assemble(factors, rx)
    wg = scn.waveguides[0]
    h_wp = h_wg_to_pa(scn.modes[0], wg, pa.x_position)
    composed = cm.lam[0, 0] * factors.h_pu[0, 0] * h_wp
    assert cm.h[0, 0] == pytest.approx(composed, rel=1e-12)
    # matched receive polarization on the serving link
    assert cm.lam[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_zero_mask_annihilates():
    cfg, scn = _single_link_scenario()
    user = scn.users[0]
    pa = _aim_and_place(scn, 5.0, user)
    rx = _matched_rx(scn, pa, user)[None, :]
    factors = channel.port_factors(scn, *_arrays([[pa]]))
    cm = channel.assemble(factors, rx)
    assert np.allclose((0.0 * cm.lam * factors.h_pu) @ factors.h_wp, 0.0)


def _random_elements(m, n, q, seed):
    """A scenario of M guides with N elements and Q modes, and element
    arrays of uniform positions over each guide and uniform aims."""
    cfg = ScenarioConfig(num_waveguides=m, pas_per_waveguide=n, num_users=3)
    rng = np.random.default_rng(seed)
    scn = build_scenario(cfg, users=_uniform_users(cfg, seed)).with_modes(q)
    x = rng.uniform(0.0, cfg.d_x, size=(m, n))
    pitch, roll = rng.uniform(-1.0, 1.0, size=(2, m, n, q))
    return scn, x, Orientation(pitch=pitch, roll=roll)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (4, 4, 2)],
                         ids=["MNQ=111", "MNQ=232", "MNQ=442"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h_wp_equals_the_scalar_oracle_bit_for_bit(shape, seed):
    scn, x, aims = _random_elements(*shape, seed)
    h_wp = channel.port_factors(scn, x, aims).h_wp
    oracle = guide_to_port_matrix(scn.modes, scn.waveguides, x.tolist())
    assert h_wp.shape == oracle.shape
    assert np.array_equal(h_wp, oracle)


@pytest.mark.parametrize("bad", [-1e-3, 10.0 + 1e-9, np.nan])
def test_position_outside_the_guide_raises(bad):
    scn, x, aims = _random_elements(2, 3, 2, 0)
    length = scn.waveguides[0].length
    x[1, 2] = length + 1e-9 if bad > 10 else bad
    with pytest.raises(ValueError, match="outside the waveguide"):
        channel.port_factors(scn, x, aims)
    with pytest.raises(ValueError, match="outside the waveguide"):
        power_share(x, scn.waveguides[0])
    x[1, 2] = length  # the guide's end is still on it
    channel.port_factors(scn, x, aims)


def test_port_column_index_map():
    # (m=2, n=1, q=2) with N=3, Q=2 lands in 1-based row 8, column 4:
    # the port's gain is the row's only entry, and the column collects
    # mode 2 of the three elements of guide 2
    scn, x, aims = _random_elements(2, 3, 2, 4)
    h_wp = channel.port_factors(scn, x, aims).h_wp
    gain = h_wg_to_pa(scn.modes[1], scn.waveguides[1], x[1, 0])
    assert np.flatnonzero(h_wp[7]).tolist() == [3]
    assert h_wp[7, 3] == gain
    assert np.flatnonzero(h_wp[:, 3]).tolist() == [7, 9, 11]
    assert np.array_equal(h_wp, guide_to_port_matrix(
        scn.modes, scn.waveguides, x.tolist()))


def _down(scn):
    """Elements evenly spread over each guide, L (n + 1) / (N + 1),
    every port pointing straight down."""
    m, n = scn.num_waveguides, scn.num_pas
    x = np.tile(scn.waveguides[0].length * np.arange(1, n + 1) / (n + 1),
                (m, 1))
    return x, Orientation(pitch=np.zeros((m, n, scn.num_modes)),
                          roll=np.zeros((m, n, scn.num_modes)))


def _uniform_users(cfg, seed):
    """The config's users drawn uniformly over the floor region."""
    xy = np.random.default_rng(seed).uniform(
        [0.0, 0.0], [cfg.d_x, cfg.d_y], size=(cfg.num_users, 2))
    return np.column_stack([xy, np.zeros(cfg.num_users)])


def test_assembly_consistency_invariant():
    cfg = ScenarioConfig(num_waveguides=2, pas_per_waveguide=2, num_users=4)
    scn = build_scenario(cfg, users=_uniform_users(cfg, 0))
    rx = np.tile([0.0, 0.0, 1.0], (4, 1))
    factors = channel.port_factors(scn, *_down(scn))
    cm = channel.assemble(factors, rx)
    assert np.allclose(cm.h, (cm.lam * factors.h_pu) @ factors.h_wp,
                       atol=1e-15)
    assert cm.lam.min() >= 0.0 and cm.lam.max() <= 1.0 + 1e-9


def test_assembly_superposition():
    cfg = ScenarioConfig(num_waveguides=2, pas_per_waveguide=2, num_users=4)
    scn = build_scenario(cfg, users=_uniform_users(cfg, 1))
    rx = np.tile([0.0, 0.0, 1.0], (4, 1))
    factors = channel.port_factors(scn, *_down(scn))
    cm = channel.assemble(factors, rx)
    eff = cm.lam * factors.h_pu
    bumped = eff.copy()
    bumped[2, 5] *= 2.0
    h2 = bumped @ factors.h_wp
    delta = h2 - cm.h
    expected = np.outer(np.eye(4)[2], factors.h_wp[5]) * eff[2, 5]
    assert np.allclose(delta, expected, atol=1e-15)


def test_h_pa_to_user_matches_assembled_column_with_sign():
    # along x under a downward port the pattern passes through negative
    # sidelobes; the assembled column, composed with the guide-to-port
    # gain along the field direction, is the scalar oracle's radiated
    # field up to one constant per mode, in magnitude and phase
    # everywhere, pi flip included
    xs = np.linspace(2.0, 8.0, 301)
    users = np.column_stack([xs, np.full_like(xs, 3.0), np.zeros_like(xs)])
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=1,
                         num_users=len(xs))
    scn = build_scenario(cfg, users=users)
    pa, wg = PaPlacement(5.0, (Orientation(),) * 2), scn.waveguides[0]
    factors = channel.port_factors(scn, *_arrays([[pa]]))
    for q, mode in enumerate(scn.modes):  # one element: port q, column q
        resp = PortResponse(scn.med, mode, wg, pa.center(wg),
                            pa.orientations[q], users)
        assert np.array_equal(factors.directions[:, q], resp.direction)
        gains = h_wg_to_pa(mode, wg, pa.x_position) * factors.h_pu[:, q]
        oracle = np.array([radiated_field(scn.med, wg, mode, pa,
                                          pa.orientations[q], u,
                                          alpha_a=scn.alpha_a,
                                          warn_near_field=False).to_gcs()
                           for u in users])
        along = np.sum(oracle * resp.direction, axis=1)
        assert np.allclose(oracle, along[:, None] * resp.direction,
                           rtol=0.0, atol=1e-12 * np.abs(along).max())
        ratios = along / gains
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-9
    resp = PortResponse(scn.med, scn.modes[0], wg, pa.center(wg),
                        pa.orientations[0], users)
    assert np.any(resp.pattern < 0)  # the cut does reach negative lobes


def test_rx_polarization_norm_enforced():
    cfg, scn = _single_link_scenario()
    with pytest.raises(ValueError):
        channel.assemble(channel.port_factors(scn, *_down(scn)),
                         np.array([[0.0, 0.0, 2.0]]))


def test_rx_polarization_shape_enforced():
    # one receive vector for the 24 users of the default scenario must
    # not broadcast to all of them, and every row needs three components
    scn = build_scenario(ScenarioConfig())
    down = np.array([0.0, 0.0, 1.0])
    factors = channel.port_factors(scn, *_down(scn))
    for rx in (down[None, :], down, np.tile(down, (25, 1)),
               np.tile([1.0, 0.0], (24, 1))):
        with pytest.raises(ValueError, match="shape"):
            channel.assemble(factors, rx)


def test_user_rate_zero_column():
    h = np.array([[1.0 + 0j, 0.5j]])
    w = np.zeros((2, 1), dtype=complex)
    assert channel.rate_report(h, w, 10.0, 1e-3).per_user_rate[0] == 0.0


def test_user_rate_unit_snr():
    h = np.array([[1.0 + 0j]])
    sigma = 0.25
    power = 4.0
    w = np.array([[np.sqrt(sigma / power)]], dtype=complex)
    report = channel.rate_report(h, w, power, sigma)
    assert report.per_user_rate[0] == pytest.approx(0.5)


def test_rate_matches_pair_evaluator_interference_free():
    # a pair served on orthogonal modes with matched polarization gives
    # the same sum rate through the full matrix as the closed pair form
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=1, num_users=2)
    u1, u2 = np.array([4.0, 3.0, 0.0]), np.array([6.5, 3.0, 0.0])
    scn = build_scenario(cfg, users=np.array([u1, u2]))
    link = LinkModel(scn)
    sig = (scn.noise[0], scn.noise[1])
    sol = two_user_shared_position(u1, u2, link, scn.power, sig)
    pa = PaPlacement(sol.x_star, sol.orientations)
    rx = np.stack([_matched_rx(scn, pa, scn.users[i], q=i) for i in (0, 1)])
    cm = channel.assemble(channel.port_factors(scn, *_arrays([[pa]])), rx)
    w_p = np.zeros((2, 2))
    w_p[[0, 1], [0, 1]] = np.sqrt(power_split(
        link.gain(1, sol.x_star, u1), link.gain(2, sol.x_star, u2), *sig,
        scn.power))
    # mode inputs map straight to the two ports here (single element)
    w = w_p.astype(complex)
    report = channel.rate_report(cm.h, w, scn.power, scn.noise)
    # cross-mode lobes at >= 1 m separation leak below 1e-3 of the rate
    assert report.sum_rate == pytest.approx(sol.sum_rate, rel=2e-3)


def test_sum_rate_user_permutation_invariant():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w /= np.sqrt(np.trace(w @ w.conj().T).real)
    base = channel.rate_report(h, w, 5.0, 1e-2).sum_rate
    perm = rng.permutation(4)
    permuted = channel.rate_report(h[perm], w[:, perm], 5.0, 1e-2).sum_rate
    assert permuted == pytest.approx(base, rel=1e-12)


def test_sum_rate_decreases_with_uniform_scaling():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    w /= np.sqrt(np.trace(w @ w.conj().T).real)
    previous = channel.rate_report(h, w, 5.0, 1e-2).sum_rate
    for c in (0.75, 0.5, 0.25):
        scaled = channel.rate_report(h, c * w, 5.0, 1e-2).sum_rate
        assert scaled < previous
        previous = scaled


def test_sum_rate_unitary_mixing_preserves_power():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w /= np.sqrt(np.trace(w @ w.conj().T).real)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                        + 1j * rng.normal(size=(4, 4)))
    mixed = w @ q
    assert np.trace(mixed @ mixed.conj().T).real == pytest.approx(1.0)


def test_power_budget_enforced():
    h = np.ones((1, 2), dtype=complex)
    w = np.ones((2, 1), dtype=complex)  # power 2 > 1
    with pytest.raises(ValueError):
        channel.rate_report(h, w, 1.0, 1e-2)


def test_noise_must_be_positive():
    h = np.ones((1, 1), dtype=complex)
    w = np.full((1, 1), 0.5 + 0j)
    with pytest.raises(ValueError):
        channel.rate_report(h, w, 1.0, 0.0)

