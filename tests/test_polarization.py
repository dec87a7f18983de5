import numpy as np
import pytest

from mmpass.geometry import Orientation, SphericalBasis
from mmpass.polarization import receive_polarization, user_arrival_basis
from mmpass.radiation import PortResponse
from mmpass.waveguide import MediumConstants, PaPlacement, WaveguideSpec, te_modes
from oracles import (FieldSample, JonesVector, discrete_rx_polarization,
                     incident_jones, local_angles, matching_efficiency,
                     optimal_rx_polarization, polarization_components,
                     radiated_field, spherical_basis)


def _sample(e_theta, e_phi, theta=0.7, phi=0.3):
    basis = spherical_basis(theta, phi, Orientation())
    return FieldSample(e_theta=e_theta, e_phi=e_phi,
                       position=np.zeros(3), basis=basis)


def test_jones_requires_unit_norm():
    with pytest.raises(ValueError):
        JonesVector(1.0, 1.0)
    JonesVector.normalized(3.0, 4.0)  # normalizes internally


def test_incident_pure_theta():
    j = incident_jones(_sample(2.0 + 0j, 0.0))
    assert j.c_theta == pytest.approx(1.0)
    assert j.c_phi == pytest.approx(0.0)


def test_incident_sign_flip():
    # equal in-phase components: the azimuthal part flips into the
    # user's plane
    j = incident_jones(_sample(1.0, 1.0))
    assert j.c_theta == pytest.approx(1 / np.sqrt(2))
    assert j.c_phi == pytest.approx(-1 / np.sqrt(2))


def test_incident_unit_norm_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        e_t, e_p = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(e_t) + abs(e_p) < 1e-12:
            continue
        j = incident_jones(_sample(e_t, e_p))
        assert np.hypot(abs(j.c_theta), abs(j.c_phi)) == pytest.approx(1.0)


def test_incident_rejects_zero_field():
    with pytest.raises(ValueError):
        incident_jones(_sample(0.0, 0.0))


def test_matching_perfect_and_orthogonal():
    a = JonesVector(1.0, 0.0)
    b = JonesVector(0.0, 1.0)
    assert matching_efficiency(a, a) == pytest.approx(1.0)
    assert matching_efficiency(a, b) == pytest.approx(0.0)


def test_matching_thirty_degrees():
    a = JonesVector(1.0, 0.0)
    b = JonesVector(np.cos(np.pi / 6), np.sin(np.pi / 6))
    assert matching_efficiency(a, b) == pytest.approx(np.cos(np.pi / 6))


def test_matching_symmetry_and_phase_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        ang1, ang2, phase = rng.uniform(0, 2 * np.pi, size=3)
        a = JonesVector(np.cos(ang1), np.sin(ang1))
        b = JonesVector(np.cos(ang2), np.sin(ang2))
        assert matching_efficiency(a, b) == pytest.approx(
            matching_efficiency(b, a))
        rotated = JonesVector(b.c_theta * np.exp(1j * phase),
                              b.c_phi * np.exp(1j * phase))
        assert matching_efficiency(a, rotated) == pytest.approx(
            matching_efficiency(a, b))


def _field_for(mode, med, wg, pa, orientation, user):
    return radiated_field(med, wg, mode, pa, orientation, user,
                          warn_near_field=False)


def _setup():
    med = MediumConstants(frequency=100e9, n_core=2.0)
    wg = WaveguideSpec(a=3e-3, b=2e-3, axis_y=3.0, axis_z=3.0,
                       length=10.0, aperture_scale=15.0)
    return med, wg, te_modes(wg, med)


def test_optimal_rx_boresight_form():
    med, wg, modes = _setup()
    for q, mode in enumerate(modes, start=1):
        for phi in (0.0, 0.4, 1.2):
            j = optimal_rx_polarization(q, 0.0, phi,
                                        mode.propagation_constant, med.k0)
            ref = (np.cos(phi), -np.sin(phi)) if q == 1 else \
                  (np.sin(phi), -np.cos(phi))
            assert j.c_theta.real == pytest.approx(ref[0], abs=1e-12)
            assert j.c_phi.real == pytest.approx(ref[1], abs=1e-12)


def test_optimal_rx_achieves_unit_efficiency():
    med, wg, modes = _setup()
    rng = np.random.default_rng(8)
    for _ in range(100):
        pa = PaPlacement(rng.uniform(1, 9),
                         (Orientation(rng.uniform(-1, 1), rng.uniform(-1, 1)),))
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        q = int(rng.integers(1, 3))
        mode = modes[q - 1]
        field = _field_for(mode, med, wg, pa, pa.orientations[0], user)
        if field.magnitude == 0.0:
            continue
        inc = incident_jones(field)
        r, theta, phi = (v.item() for v in
                         local_angles(user, pa.center(wg), pa.orientations[0]))
        rx = optimal_rx_polarization(q, theta, phi,
                                     mode.propagation_constant, med.k0)
        assert matching_efficiency(rx, inc) == pytest.approx(1.0, abs=1e-9)


def test_matched_receive_vector_is_the_closed_form():
    # the pipeline's matched receive vector (the kernel's field
    # direction at the user) is the closed-form optimal polarization
    # expressed in the GCS, and it captures the whole oracle field
    med, wg, modes = _setup()
    rng = np.random.default_rng(41)
    for _ in range(100):
        orient = Orientation(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pa = PaPlacement(rng.uniform(1, 9), (orient,))
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        q = int(rng.integers(1, 3))
        mode = modes[q - 1]
        src = pa.center(wg)
        e_dir = PortResponse(med, mode, wg, src, orient, user).direction[0]
        p = receive_polarization("matched", e_dir, user, src)
        r, theta, phi = (v.item() for v in local_angles(user, src, orient))
        port = spherical_basis(theta, phi, orient)
        rx = optimal_rx_polarization(
            q, theta, phi, mode.propagation_constant, med.k0,
            SphericalBasis(-port.upsilon, port.vartheta, -port.varphi))
        assert abs(p @ rx.to_gcs()) == pytest.approx(1.0, abs=1e-12)
        field = _field_for(mode, med, wg, pa, orient, user)
        assert matching_efficiency(rx, incident_jones(field)) == \
            pytest.approx(1.0, abs=1e-9)


def test_optimal_rx_dominates_codebook():
    med, wg, modes = _setup()
    rng = np.random.default_rng(15)
    angles = np.linspace(0, 2 * np.pi, 3600, endpoint=False)
    for _ in range(100):
        pa = PaPlacement(rng.uniform(1, 9),
                         (Orientation(rng.uniform(-1, 1), rng.uniform(-1, 1)),))
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        mode = modes[0]
        field = _field_for(mode, med, wg, pa, pa.orientations[0], user)
        inc = incident_jones(field)
        best_codeword = np.max(np.abs(np.cos(angles) * inc.c_theta
                                      + np.sin(angles) * inc.c_phi))
        r, theta, phi = (v.item() for v in
                         local_angles(user, pa.center(wg), pa.orientations[0]))
        rx = optimal_rx_polarization(1, theta, phi,
                                     mode.propagation_constant, med.k0)
        assert matching_efficiency(rx, inc) >= best_codeword - 1e-12


def test_optimal_rx_perturbation_suboptimal():
    med, wg, modes = _setup()
    mode = modes[0]
    theta, phi = 0.5, 1.1
    rx = optimal_rx_polarization(1, theta, phi, mode.propagation_constant,
                                 med.k0)
    # the matched incidence in the user plane
    c_t, c_p = polarization_components(1, theta, phi,
                                       mode.propagation_constant, med.k0)
    inc = JonesVector.normalized(c_t, -c_p)
    base = matching_efficiency(rx, inc)
    for delta in np.linspace(0.01, np.pi / 2, 30):
        tilted = JonesVector(
            rx.c_theta * np.cos(delta) - rx.c_phi * np.sin(delta),
            rx.c_theta * np.sin(delta) + rx.c_phi * np.cos(delta))
        assert matching_efficiency(tilted, inc) < base


def test_discrete_exact_hit():
    inc = JonesVector(np.cos(np.pi / 9), np.sin(np.pi / 9))  # on-codebook
    best = discrete_rx_polarization(inc, 18)
    assert matching_efficiency(best, inc) == pytest.approx(1.0)


def test_discrete_worst_case_bound():
    # incident bisecting two codebook lines: efficiency cos(pi/18)
    worst = JonesVector(np.cos(np.pi / 18), np.sin(np.pi / 18))
    best = discrete_rx_polarization(worst, 18)
    assert matching_efficiency(best, worst) == pytest.approx(
        np.cos(np.pi / 18), rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(500):
        ang = rng.uniform(0, 2 * np.pi)
        inc = JonesVector(np.cos(ang), np.sin(ang))
        eta = matching_efficiency(discrete_rx_polarization(inc, 18), inc)
        assert eta >= np.cos(np.pi / 18) - 1e-12


def test_discrete_large_codebook_recovers_continuum():
    rng = np.random.default_rng(12)
    for _ in range(50):
        ang = rng.uniform(0, 2 * np.pi)
        inc = JonesVector(np.cos(ang), np.sin(ang))
        eta = matching_efficiency(discrete_rx_polarization(inc, 360_000), inc)
        assert eta == pytest.approx(1.0, abs=1e-6)


def test_discrete_requires_two_codewords():
    with pytest.raises(ValueError):
        discrete_rx_polarization(JonesVector(1.0, 0.0), 1)


def test_user_arrival_basis_orthonormal_and_vertical():
    rng = np.random.default_rng(21)
    for _ in range(200):
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        src = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 3.0])
        b = user_arrival_basis(user, src)
        m = np.stack([b.upsilon, b.vartheta, b.varphi])
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.allclose(np.cross(b.vartheta, b.varphi), b.upsilon,
                           atol=1e-12)
        # vartheta is the most-vertical in-plane direction
        assert abs(b.varphi[2]) < 1e-12


def test_user_arrival_basis_overhead_fallback():
    b = user_arrival_basis([2.0, 3.0, 0.0], [2.0, 3.0, 3.0])
    assert np.allclose(b.vartheta, [1, 0, 0], atol=1e-12)


def test_receive_policies():
    med, wg, modes = _setup()
    rng = np.random.default_rng(31)
    for _ in range(100):
        pa = PaPlacement(rng.uniform(1, 9),
                         (Orientation(rng.uniform(-1, 1), rng.uniform(-1, 1)),))
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        src = pa.center(wg)
        e_dir = PortResponse(med, modes[int(rng.integers(0, 2))], wg, src,
                             pa.orientations[0], user).direction[0]
        p = receive_polarization("matched", e_dir, user, src)
        assert abs(p @ e_dir) == pytest.approx(1.0, abs=1e-12)
        assert p[np.argmax(np.abs(p))] > 0
        basis = user_arrival_basis(user, src)
        p_fixed = receive_polarization("fixed", e_dir, user, src)
        assert np.allclose(p_fixed, basis.vartheta)
        # the field is transverse at the user, so the codebook efficiency
        # is the plain projection; codeword 0 is the fixed axis
        p_code = receive_polarization("codebook", e_dir, user, src)
        assert np.linalg.norm(p_code) == pytest.approx(1.0, abs=1e-12)
        eta_code = abs(p_code @ e_dir)
        assert eta_code >= max(abs(p_fixed @ e_dir),
                               np.cos(np.pi / 18)) - 1e-12
        # the same codeword as the Jones-vector search, bit for bit
        incident = JonesVector.normalized(e_dir @ basis.vartheta,
                                          e_dir @ basis.varphi, basis)
        rx = discrete_rx_polarization(incident)
        np.testing.assert_array_equal(p_code, rx.to_gcs())
        assert eta_code == pytest.approx(matching_efficiency(rx, incident),
                                         abs=1e-12)
    with pytest.raises(ValueError):
        receive_polarization("adaptive", e_dir, user, src)


def test_receive_policies_on_arrays_equal_each_row():
    # S directions, users and sources at once give each row's own
    # vector bit for bit, overhead arrivals and codebook ties included
    rng = np.random.default_rng(41)
    n = 200
    fields = rng.normal(size=(n, 3))
    fields /= np.linalg.norm(fields, axis=1)[:, None]
    users = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 6, n),
                             np.zeros(n)])
    sources = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 6, n),
                               np.full(n, 3.0)])
    # overhead arrivals: vartheta falls back to +x and varphi is +y, so
    # a field along +x ties codewords 0 and pi
    sources[:4, :2] = users[:4, :2]
    fields[:2] = [1.0, 0.0, 0.0]
    for policy in ("matched", "fixed", "codebook"):
        rows = np.array([receive_polarization(policy, f, u, s)
                         for f, u, s in zip(fields, users, sources)])
        together = receive_polarization(policy, fields, users, sources)
        assert np.array_equal(together, rows), policy
    basis = user_arrival_basis(users[:4], sources[:4])
    assert np.array_equal(basis.vartheta, np.tile([1.0, 0.0, 0.0], (4, 1)))
    assert np.array_equal(
        receive_polarization("codebook", fields[:2], users[:2], sources[:2]),
        np.tile([1.0, 0.0, 0.0], (2, 1)))  # the tie goes to angle 0


def test_receive_policies_reject_degenerate_rows():
    user, src = np.zeros((2, 3)), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="coincides"):
        user_arrival_basis(user, src)
    # a field along the arrival direction has no transverse part
    up = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="no component"):
        receive_polarization("codebook", up, np.zeros((2, 3)),
                             np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
