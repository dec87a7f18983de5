import numpy as np
import pytest

from mmpass.geometry import Orientation, local_direction
from oracles import (local_angles, port_frame, rotation_x, rotation_y,
                     spherical_basis)


def _direction_of_local(p_local):
    """``local_direction`` of a point given in the frame of an unrotated
    port at the origin, its fields as floats."""
    p_gcs = Orientation().gcs_from_lcs() @ np.asarray(p_local, dtype=float)
    d = local_direction(p_gcs, np.zeros(3), Orientation())
    return {k: v.item() for k, v in vars(d).items()}


# the rotations of the oracle's product chain, the reference frame

def test_rotation_x_identity():
    assert np.allclose(rotation_x(0.0), np.eye(3), atol=1e-15)


def test_rotation_x_quarter_turn():
    # hand multiplication: +90 deg about x sends +y to +z
    assert np.allclose(rotation_x(np.pi / 2) @ [0, 1, 0], [0, 0, 1],
                       atol=1e-15)


def test_rotation_inverse_is_transpose():
    r = rotation_x(0.7)
    assert np.allclose(r @ rotation_x(-0.7), np.eye(3), atol=1e-15)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("rot", [rotation_x, rotation_y])
def test_rotations_orthogonal_det_one(rot):
    rng = np.random.default_rng(0)
    for angle in rng.uniform(-np.pi, np.pi, size=50):
        r = rot(angle)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_frame_is_the_rotation_chain():
    # the closed form equals the oracle's product of rotations entry by
    # entry (a zero entry may differ in sign only), on stacked lanes and
    # on the special angles, and each lane equals its scalar frame
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2])
    pitch = np.concatenate([np.repeat(special, 4),
                            rng.uniform(-np.pi / 2, np.pi / 2, 200)])
    roll = np.concatenate([np.tile(special, 4),
                           rng.uniform(-np.pi / 2, np.pi / 2, 200)])
    frames = Orientation(pitch, roll).gcs_from_lcs()
    assert frames.shape == (216, 3, 3)
    assert np.array_equal(frames, port_frame(pitch, roll))
    grid = Orientation(pitch.reshape(8, 27), roll.reshape(8, 27))
    assert np.array_equal(grid.gcs_from_lcs(), frames.reshape(8, 27, 3, 3))
    for lane in (0, 5, 10, 15, 100):
        one = Orientation(pitch[lane], roll[lane]).gcs_from_lcs()
        assert one.shape == (3, 3)
        assert np.array_equal(one, frames[lane])
    assert np.allclose(frames @ np.swapaxes(frames, -1, -2), np.eye(3),
                       rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.det(frames), 1.0, rtol=0, atol=1e-15)


def test_orientation_range_checks():
    Orientation(np.pi / 2, -np.pi / 2)  # boundary values allowed
    with pytest.raises(ValueError):
        Orientation(np.pi / 2 + 0.01, 0.0)
    with pytest.raises(ValueError):
        Orientation(0.0, -np.pi / 2 - 0.01)


def test_boresight_convention():
    # the boresight is the local +z axis; an unrotated port looks
    # straight down
    def boresight(o):
        return o.gcs_from_lcs()[:, 2]

    assert np.allclose(boresight(Orientation()), [0, 0, -1], atol=1e-15)
    # positive pitch steers toward +x, positive roll toward +y
    assert boresight(Orientation(pitch=0.3))[0] > 0
    assert boresight(Orientation(roll=0.3))[1] > 0


def test_gcs_to_lcs_pure_translation():
    # point above an unrotated port lands on the local -z (anti-boresight)
    d = local_direction([1.0, 2.0, 3.0], [1.0, 2.0, 0.0], Orientation())
    assert d.r[0] == pytest.approx(3.0)
    assert (d.u[0], d.v[0], d.w[0]) == (0.0, 0.0, -1.0)
    assert (d.sin_theta[0], d.cos_phi[0], d.sin_phi[0]) == (0.0, 1.0, 0.0)


def test_gcs_to_lcs_quarter_pitch():
    # pitch 90 deg points the boresight at +x: a +x offset is on-axis
    d = local_direction([1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                        Orientation(pitch=np.pi / 2))
    assert d.r[0] == pytest.approx(1.0)
    assert d.w[0] == pytest.approx(1.0, abs=1e-12)
    assert d.sin_theta[0] == pytest.approx(0.0, abs=1e-12)


def test_frame_matrix_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(200):
        o = Orientation(rng.uniform(-np.pi / 2, np.pi / 2),
                        rng.uniform(-np.pi / 2, np.pi / 2))
        r = o.gcs_from_lcs()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_lcs_to_spherical_negative_pole():
    d = _direction_of_local([0.0, 0.0, -1.0])
    assert d["r"] == pytest.approx(1.0)
    assert d["w"] == -1.0
    assert (d["cos_phi"], d["sin_phi"]) == (1.0, 0.0)  # pinned at the pole


def test_lcs_to_spherical_diagonal():
    d = _direction_of_local([1.0, 1.0, 0.0])
    assert d["r"] == pytest.approx(np.sqrt(2))
    assert d["w"] == pytest.approx(0.0, abs=1e-15)
    assert d["sin_theta"] == pytest.approx(1.0)
    for k in ("u", "v", "cos_phi", "sin_phi"):
        assert d[k] == pytest.approx(1 / np.sqrt(2))


def test_lcs_to_spherical_345_triangle():
    d = _direction_of_local([3.0, 4.0, 0.0])
    assert d["r"] == pytest.approx(5.0)
    assert (d["u"], d["v"]) == pytest.approx((0.6, 0.8))
    assert (d["cos_phi"], d["sin_phi"]) == pytest.approx((0.6, 0.8))


def test_lcs_to_spherical_zero_rejected():
    with pytest.raises(ValueError):
        _direction_of_local([0.0, 0.0, 0.0])


def test_spherical_reconstruction():
    # r (u, v, w) mapped back through the frame is the point, and the
    # direction cosines are sin(theta) times the azimuth cosines
    rng = np.random.default_rng(7)
    o = Orientation(0.4, -0.2)
    center = np.array([1.0, 2.0, 3.0])
    points = center + rng.normal(size=(1000, 3))
    d = local_direction(points, center, o)
    local = d.r[:, None] * np.column_stack([d.u, d.v, d.w])
    assert np.allclose(center + o.to_gcs(local), points, atol=1e-12)
    assert np.allclose(d.sin_theta * d.cos_phi, d.u, rtol=0, atol=1e-15)
    assert np.allclose(d.sin_theta * d.sin_phi, d.v, rtol=0, atol=1e-15)
    assert np.allclose(np.hypot(d.sin_theta, d.w), 1.0, rtol=0, atol=1e-15)


def test_direction_matches_angle_oracle():
    # the direction cosines are the oracle's angles' sines and cosines
    rng = np.random.default_rng(8)
    o = Orientation(-0.7, 0.3)
    center = np.array([4.0, 2.0, 3.0])
    points = center + rng.normal(size=(500, 3))
    d = local_direction(points, center, o)
    r, theta, phi = local_angles(points, center, o)
    assert np.allclose(d.r, r, rtol=1e-15, atol=0.0)
    for got, want in ((d.u, np.sin(theta) * np.cos(phi)),
                      (d.v, np.sin(theta) * np.sin(phi)),
                      (d.w, np.cos(theta)), (d.sin_theta, np.sin(theta)),
                      (d.cos_phi, np.cos(phi)), (d.sin_phi, np.sin(phi))):
        assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_pole_rule_is_scale_free():
    # 0.5 m below a port and 0.7e-12 m off axis: sin(theta) = 1.4e-12
    # is above the pole tolerance, so the azimuth is the true one (the
    # offset is along -y, the local +y axis of an unrotated port)
    d = local_direction([5.0, 3.0 - 0.7e-12, 2.5], [5.0, 3.0, 3.0],
                        Orientation())
    assert d.r[0] == pytest.approx(0.5)
    assert (d.cos_phi[0], d.sin_phi[0]) == pytest.approx((0.0, 1.0),
                                                         abs=1e-12)
    # well inside the tolerance the azimuth is pinned, at any distance
    for height in (0.5, 3.0, 300.0):
        d = local_direction([5.0, 3.0 - 1e-14, 3.0 - height],
                            [5.0, 3.0, 3.0], Orientation())
        assert (d.cos_phi[0], d.sin_phi[0]) == (1.0, 0.0)


def test_oracle_angles_keep_the_pole_rule():
    r, theta, phi = local_angles([5.0, 3.0 - 0.7e-12, 2.5], [5.0, 3.0, 3.0],
                                 Orientation())
    assert phi[0] == pytest.approx(np.pi / 2)
    basis = spherical_basis(theta, phi, Orientation())
    assert np.allclose(basis.varphi[0], [-1.0, 0.0, 0.0], atol=1e-9)
    _, _, phi = local_angles([5.0, 3.0 - 1e-14, 2.5], [5.0, 3.0, 3.0],
                             Orientation())
    assert phi[0] == 0.0


def test_spherical_basis_equator():
    # identity frame: local axes are (+x, -y, -z) in world coordinates,
    # so the equatorial direction phi=0 has vartheta pointing up
    b = spherical_basis(np.pi / 2, 0.0, Orientation())
    assert np.allclose(b.upsilon, [1, 0, 0], atol=1e-12)
    assert np.allclose(b.vartheta, [0, 0, 1], atol=1e-12)
    assert np.allclose(b.varphi, [0, -1, 0], atol=1e-12)


def test_spherical_basis_orthonormal_grid():
    o = Orientation(0.4, -0.2)
    for theta in np.linspace(0, np.pi, 50):
        for phi in np.linspace(-np.pi, np.pi, 50):
            b = spherical_basis(theta, phi, o)
            m = np.stack([b.upsilon, b.vartheta, b.varphi])
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
            # right-handed: upsilon = vartheta x varphi
            assert np.allclose(np.cross(b.vartheta, b.varphi), b.upsilon,
                               atol=1e-12)


def test_spherical_basis_vectorized_matches_scalar():
    o = Orientation(0.4, -0.2)
    rng = np.random.default_rng(11)
    thetas = rng.uniform(0, np.pi, 20)
    phis = rng.uniform(-np.pi, np.pi, 20)
    batch = spherical_basis(thetas, phis, o)
    for i, (t, p) in enumerate(zip(thetas, phis)):
        one = spherical_basis(t, p, o)
        for name in ("upsilon", "vartheta", "varphi"):
            assert np.allclose(getattr(batch, name)[i], getattr(one, name),
                               atol=1e-15)


def test_spherical_basis_poles_deterministic():
    for theta in (0.0, np.pi):
        b1 = spherical_basis(theta, 1.3, Orientation())
        b2 = spherical_basis(theta, -2.0, Orientation())
        assert np.allclose(b1.vartheta, b2.vartheta, atol=1e-12)
        assert np.allclose(b1.varphi, b2.varphi, atol=1e-12)
