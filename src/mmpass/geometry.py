"""Coordinate frames for steerable radiating ports.

The global Cartesian system (GCS) has x along the waveguides, y across
them and z up; waveguides hang at the ceiling height and users live on
the floor plane z = 0.

Each port carries a local Cartesian system (LCS) whose +z axis is the
port boresight, so a target on the pointing axis sits at polar angle
zero where the radiation formulas peak.  The frame is built from two
angles: a roll ``xi`` about the x-axis followed by a pitch ``delta``
about the y-axis.  Sign convention: positive pitch tilts the boresight
toward +x, positive roll toward +y, and (0, 0) points straight down
(local axes at rest: x_l = +x, y_l = -y, z_l = -z, right-handed).

Directions seen from a port are described in a local spherical system
(LSCS): polar angle theta from the boresight, azimuth phi from the
local +x axis (four-quadrant).  ``local_angles`` gives the distance
and angles of GCS points in a port frame, and ``spherical_basis``
returns the unit vectors of that system expressed back in the GCS.

An ``Orientation`` whose pitch and roll are arrays of one shape aims
that many ports at once (lanes); every frame matrix is then a stack,
built and applied per lane by the same matrix products as one port's,
so a lane's results equal that port's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this sin(theta), the azimuth is degenerate and pinned to phi = 0
# so that boresight evaluations are deterministic.
_POLE_TOL = 1e-12

# Local axes of an unrotated port (boresight down, right-handed).
_REST_AXES = np.diag([1.0, -1.0, -1.0])


def _matrix(rows):
    """(..., 3, 3) stack of the 3x3 matrix whose entries are given row
    by row as scalars or arrays of one shape."""
    entries = np.broadcast_arrays(*(v for row in rows for v in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def _transpose(m):
    return np.swapaxes(m, -1, -2)


def rotation_x(angle) -> np.ndarray:
    """Rotation matrix about the x-axis (right-handed): 3x3 for a scalar
    angle, (..., 3, 3) for an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    return _matrix([[1.0, 0.0, 0.0],
                    [0.0, c, -s],
                    [0.0, s, c]])


def rotation_y(angle) -> np.ndarray:
    """Rotation matrix about the y-axis (right-handed), shaped as
    :func:`rotation_x`'s."""
    c, s = np.cos(angle), np.sin(angle)
    return _matrix([[c, 0.0, s],
                    [0.0, 1.0, 0.0],
                    [-s, 0.0, c]])


@dataclass(frozen=True)
class Orientation:
    """Pitch/roll attitude of one radiating port, or of L ports when
    pitch and roll are arrays of one shape (the lane shape).

    pitch: rotation about y in [-pi/2, pi/2]; +pitch steers the
        boresight toward +x.
    roll: rotation about x in [-pi/2, pi/2]; +roll steers it toward +y.
    """

    pitch: float | np.ndarray = 0.0
    roll: float | np.ndarray = 0.0

    def __post_init__(self):
        if not np.all(np.abs(self.pitch) <= np.pi / 2 + 1e-12):
            raise ValueError(f"pitch {self.pitch} outside [-pi/2, pi/2]")
        if not np.all(np.abs(self.roll) <= np.pi / 2 + 1e-12):
            raise ValueError(f"roll {self.roll} outside [-pi/2, pi/2]")

    def gcs_from_lcs(self) -> np.ndarray:
        """Matrix whose columns are the LCS axes expressed in the GCS;
        one per lane, stacked, for array angles."""
        return (rotation_x(self.roll) @ _transpose(rotation_y(self.pitch))
                @ _REST_AXES)

    def lcs_from_gcs(self) -> np.ndarray:
        return (_REST_AXES @ rotation_y(self.pitch)
                @ _transpose(rotation_x(self.roll)))


IDENTITY = Orientation(0.0, 0.0)


def local_angles(points, center, orientation: Orientation):
    """Distance, polar angle and azimuth of GCS points in a port frame.

    One port: ``center`` is a 3-vector and ``points`` one point or a
    (P, 3) array; the three results have one entry per point.  Ports in
    lanes (``orientation`` of lane shape S): ``center`` is (*S, 3) and
    ``points`` (P, 3), seen by every lane, or (*S, P, 3), P points per
    lane; the results are (*S, P).  The polar angle comes from atan2,
    which stays accurate next to the poles, and the azimuth is pinned
    to 0 where sin(theta) < _POLE_TOL, the same scale-free rule as
    :func:`spherical_basis`.  Raises ValueError if a point coincides
    with the port center.
    """
    rel = (np.atleast_2d(np.asarray(points, dtype=float))
           - np.asarray(center, dtype=float)[..., None, :])
    local = rel @ _transpose(orientation.lcs_from_gcs())
    x, y, z = np.moveaxis(local, -1, 0)
    rho = np.hypot(x, y)
    r = np.hypot(rho, z)
    if not r.all():
        raise ValueError("observation point coincides with the port")
    theta = np.arctan2(rho, z)
    phi = np.where(np.sin(theta) < _POLE_TOL, 0.0, np.arctan2(y, x))
    return r, theta, phi


@dataclass(frozen=True)
class SphericalBasis:
    """Orthonormal (radial, polar, azimuthal) triad in GCS coordinates."""

    upsilon: np.ndarray
    vartheta: np.ndarray
    varphi: np.ndarray


def spherical_basis(theta, phi,
                    orientation: Orientation = IDENTITY) -> SphericalBasis:
    """LSCS unit vectors for direction (theta, phi), expressed in GCS.

    In LCS components the triad is

        upsilon  = (sin t cos p, sin t sin p, cos t)
        vartheta = (cos t cos p, cos t sin p, -sin t)
        varphi   = (-sin p, cos p, 0)

    and each is mapped through the port frame.  Scalar angles give
    3-vectors; arrays of P angles give (P, 3) arrays, and the (*S, P)
    angles of ports in lanes of shape S give (*S, P, 3) arrays.
    """
    st, ct = np.sin(theta), np.cos(theta)
    phi = np.where(st < _POLE_TOL, 0.0, phi)
    sp, cp = np.sin(phi), np.cos(phi)
    triad = np.array([[st * cp, st * sp, ct],
                      [ct * cp, ct * sp, -st],
                      [-sp, cp, np.zeros_like(sp)]])
    upsilon, vartheta, varphi = (np.moveaxis(triad, 1, -1)
                                 @ _transpose(orientation.gcs_from_lcs()))
    return SphericalBasis(upsilon, vartheta, varphi)
