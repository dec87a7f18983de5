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

Directions seen from a port are read in the LCS as direction cosines
(Balanis, "Antenna Theory", ch. 12): for a point at distance r and
local coordinates (x, y, z), u = x/r = sin(theta) cos(phi), v = y/r =
sin(theta) sin(phi) and w = z/r = cos(theta), with theta the polar
angle from the boresight and phi the azimuth from the local +x axis.
``local_direction`` gives r, (u, v, w), sin(theta) = rho/r and the
azimuth's cosine and sine (x, y)/rho, where rho = sqrt(x^2 + y^2),
with no trigonometric call.  On the boresight axis the azimuth is undefined;
where sin(theta) < 1e-12 it is pinned to phi = 0 (cos phi = 1,
sin phi = 0), a scale-free rule that makes on-axis evaluations
deterministic.  ``Orientation.to_gcs`` maps LCS vectors back to the
GCS.

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

    def to_gcs(self, vectors) -> np.ndarray:
        """LCS vectors in the GCS: (..., 3) vectors of one port, or
        (*S, P, 3) vectors of ports in lanes of shape S, P per lane."""
        return vectors @ _transpose(self.gcs_from_lcs())


@dataclass(frozen=True)
class LocalDirection:
    """Distance and direction of points seen from a port, in its LCS:
    the direction cosines ``u``, ``v``, ``w``, ``sin_theta`` and the
    azimuth's ``cos_phi`` and ``sin_phi``, pinned to (1, 0) on the
    boresight axis.  Every field has the shape of the points' leading
    axes."""

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    sin_theta: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray


def local_direction(points, center,
                    orientation: Orientation) -> LocalDirection:
    """Distance and direction of GCS points in a port frame.

    One port: ``center`` is a 3-vector and ``points`` one point or a
    (P, 3) array; every field has one entry per point.  Ports in lanes
    (``orientation`` of lane shape S): ``center`` is (*S, 3) and
    ``points`` (P, 3), seen by every lane, or (*S, P, 3), P points per
    lane; the fields are (*S, P).  The azimuth is pinned to 0 where
    sin(theta) < _POLE_TOL.  Raises ValueError if a point coincides
    with the port center.
    """
    local = ((np.atleast_2d(np.asarray(points, dtype=float))
              - np.asarray(center, dtype=float)[..., None, :])
             @ _transpose(orientation.lcs_from_gcs()))
    x, y, z = np.moveaxis(local, -1, 0)
    rho_sq = x * x + y * y
    r = np.sqrt(rho_sq + z * z)
    if not r.all():
        raise ValueError("observation point coincides with the port")
    rho = np.sqrt(rho_sq)
    sin_theta = rho / r
    off_axis = sin_theta >= _POLE_TOL
    return LocalDirection(
        r=r, u=x / r, v=y / r, w=z / r, sin_theta=sin_theta,
        cos_phi=np.divide(x, rho, out=np.ones_like(x), where=off_axis),
        sin_phi=np.divide(y, rho, out=np.zeros_like(y), where=off_axis))


@dataclass(frozen=True)
class SphericalBasis:
    """Orthonormal (radial, polar, azimuthal) triad in GCS coordinates."""

    upsilon: np.ndarray
    vartheta: np.ndarray
    varphi: np.ndarray
