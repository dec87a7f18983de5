"""Coordinate frames for steerable radiating ports.

The global Cartesian system (GCS) has x along the waveguides, y across
them and z up; waveguides hang at the ceiling height and users live on
the floor plane z = 0.

Each port carries a local Cartesian system (LCS) whose +z axis is the
port boresight, so a target on the pointing axis sits at polar angle
zero where the radiation formulas peak.  With c and s the cosines and
sines of the pitch ``delta`` and roll ``xi``, its axes in the GCS are
x_l = (c_delta, -s_xi s_delta, c_xi s_delta), y_l = (0, -c_xi, -s_xi)
and z_l = (s_delta, s_xi c_delta, -c_xi c_delta): the columns of
Rx(xi) Ry(delta)^T diag(1, -1, -1).  Sign convention: (0, 0) points
straight down (x_l = +x, y_l = -y, z_l = -z, right-handed), positive
pitch tilts the boresight toward +x and positive roll toward +y.

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
that many ports at once (lanes); the frame matrix is then a stack,
built entry by entry and applied per lane as one port's is, so a
lane's results equal that port's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this sin(theta), the azimuth is degenerate and pinned to phi = 0
# so that boresight evaluations are deterministic.
_POLE_TOL = 1e-12


def _matrix(rows):
    """(..., 3, 3) stack of the 3x3 matrix whose entries are given row
    by row as scalars or arrays of one shape."""
    entries = np.broadcast_arrays(*(v for row in rows for v in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def _transpose(m):
    return np.swapaxes(m, -1, -2)


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
        """Matrix whose columns are the LCS axes expressed in the GCS
        (module docstring); one per lane, stacked, for array angles."""
        cp, sp = np.cos(self.pitch), np.sin(self.pitch)
        cr, sr = np.cos(self.roll), np.sin(self.roll)
        return _matrix([[cp, 0.0, sp],
                        [-sr * sp, -cr, sr * cp],
                        [cr * sp, -sr, -(cr * cp)]])

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

    A point's offset from ``center`` as a row vector times the
    orthonormal frame ``orientation.gcs_from_lcs()`` is its LCS vector.
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
             @ orientation.gcs_from_lcs())
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
