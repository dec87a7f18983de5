"""Far-field radiation from a pinching-antenna port.

Each port is a rectangular aperture that radiates the guided mode it
taps.  In the port's local spherical frame the field factorizes into a
scalar pattern factor S_q(theta, phi) and a transverse polarization
vector Psi_q(theta, phi) carried by (vartheta, varphi):

    S_1 = sinc(b pi/lam sin t cos p) * cos(a pi/lam sin t sin p)
                                       / (1 - (2a/lam sin t sin p)^2)
    Psi_1 = (1 + beta/rho cos t) cos p * vartheta
          + (beta/rho + cos t) sin p * varphi

with the q = 2 forms obtained by swapping sin p and cos p (and a and b
in S).  rho = 2 pi / lambda0 is the free-space wavenumber; beta_q is
the guided propagation constant, so beta/rho can exceed one inside a
dense core.

The removable singularities of S (sinc at 0, the cosine taper at
|argument| = 1 where it tends to pi/4) are evaluated through exact
sinc reformulations, so the factors are continuous everywhere.

Every channel gain and field direction in the package comes from one
kernel, :class:`PortResponse`.  For one port and P observation points,
or for L ports (lanes) at P shared points or at points of their own,
it holds the distance r, the signed pattern S_q |Psi_q| / r and the
unit GCS direction of the radiated field.  A lane's results equal
those of its port evaluated alone, bit for bit, so callers batch every
port of a mode into one call.  The channel's port gain constant is 1
for every mode (see :mod:`mmpass.scenario`), so the port-to-user
amplitude is the pattern under absorption, ``amplitude(alpha_a)``:
the channel multiplies in the free-space phase, and a field map the
raw-field mode weight.  S_q keeps its sign everywhere, so a gain
on a sidelobe where S_q < 0 carries the physical pi phase flip.  The
pattern and the direction are computed the first time they are read:
a field map never evaluates directions, and a polarization lookup
never evaluates S_q.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import Orientation, local_angles, spherical_basis
from .waveguide import MediumConstants, ModeSpec, PaPlacement, WaveguideSpec


def _sinc(x):
    """sin(x)/x with the limit 1 at x = 0."""
    return np.sinc(np.asarray(x) / np.pi)


def _cos_taper(x):
    """cos(pi x / 2) / (1 - x^2), continuous with value pi/4 at |x| = 1.

    Uses the identity cos(pi x/2)/(1-x^2) = (pi/2) sinc_n((|x|-1)/2) / (|x|+1)
    where sinc_n is the normalized sinc, which is exact and finite for
    every real x.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    return (np.pi / 2) * np.sinc((ax - 1.0) / 2.0) / (ax + 1.0)


def pattern_factor(q: int, theta, phi, a: float, b: float, lam: float):
    """Aperture pattern factor S_q.  Accepts scalars or arrays.

    ``a`` and ``b`` are the radiating aperture dimensions and ``lam``
    the free-space wavelength.
    """
    st = np.sin(theta)
    u_cos = st * np.cos(phi)
    u_sin = st * np.sin(phi)
    if q == 1:
        return _sinc(b * np.pi / lam * u_cos) * _cos_taper(2 * a / lam * u_sin)
    if q == 2:
        return _sinc(a * np.pi / lam * u_sin) * _cos_taper(2 * b / lam * u_cos)
    raise ValueError(f"unsupported mode index {q}")


def polarization_components(q: int, theta, phi, beta: float, rho_free: float):
    """(vartheta, varphi) components of Psi_q; scalars or arrays."""
    ratio = beta / rho_free
    ct = np.cos(theta)
    a_fac = 1.0 + ratio * ct
    b_fac = ratio + ct
    if q == 1:
        return a_fac * np.cos(phi), b_fac * np.sin(phi)
    if q == 2:
        return a_fac * np.sin(phi), b_fac * np.cos(phi)
    raise ValueError(f"unsupported mode index {q}")


class PortResponse:
    """Response of one port, or of ports in lanes, at observation points.

    One port: ``center`` is a 3-vector, ``orientation`` an Orientation
    of float angles and ``points`` one point or a (P, 3) array.  Lanes:
    ``orientation`` holds pitch and roll arrays of the lane shape S
    (one mode, so one port per lane), ``center`` is (*S, 3) and
    ``points`` (P, 3), seen by every lane, or (*S, P, 3), points of
    each lane's own; the guide ``wg`` only sets the aperture, which
    every guide shares.  ``r`` and ``pattern`` have one entry per lane
    and point, (P,) or (*S, P), and ``direction`` a unit 3-vector more.

    ``r`` is computed on construction.  ``pattern``, the signed
    S_q |Psi_q| / r, and ``direction``, the unit field direction in the
    GCS, are computed on first read.
    """

    def __init__(self, med: MediumConstants, mode: ModeSpec,
                 wg: WaveguideSpec, center, orientation: Orientation, points):
        self.med, self.mode, self.wg = med, mode, wg
        self.orientation = orientation
        self.r, self.theta, self.phi = local_angles(points, center, orientation)

    @cached_property
    def _psi(self):
        psi_t, psi_p = polarization_components(
            self.mode.index, self.theta, self.phi,
            self.mode.propagation_constant, self.med.k0)
        return psi_t, psi_p, np.hypot(psi_t, psi_p)

    @cached_property
    def pattern(self) -> np.ndarray:
        s_q = pattern_factor(self.mode.index, self.theta, self.phi,
                             self.wg.aperture_a, self.wg.aperture_b,
                             self.med.wavelength0)
        return s_q * self._psi[2] / self.r

    def amplitude(self, alpha_a: float) -> np.ndarray:
        """The signed port-to-user amplitude, the pattern attenuated by
        atmospheric absorption alpha_a (Np/m) over the distance r."""
        return self.pattern * np.exp(-0.5 * alpha_a * self.r)

    @cached_property
    def direction(self) -> np.ndarray:
        """Unit field direction; the polar unit vector where Psi_q
        vanishes."""
        psi_t, psi_p, norm = self._psi
        basis = spherical_basis(self.theta, self.phi, self.orientation)
        live = (norm > 0)[..., None]
        vec = ((psi_t[..., None] * basis.vartheta
                + psi_p[..., None] * basis.varphi)
               / np.where(live, norm[..., None], 1.0))
        return np.where(live, vec, basis.vartheta)


def intensity_map(med: MediumConstants, wg: WaveguideSpec, modes, pa: PaPlacement,
                  xs, ys, alpha_a: float = 0.0):
    """|E|^2 of the radiated field over the floor plane z = 0, in dB
    relative to the grid maximum.

    ``xs`` and ``ys`` are 1-D axes; the result is indexed [iy, ix].
    The intensities of the ports, one per mode, are summed before
    normalization.  The map shows the raw radiated field, not the
    channel's normalized gain, so each mode carries its raw-field
    weight 1/rho_q^2; the constants every mode shares and the guide
    attenuation at the element cancel in the normalization.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("grid needs at least 2 points per axis")
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    center = pa.center(wg)
    maps = []
    for mode, orientation in zip(modes, pa.orientations):
        resp = PortResponse(med, mode, wg, center, orientation, points)
        field = resp.amplitude(alpha_a) / mode.cutoff_wavenumber ** 2
        maps.append((field ** 2).reshape(gy.shape))
    total = np.sum(maps, axis=0)
    return 10 * np.log10(total / total.max())
