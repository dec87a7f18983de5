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
kernel, :class:`PortResponse`.  For one port and P observation points
it holds the distance r, the signed pattern S_q |Psi_q| / r and the
unit GCS direction of the radiated field.  Each caller multiplies in
its own constants: the per-mode gain normalization times the aperture
constant, absorption, guide attenuation or the raw-field amplitude.
S_q keeps its sign everywhere, so a gain on a sidelobe where S_q < 0
carries the physical pi phase flip.  The pattern and the direction are
computed the first time they are read: a field map never evaluates
directions, and a polarization lookup never evaluates S_q.
:func:`radiated_field` is a separate scalar evaluation of the same
formulas that the tests compare the kernel against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Orientation, SphericalBasis, local_angles, spherical_basis
from .waveguide import (MediumConstants, ModeSpec, PaPlacement, WaveguideSpec,
                        axis_pattern_norm)


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


@dataclass(frozen=True)
class FieldSample:
    """Complex far-field sample in the source port's spherical basis."""

    e_theta: complex
    e_phi: complex
    position: np.ndarray
    basis: SphericalBasis
    source: tuple = ()

    @property
    def magnitude(self) -> float:
        return float(np.hypot(abs(self.e_theta), abs(self.e_phi)))

    def to_gcs(self) -> np.ndarray:
        """Complex 3-vector of the field in global coordinates."""
        return (self.e_theta * self.basis.vartheta.astype(complex)
                + self.e_phi * self.basis.varphi.astype(complex))


def far_field_bound(wg: WaveguideSpec, med: MediumConstants) -> float:
    """Distance below which far-field formulas are flagged.

    Ten times D^2/lambda for the guide cross section, or the standard
    Fraunhofer bound 2 D^2/lambda of the (possibly larger) radiating
    aperture, whichever is greater.
    """
    lam = med.wavelength0
    d_cross = max(wg.a, wg.b)
    d_ap = max(wg.aperture_a, wg.aperture_b)
    return max(10 * d_cross ** 2 / lam, 2 * d_ap ** 2 / lam)


class PortResponse:
    """Response of one port at P observation points.

    ``r`` is computed on construction.  ``pattern``, the signed
    S_q |Psi_q| / r, and ``direction``, the (P, 3) unit field direction
    in the GCS, are computed on first read.
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

    @cached_property
    def direction(self) -> np.ndarray:
        """Unit field direction; the polar unit vector where Psi_q
        vanishes."""
        psi_t, psi_p, norm = self._psi
        basis = spherical_basis(self.theta, self.phi, self.orientation)
        live = (norm > 0)[:, None]
        vec = ((psi_t[:, None] * basis.vartheta + psi_p[:, None] * basis.varphi)
               / np.where(live, norm[:, None], 1.0))
        return np.where(live, vec, basis.vartheta)


def radiated_field(med: MediumConstants, wg: WaveguideSpec, mode: ModeSpec,
                   pa: PaPlacement, orientation: Orientation, obs_point,
                   alpha_a: float = 0.0, excitation: complex = 1.0,
                   warn_near_field: bool = True) -> FieldSample:
    """Electric field radiated by one port at an observation point.

    The amplitude is

        rho a b omega mu |s| / (2 rho_q^2 pi sqrt(N) r)
        * exp(-(alpha_w x + alpha_a r) / 2) * S_q * Psi_q

    and the phase -(beta_q x + rho r) + arg(s) + pi/2, with rho the
    free-space wavenumber, x the pinch position and r the distance from
    the port.  Components are returned in the port's (vartheta, varphi)
    basis at the observation direction.
    """
    center = pa.center(wg)
    r, theta, phi = (v.item() for v in local_angles(obs_point, center, orientation))
    if warn_near_field and r < far_field_bound(wg, med):
        warnings.warn(f"observation at r = {r:.3g} m is inside the far-field "
                      f"bound {far_field_bound(wg, med):.3g} m", stacklevel=2)
    a_ap, b_ap = wg.aperture_a, wg.aperture_b
    rho = med.k0
    amp = (rho * a_ap * b_ap * med.omega * med.permeability
           / (2 * mode.cutoff_wavenumber ** 2 * np.pi
              * np.sqrt(wg.num_pas) * r))
    amp *= np.exp(-0.5 * (wg.alpha_w * pa.x_position + alpha_a * r))
    s_q = pattern_factor(mode.index, theta, phi, a_ap, b_ap, med.wavelength0)
    psi_t, psi_p = polarization_components(mode.index, theta, phi,
                                           mode.propagation_constant, rho)
    phase = 1j * excitation * np.exp(
        -1j * (mode.propagation_constant * pa.x_position + rho * r))
    basis = spherical_basis(theta, phi, orientation)
    return FieldSample(e_theta=complex(amp * s_q * psi_t * phase),
                       e_phi=complex(amp * s_q * psi_p * phase),
                       position=np.asarray(obs_point, dtype=float),
                       basis=basis,
                       source=(pa.waveguide_index, pa.pa_index, mode.index))


def aperture_constant(med: MediumConstants, wg: WaveguideSpec,
                      mode: ModeSpec) -> float:
    """Distance- and angle-free part of the port-to-user gain magnitude:
    a b omega mu / (lambda rho_q^2 |E_axis|)."""
    return (wg.aperture_a * wg.aperture_b * med.omega * med.permeability
            / (med.wavelength0 * mode.cutoff_wavenumber ** 2
               * axis_pattern_norm(mode, wg, med)))


def h_pa_to_user(med: MediumConstants, wg: WaveguideSpec, mode: ModeSpec,
                 pa: PaPlacement, orientation: Orientation, user_pos,
                 alpha_a: float = 0.0) -> complex:
    """Port-to-user channel gain: the radiated-to-aperture field ratio
    with free-space phase and the sign of S_q.

    Excitation-free by construction; the guided attenuation and phase
    live in the guide-to-port factor, so the product of the two factors
    reproduces the full radiated field over the feed-normalized drive.
    """
    resp = PortResponse(med, mode, wg, pa.center(wg), orientation, user_pos)
    r = resp.r[0]
    return complex(aperture_constant(med, wg, mode) * resp.pattern[0]
                   * np.exp(-0.5 * alpha_a * r) * np.exp(-1j * med.k0 * r))


def intensity_map(med: MediumConstants, wg: WaveguideSpec, modes, pa: PaPlacement,
                  xs, ys, z: float = 0.0, alpha_a: float = 0.0,
                  combine: bool = True):
    """|E|^2 of the radiated field over a horizontal grid, in dB
    relative to the grid maximum.

    ``xs`` and ``ys`` are 1-D axes; the result is indexed [iy, ix].
    With ``combine`` the per-port intensities are summed before
    normalization, otherwise a list of per-port dB maps is returned.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("grid needs at least 2 points per axis")
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel(),
                              np.full(gx.size, z)])
    center = pa.center(wg)
    maps = []
    for mode, orientation in zip(modes, pa.orientations):
        resp = PortResponse(med, mode, wg, center, orientation, points)
        amp = (med.k0 * wg.aperture_a * wg.aperture_b * med.omega
               * med.permeability
               / (2 * mode.cutoff_wavenumber ** 2 * np.pi
                  * np.sqrt(wg.num_pas)))
        field = amp * resp.pattern * np.exp(
            -0.5 * (wg.alpha_w * pa.x_position + alpha_a * resp.r))
        maps.append((field ** 2).reshape(gy.shape))
    if combine:
        total = np.sum(maps, axis=0)
        return 10 * np.log10(total / total.max())
    return [10 * np.log10(m / m.max()) for m in maps]
