"""Scalar reference evaluations that the tests compare the package's
vectorized kernels against.

``radiated_field`` evaluates the far-field formulas of one port at one
point, with every constant written out, independently of
``radiation.PortResponse``.  ``optimal_rx_polarization`` is the closed
form of the perfectly matched receive polarization, the reference for
``receive_polarization("matched", PortResponse.direction)``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from mmpass.geometry import (Orientation, SphericalBasis, local_angles,
                             spherical_basis)
from mmpass.polarization import JonesVector
from mmpass.radiation import pattern_factor, polarization_components
from mmpass.waveguide import (MediumConstants, ModeSpec, PaPlacement,
                              WaveguideSpec)


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


def incident_jones(field: FieldSample) -> JonesVector:
    """Normalized Jones vector of an incident field at the user, in the
    port basis re-anchored at the user: the radial and azimuthal axes
    reverse, so the azimuthal component flips sign."""
    basis = field.basis
    return JonesVector.normalized(
        field.e_theta, -field.e_phi,
        SphericalBasis(-basis.upsilon, basis.vartheta, -basis.varphi))


def optimal_rx_polarization(q: int, theta: float, phi: float, beta: float,
                            rho_free: float,
                            basis: SphericalBasis | None = None) -> JonesVector:
    """Closed-form receive polarization that perfectly matches mode q
    arriving from direction (theta, phi), in the user basis of
    :func:`incident_jones`.

    The components are the mode's transverse polarization normalized,
    with the azimuthal sign flipped into the user's plane:

        q = 1:  ((1 + beta/rho cos t) cos p, -(beta/rho + cos t) sin p) / V
        q = 2:  ((1 + beta/rho cos t) sin p, -(beta/rho + cos t) cos p) / V
    """
    c_t, c_p = polarization_components(q, theta, phi, beta, rho_free)
    return JonesVector.normalized(c_t, -c_p, basis)
