"""Scalar reference evaluations that the tests compare the package's
vectorized kernels against.

``h_wg_to_pa`` is the guide-to-port gain of one port, written on
scalars, and ``guide_to_port_matrix`` stacks it into H_wp port by
port, the references for the array H_wp of ``channel.port_factors``.
``coupling_length`` is the equal-quota cascade behind the 1/N power
share of ``waveguide.power_share``.  ``gain_log_derivative`` is the
slope of the log link gain along the guide, the reference for
``placement.optimal_position``, whose offset roots it to first order.
``radiated_field`` evaluates the far-field formulas of one port at one
point, with every constant written out, independently of
``radiation.PortResponse``.
``local_angles``, ``spherical_basis``, ``pattern_factor`` and
``polarization_components`` are the angle forms of the port frame, S_q
and Psi_q: they read (theta, phi) through atan2 and sin/cos, the
reference for ``radiation.PortResponse``, which reads direction
cosines.  ``JonesVector`` describes a polarization state by its two
components in a transverse basis; ``matching_efficiency`` and
``discrete_rx_polarization`` are the Jones-vector forms of what
``polarization.receive_polarization`` computes on real 3-vectors, and
``optimal_rx_polarization`` is the closed form of the perfectly matched
receive polarization, the reference for
``receive_polarization("matched", PortResponse.direction)``.
``fp_precoding_g`` is the fractional-programming loop written on the
mode mixer G itself, the reference for ``multiuser.fp_precoding``.
``csv_text`` formats an experiment result value by value, the reference
for ``bench.ExperimentResult.write_csv``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from mmpass.geometry import Orientation, SphericalBasis
from mmpass.multiuser import _power_multiplier
from mmpass.waveguide import (MediumConstants, ModeSpec, PaPlacement,
                              WaveguideSpec)

# CODATA 2022 vacuum permeability, H/m
MU_0 = 1.25663706127e-06


# Below this sin(theta) the azimuth is pinned to phi = 0, the package's
# pole rule.
POLE_TOL = 1e-12


def local_angles(points, center, orientation: Orientation):
    """Distance, polar angle and azimuth of GCS points in a port frame,
    shaped as the fields of ``geometry.local_direction``.  The polar
    angle comes from atan2, which stays accurate next to the poles, and
    the azimuth is pinned to 0 where sin(theta) < POLE_TOL.  Raises
    ValueError if a point coincides with the port center."""
    rel = (np.atleast_2d(np.asarray(points, dtype=float))
           - np.asarray(center, dtype=float)[..., None, :])
    local = rel @ np.swapaxes(orientation.lcs_from_gcs(), -1, -2)
    x, y, z = np.moveaxis(local, -1, 0)
    rho = np.hypot(x, y)
    r = np.hypot(rho, z)
    if not r.all():
        raise ValueError("observation point coincides with the port")
    theta = np.arctan2(rho, z)
    phi = np.where(np.sin(theta) < POLE_TOL, 0.0, np.arctan2(y, x))
    return r, theta, phi


def spherical_basis(theta, phi, orientation: Orientation) -> SphericalBasis:
    """LSCS unit vectors for direction (theta, phi), expressed in GCS.

    In LCS components the triad is

        upsilon  = (sin t cos p, sin t sin p, cos t)
        vartheta = (cos t cos p, cos t sin p, -sin t)
        varphi   = (-sin p, cos p, 0)

    and each is mapped through the port frame.  Scalar angles give
    3-vectors, arrays of angles one vector per entry.
    """
    st, ct = np.sin(theta), np.cos(theta)
    phi = np.where(st < POLE_TOL, 0.0, phi)
    sp, cp = np.sin(phi), np.cos(phi)
    triad = np.array([[st * cp, st * sp, ct],
                      [ct * cp, ct * sp, -st],
                      [-sp, cp, np.zeros_like(sp)]])
    upsilon, vartheta, varphi = (np.moveaxis(triad, 1, -1)
                                 @ orientation.gcs_from_lcs().T)
    return SphericalBasis(upsilon, vartheta, varphi)


def _cos_taper(x):
    """cos(pi x / 2) / (1 - x^2) through the normalized sinc:
    (pi/2) sinc_n((|x| - 1)/2) / (|x| + 1), pi/4 at |x| = 1."""
    ax = np.abs(np.asarray(x, dtype=float))
    return (np.pi / 2) * np.sinc((ax - 1.0) / 2.0) / (ax + 1.0)


def pattern_factor(q: int, theta, phi, a: float, b: float, lam: float):
    """Aperture pattern factor S_q at (theta, phi), for aperture
    dimensions a, b and free-space wavelength lam:

        S_1 = sinc(b pi/lam sin t cos p) cos(a pi/lam sin t sin p)
                                         / (1 - (2a/lam sin t sin p)^2)

    and S_2 with sin p, cos p and a, b swapped.  Scalars or arrays."""
    st = np.sin(theta)
    u_cos = st * np.cos(phi)
    u_sin = st * np.sin(phi)
    if q == 1:
        return (np.sinc(b / lam * u_cos)
                * _cos_taper(2 * a / lam * u_sin))
    if q == 2:
        return (np.sinc(a / lam * u_sin)
                * _cos_taper(2 * b / lam * u_cos))
    raise ValueError(f"unsupported mode index {q}")


def polarization_components(q: int, theta, phi, beta: float,
                            rho_free: float):
    """(vartheta, varphi) components of Psi_q at (theta, phi):
    ((1 + beta/rho cos t) cos p, (beta/rho + cos t) sin p) for q = 1,
    sin p and cos p swapped for q = 2.  Scalars or arrays."""
    ratio = beta / rho_free
    ct = np.cos(theta)
    a_fac = 1.0 + ratio * ct
    b_fac = ratio + ct
    if q == 1:
        return a_fac * np.cos(phi), b_fac * np.sin(phi)
    if q == 2:
        return a_fac * np.sin(phi), b_fac * np.cos(phi)
    raise ValueError(f"unsupported mode index {q}")


def h_wg_to_pa(mode: ModeSpec, wg: WaveguideSpec, x: float) -> complex:
    """Channel gain from the waveguide input to the mode's port of an
    element at position x."""
    if not 0 <= x <= wg.length + 1e-12:
        raise ValueError(f"pa position {x} outside the waveguide")
    amp = np.sqrt(np.exp(-wg.alpha_w * x) / wg.num_pas)
    return complex(amp * np.exp(-1j * mode.propagation_constant * x))


def guide_to_port_matrix(modes, waveguides, x) -> np.ndarray:
    """The QMN x QM matrix H_wp of elements at positions x[m][n], filled
    port by port: port (m, n, q) reaches mode input (m, q) alone, in row
    (m N + n) Q + q and column m Q + q."""
    n_wg, n_pas, n_modes = len(x), len(x[0]), len(modes)
    h = np.zeros((n_wg * n_pas * n_modes, n_wg * n_modes), dtype=complex)
    for m, wg in enumerate(waveguides):
        for n in range(n_pas):
            for q, mode in enumerate(modes):
                h[(m * n_pas + n) * n_modes + q, m * n_modes + q] = \
                    h_wg_to_pa(mode, wg, x[m][n])
    return h


def coupling_length(n: int, n_total: int, kappa: float) -> float:
    """Coupling length of the n-th element in an equal-quota cascade of
    n_total elements with coupling coefficient kappa:
    sin^2(kappa tau) = 1/(n_total + 1 - n), so every element extracts
    1/n_total of the power fed into the guide."""
    if not 1 <= n <= n_total:
        raise ValueError(f"pa index {n} outside 1..{n_total}")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(np.arcsin(np.sqrt(1.0 / (n_total + 1 - n))) / kappa)


def gain_log_derivative(x_pa, user_pos, wg: WaveguideSpec, alpha_a: float):
    """d ln|H|^2 / dx of the boresight link gain at element position x:

        -alpha_w + alpha_a d/r + 2 d/r^2,  d = x_user - x,

    r the distance from the element to the user.  It holds for either
    sign of d; past the user both free-space terms turn against moving
    further, so it is below -alpha_w there."""
    x_u, y, z = np.asarray(user_pos, dtype=float)
    d = x_u - x_pa
    r = np.hypot(d, np.hypot(y - wg.axis_y, z - wg.axis_z))
    return -wg.alpha_w + alpha_a * d / r + 2.0 * d / r ** 2


@dataclass(frozen=True)
class JonesVector:
    """Unit two-component polarization state in a transverse basis."""

    c_theta: complex
    c_phi: complex
    basis: SphericalBasis | None = None

    def __post_init__(self):
        norm = np.hypot(abs(self.c_theta), abs(self.c_phi))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"Jones vector norm {norm} is not 1")

    @classmethod
    def normalized(cls, c_theta, c_phi, basis=None) -> "JonesVector":
        norm = np.hypot(abs(c_theta), abs(c_phi))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero polarization state")
        return cls(complex(c_theta / norm), complex(c_phi / norm), basis)

    def to_gcs(self) -> np.ndarray:
        """3-vector of the polarization direction in global coordinates."""
        if self.basis is None:
            raise ValueError("Jones vector carries no basis")
        vec = (self.c_theta * self.basis.vartheta.astype(complex)
               + self.c_phi * self.basis.varphi.astype(complex))
        if np.allclose(vec.imag, 0.0, atol=1e-12):
            return vec.real
        return vec


def matching_efficiency(rx: JonesVector, incident: JonesVector) -> float:
    """|n_rx^T n_inc|: amplitude fraction captured by the antenna."""
    return float(abs(rx.c_theta * incident.c_theta
                     + rx.c_phi * incident.c_phi))


def codebook_angles(size: int) -> np.ndarray:
    """Uniform angular codebook 0, 2 pi/S, ..., used by the discrete
    polarization scheme (S = 18 gives a pi/9 line spacing)."""
    if size < 2:
        raise ValueError("codebook needs at least 2 entries")
    return 2 * np.pi * np.arange(size) / size


def discrete_rx_polarization(incident: JonesVector,
                             codebook_size: int = 18) -> JonesVector:
    """Best codeword (cos a, sin a) from a uniform angular codebook.

    Ties resolve to the lowest codeword index for reproducibility.
    """
    angles = codebook_angles(codebook_size)
    etas = np.abs(np.cos(angles) * incident.c_theta
                  + np.sin(angles) * incident.c_phi)
    best = int(np.argmax(etas))
    return JonesVector(float(np.cos(angles[best])),
                       float(np.sin(angles[best])), incident.basis)


@dataclass(frozen=True)
class FieldSample:
    """Complex far-field sample in the source port's spherical basis."""

    e_theta: complex
    e_phi: complex
    position: np.ndarray
    basis: SphericalBasis

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

        rho a b omega mu_0 |s| / (2 rho_q^2 pi sqrt(N) r)
        * exp(-(alpha_w x + alpha_a r) / 2) * S_q * Psi_q

    and the phase -(beta_q x + rho r) + arg(s) + pi/2, with omega =
    2 pi f, rho the free-space wavenumber, x the pinch position and r
    the distance from the port.  Components are returned in the port's
    (vartheta, varphi) basis at the observation direction.
    """
    center = pa.center(wg)
    r, theta, phi = (v.item() for v in local_angles(obs_point, center, orientation))
    if warn_near_field and r < far_field_bound(wg, med):
        warnings.warn(f"observation at r = {r:.3g} m is inside the far-field "
                      f"bound {far_field_bound(wg, med):.3g} m", stacklevel=2)
    a_ap, b_ap = wg.aperture_a, wg.aperture_b
    rho = med.k0
    omega = 2 * np.pi * med.frequency
    amp = (rho * a_ap * b_ap * omega * MU_0
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
                       basis=basis)


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


def _fp_rates_g(h, g, w_p, power, noise):
    v = h @ g @ w_p  # (K, K) received stream amplitudes
    gains = np.abs(v) ** 2
    signal = np.diag(gains)
    denom = power * (gains.sum(axis=1) - signal) + noise
    return power * signal / denom, v


def fp_precoding_g(h, w_p, power, noise, tol=1e-6, max_iter=200):
    """FP precoding iterated on G (QM x MNQ) with B = W_p W_p^H: the KKT
    solve (sum_k mu_k h_k^H h_k + chi I) G B = sqrt(P) RHS through the
    pseudo-inverse of B, and the power multiplier's Newton solve
    started from the upper end of its bracket in every iteration.
    Returns G, the final chi, the per-iteration sum-rate trace and the
    per-iteration tightness gap: the quadratic-transform objective at
    the auxiliary updates minus sum ln(1 + SINR), which is 0 in exact
    arithmetic."""
    h = np.asarray(h, dtype=complex)
    k_users, qm = h.shape
    w_p = np.asarray(w_p, dtype=complex)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))
    b = w_p @ w_p.conj().T
    b_pinv = np.linalg.pinv(b, hermitian=True)

    # matched-filter warm start: strongest served row per element
    g = np.zeros((qm, w_p.shape[0]), dtype=complex)
    for i in range(w_p.shape[0]):
        served = np.nonzero(np.abs(w_p[i]) > 0)[0]
        if served.size:
            k_best = served[np.argmax(np.linalg.norm(h[served], axis=1))]
            g[:, i] = h[k_best].conj()
    start_trace = float(np.trace(g @ b @ g.conj().T).real)
    if start_trace > 0:
        g /= np.sqrt(start_trace)

    trace, gaps = [], []
    sum_rate_prev = -np.inf
    chi = 0.0
    for _ in range(max_iter):
        c1, v = _fp_rates_g(h, g, w_p, power, noise)
        denom_full = power * np.sum(np.abs(v) ** 2, axis=1) + noise
        c2 = np.sqrt(power) * np.diag(v) / denom_full
        transformed = np.sum(
            (1 + c1) * (2 * np.sqrt(power) * (c2.conj() * np.diag(v)).real
                        - np.abs(c2) ** 2 * denom_full)
            + np.log(1 + c1) - c1)
        gaps.append(abs(transformed - np.sum(np.log(1 + c1))))
        mu = power * (1 + c1) * np.abs(c2) ** 2
        a0 = (h.conj().T * mu) @ h
        rhs = np.sqrt(power) * (h.conj().T * ((1 + c1) * c2)) @ w_p.conj().T
        lam, u_eig = np.linalg.eigh(a0)
        lam = np.clip(lam.real, 0.0, None)
        m1 = u_eig.conj().T @ rhs @ b_pinv
        d_diag = np.real(np.einsum("ij,jk,ik->i", m1, b, m1.conj()))
        chi = _power_multiplier(lam, d_diag)
        denom = lam + chi
        safe = np.where(denom > 0, denom, np.inf)
        g = u_eig @ (m1 / safe[:, None])

        sinr, _ = _fp_rates_g(h, g, w_p, power, noise)
        sum_rate = float(np.sum(0.5 * np.log2(1.0 + sinr)))
        trace.append(sum_rate)
        if abs(sum_rate - sum_rate_prev) < tol:
            break
        sum_rate_prev = sum_rate
    return g, chi, np.asarray(trace), np.asarray(gaps)


def fmt_value(value) -> str:
    """One CSV field: floats with 6 decimals, anything else ``str``."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def csv_text(result) -> str:
    """The CSV file ``write_csv`` should write for an ExperimentResult."""
    meta = " ".join(f"{k}={v}" for k, v in sorted(result.metadata.items()))
    lines = [f"# experiment={result.experiment} {meta}",
             ",".join(result.columns)]
    lines += [",".join(fmt_value(v) for v in row) for row in result.rows]
    return "\n".join(lines) + "\n"
