"""End-to-end channel assembly, SINR and rates.

The effective K x QM channel is H = (Lambda o H_pu) H_wp: a real
polarization-matching mask on the complex port-to-user gains, then the
block-diagonal guide-to-port factor.  Row k, column (m, q) collects
the coherent sum over the N elements of waveguide m radiating mode q
toward user k.

Assembly comes in two steps.  :func:`port_factors` evaluates, on
element positions x (M, N) and per-mode aims (M, N, Q), what does not
depend on the receive vectors: H_wp = sqrt(``power_share``)
e^(-j beta_q x), H_pu = ``PortResponse.amplitude`` e^(-j rho r) and
the unit field direction of every port at every user.
:func:`assemble` composes those factors with one set of receive
vectors into Lambda and H, so receive policies compared on one
deployment share its factors.

Per-user rates use R_k = (1/2) log2(1 + SINR_k); the 1/2 prefactor is
kept in every evaluator (baselines included) so that all reported
numbers share one convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Orientation
from .radiation import PortResponse
from .scenario import Scenario
from .waveguide import element_center, power_share


@dataclass(frozen=True)
class PortFactors:
    """The receive-policy-free factors of a scenario's channel, columns
    in port order (element-major, mode-minor), and the centers of the
    elements, the sources a receive policy looks back at (port p lies
    on element p // Q).  Its arrays are read-only, so compositions
    under different receive vectors can share them."""

    h_wp: np.ndarray        # QMN x QM complex
    h_pu: np.ndarray        # K x QMN complex
    directions: np.ndarray  # (K, QMN, 3) unit field directions
    centers: np.ndarray     # (MN, 3) element centers

    def __post_init__(self):
        for value in (self.h_wp, self.h_pu, self.directions, self.centers):
            value.flags.writeable = False


@dataclass
class ChannelMatrix:
    """The polarization mask and the composed end-to-end matrix."""

    lam: np.ndarray     # K x QMN real in [0, 1]
    h: np.ndarray       # K x QM complex


def port_responses(scenario: Scenario, x, aims: Orientation, rows):
    """Yield one ``PortResponse`` per mode, of the ports of elements at
    positions ``x[rows]``, where ``x`` is (M, ...) with row m on guide m
    and ``rows`` a slice of its guides, at the scenario's users in
    global coordinates.  ``aims`` holds pitch and roll arrays of x's
    shape and a trailing mode axis; mode q's ports take aims[..., q]."""
    centers = np.stack([element_center(row, wg) for row, wg
                        in zip(x[rows], scenario.waveguides[rows])])
    for q, mode in enumerate(scenario.modes):
        aim = Orientation(pitch=aims.pitch[rows, ..., q],
                          roll=aims.roll[rows, ..., q])
        yield PortResponse(scenario.med, mode, scenario.waveguides[0],
                           centers, aim, scenario.users)


def port_factors(scenario: Scenario, x, aims: Orientation) -> PortFactors:
    """H_wp, H_pu and the unit field directions of the ports of elements
    at positions ``x`` (M, N), aimed by ``aims`` (pitch and roll arrays
    (M, N, Q)), at the scenario's users, and the elements' centers as
    the port responses place them.  Port (m, n, q) is row
    (m N + n) Q + q of H_wp and reaches mode input (m, q), column
    m Q + q, alone."""
    x = np.asarray(x, dtype=float)
    n_wg, n_pas = x.shape
    n_modes = scenario.num_modes
    beta = np.array([mode.propagation_constant for mode in scenario.modes])
    h_wp = np.zeros((n_wg, n_pas, n_modes, n_wg, n_modes), dtype=complex)
    m, n, q = np.indices(h_wp.shape[:3])
    h_wp[m, n, q, m, q] = (np.sqrt(power_share(x, scenario.waveguides[0]))
                           [..., None] * np.exp(-1j * beta * x[..., None]))
    resps = list(port_responses(scenario, x, aims, np.s_[:]))
    h_pu = np.stack([resp.amplitude(scenario.alpha_a)
                     * np.exp(-1j * scenario.med.k0 * resp.r)
                     for resp in resps], axis=-1)        # (M, N, K, Q)
    directions = np.stack([resp.direction for resp in resps], axis=-2)
    n_users = scenario.num_users
    return PortFactors(
        h_wp=h_wp.reshape(n_wg * n_pas * n_modes, -1),
        h_pu=np.moveaxis(h_pu, 2, 0).reshape(n_users, -1),
        directions=np.moveaxis(directions, 2, 0).reshape(n_users, -1, 3),
        centers=resps[0].center.reshape(-1, 3))


def rx_world_vectors(num_users: int, rx_polarizations) -> np.ndarray:
    """The receive vectors as a (K, 3) float array of unit vectors, one
    row per user; any other shape or a row off unit norm raises
    ValueError."""
    vecs = np.asarray(rx_polarizations, dtype=float)
    expected = (num_users, 3)
    if vecs.shape != expected:
        raise ValueError(f"rx polarizations have shape {vecs.shape}, "
                         f"expected {expected}")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("rx polarizations must be unit-norm")
    return vecs / norms[:, None]


def assemble(factors: PortFactors, rx_polarizations) -> ChannelMatrix:
    """Compose a scenario's port factors under one set of receive
    vectors.

    ``rx_polarizations`` is a (K, 3) array of unit receive vectors in
    the GCS, one row per user.  Lambda entries are |p_k . unit(E)| for
    every port, so the mask is exact on each user's matched plane and
    projects physically for all other ports; H = (Lambda o H_pu) H_wp.
    """
    rx = rx_world_vectors(factors.h_pu.shape[0], rx_polarizations)
    lam = np.abs(np.sum(rx[:, None] * factors.directions, axis=-1))
    h = (lam * factors.h_pu) @ factors.h_wp
    return ChannelMatrix(lam=lam, h=h)


def _check_power(w: np.ndarray):
    total = float(np.trace(w @ w.conj().T).real)
    if total > 1 + 1e-9:
        raise ValueError(f"precoder power {total} exceeds the unit budget")


def sinr(h: np.ndarray, w: np.ndarray, power: float, noise) -> np.ndarray:
    """Per-user SINR under precoder ``w`` (columns are user streams)."""
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (h.shape[0],))
    if np.any(noise <= 0):
        raise ValueError("noise power must be positive")
    gains = np.abs(h @ w) ** 2  # (K, K): user k receiving stream i
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    return power * signal / (power * interference + noise)


@dataclass
class RateReport:
    per_user_rate: np.ndarray
    sum_rate: float


def rate_report(h: np.ndarray, w: np.ndarray, power: float, noise) -> RateReport:
    _check_power(w)
    rates = 0.5 * np.log2(1.0 + sinr(h, w, power, noise))
    return RateReport(per_user_rate=rates, sum_rate=float(rates.sum()))
