"""End-to-end channel assembly, SINR and rates.

The effective K x QM channel is H = (Lambda o H_pu) H_wp: a real
polarization-matching mask on the complex port-to-user gains, then the
block-diagonal guide-to-port factor.  Row k, column (m, q) collects
the coherent sum over the N elements of waveguide m radiating mode q
toward user k.

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
from .waveguide import assemble_H_wp


@dataclass
class ChannelMatrix:
    """The three factors and the assembled end-to-end matrix."""

    h_wp: np.ndarray    # QMN x QM complex
    h_pu: np.ndarray    # K x QMN complex
    lam: np.ndarray     # K x QMN real in [0, 1]
    h: np.ndarray       # K x QM complex


def rx_world_vectors(scenario: Scenario, rx_polarizations) -> np.ndarray:
    """The receive vectors as a (K, 3) float array of unit vectors, one
    row per user of the scenario; any other shape or a row off unit
    norm raises ValueError."""
    vecs = np.asarray(rx_polarizations, dtype=float)
    expected = (scenario.num_users, 3)
    if vecs.shape != expected:
        raise ValueError(f"rx polarizations have shape {vecs.shape}, "
                         f"expected {expected}")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("rx polarizations must be unit-norm")
    return vecs / norms[:, None]


def assemble(scenario: Scenario, rx_polarizations) -> ChannelMatrix:
    """Build H_wp, H_pu and Lambda for a scenario and compose them.

    ``rx_polarizations`` is a (K, 3) array of unit receive vectors in
    the GCS, one row per user.  Lambda entries are |p_k . unit(E)| for
    every port, so the mask is exact on each user's matched plane and
    projects physically for all other ports.  Each mode's ports of all
    M N elements are evaluated in one ``PortResponse`` call.
    """
    rx = rx_world_vectors(scenario, rx_polarizations)
    n_modes, n_users = scenario.num_modes, scenario.num_users
    med = scenario.med
    elements = [(wg, pa) for wg, pas in zip(scenario.waveguides,
                                            scenario.placements)
                for pa in pas]                  # in wp_row order
    centers = np.array([pa.center(wg) for wg, pa in elements])
    h_wp = assemble_H_wp(scenario)
    h_pu = np.zeros((n_users, len(elements) * n_modes), dtype=complex)
    lam = np.zeros((n_users, len(elements) * n_modes))
    for q, (mode, gain) in enumerate(zip(scenario.modes,
                                         scenario.port_gains)):
        aims = [pa.orientations[q] for _, pa in elements]
        lanes = Orientation(pitch=np.array([o.pitch for o in aims]),
                            roll=np.array([o.roll for o in aims]))
        resp = PortResponse(med, mode, scenario.waveguides[0], centers,
                            lanes, scenario.users)      # (MN, K)
        h_pu[:, q::n_modes] = (gain * resp.pattern
                               * np.exp(-0.5 * scenario.alpha_a * resp.r)
                               * np.exp(-1j * med.k0 * resp.r)).T
        lam[:, q::n_modes] = np.abs(np.sum(rx * resp.direction, axis=-1)).T
    h = (lam * h_pu) @ h_wp
    return ChannelMatrix(h_wp=h_wp, h_pu=h_pu, lam=lam, h=h)


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
