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

import csv
from dataclasses import dataclass

import numpy as np

from .radiation import PortResponse
from .scenario import Scenario
from .waveguide import assemble_H_wp, wp_col, wp_row


@dataclass
class ChannelMatrix:
    """The three factors and the assembled end-to-end matrix."""

    h_wp: np.ndarray    # QMN x QM complex
    h_pu: np.ndarray    # K x QMN complex
    lam: np.ndarray     # K x QMN real in [0, 1]
    h: np.ndarray       # K x QM complex
    num_pas: int
    num_modes: int

    def port_column(self, m: int, n: int, q: int) -> int:
        """0-based H_pu column of port (m, n, q), all 0-based."""
        return wp_row(m, n, q, self.num_pas, self.num_modes)

    def mode_column(self, m: int, q: int) -> int:
        return wp_col(m, q, self.num_modes)

    def write_csv(self, path):
        """Flat (row, col, re, im) dump of H for debugging."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im"])
            for i in range(self.h.shape[0]):
                for j in range(self.h.shape[1]):
                    writer.writerow([i, j, f"{self.h[i, j].real:.12e}",
                                     f"{self.h[i, j].imag:.12e}"])


def rx_world_vectors(scenario: Scenario, rx_polarizations) -> np.ndarray:
    """Normalize rx polarization input to a (K, 3) array of unit vectors.

    Accepts an array of 3-vectors or a list of JonesVector objects that
    carry their basis.
    """
    if isinstance(rx_polarizations, np.ndarray) and rx_polarizations.ndim == 2:
        vecs = rx_polarizations.astype(float)
    else:
        vecs = np.stack([np.real(j.to_gcs()) for j in rx_polarizations])
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("rx polarizations must be unit-norm")
    return vecs / norms[:, None]


def assemble(scenario: Scenario, rx_polarizations) -> ChannelMatrix:
    """Build H_wp, H_pu and Lambda for a scenario and compose them.

    ``rx_polarizations`` holds one unit polarization vector per user
    (3-vectors in GCS, or Jones vectors with a basis).  Lambda entries
    are |p_k . unit(E)| for every port, so the mask is exact on each
    user's matched plane and projects physically for all other ports.
    """
    rx = rx_world_vectors(scenario, rx_polarizations)
    n_wg, n_pas = scenario.num_waveguides, scenario.num_pas
    n_modes, n_users = scenario.num_modes, scenario.num_users
    h_wp = assemble_H_wp(scenario)
    h_pu = np.zeros((n_users, n_wg * n_pas * n_modes), dtype=complex)
    lam = np.zeros((n_users, n_wg * n_pas * n_modes))
    med = scenario.med
    for m, (wg, pas) in enumerate(zip(scenario.waveguides, scenario.placements)):
        for n, pa in enumerate(pas):
            center = pa.center(wg)
            for q, (mode, gain) in enumerate(zip(scenario.modes,
                                                 scenario.port_gains)):
                resp = PortResponse(med, mode, wg, center, pa.orientations[q],
                                    scenario.users)
                col = wp_row(m, n, q, n_pas, n_modes)
                h_pu[:, col] = (gain * resp.pattern
                                * np.exp(-0.5 * scenario.alpha_a * resp.r)
                                * np.exp(-1j * med.k0 * resp.r))
                lam[:, col] = np.abs(np.sum(rx * resp.direction, axis=1))
    h = (lam * h_pu) @ h_wp
    return ChannelMatrix(h_wp=h_wp, h_pu=h_pu, lam=lam, h=h,
                         num_pas=n_pas, num_modes=n_modes)


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


def user_rate(h: np.ndarray, w: np.ndarray, k: int, power: float, noise) -> float:
    """(1/2) log2(1 + SINR_k)."""
    _check_power(w)
    return float(0.5 * np.log2(1.0 + sinr(h, w, power, noise)[k]))


def sum_rate(h: np.ndarray, w: np.ndarray, power: float, noise) -> float:
    _check_power(w)
    return float(np.sum(0.5 * np.log2(1.0 + sinr(h, w, power, noise))))


@dataclass
class RateReport:
    per_user_sinr: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float


def rate_report(h: np.ndarray, w: np.ndarray, power: float, noise) -> RateReport:
    _check_power(w)
    values = sinr(h, w, power, noise)
    rates = 0.5 * np.log2(1.0 + values)
    return RateReport(per_user_sinr=values, per_user_rate=rates,
                      sum_rate=float(rates.sum()))
