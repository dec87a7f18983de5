"""Closed-form element placement and orientation.

Single user: point the port at the user (pitch/roll from the GCS
offsets), then place the element at x* = x_user - d* with

    d* = alpha_w rho^2 / (2 + alpha_a rho),

rho being the transverse distance to the user.  d* balances the three
competing losses visible in the log-gain derivative

    d ln|H|^2 / dx = -alpha_w + alpha_a d/r + 2 d/r^2 .

Two users on one element (one per mode): per-mode power shares follow
the water-filling-like split, and the shared position comes from a
curvature-weighted blend of the two single-user optima, falling back
to a bounded 1-D search of the explicit two-user sum rate whenever the
quadratic model degenerates or fails to beat the interval endpoints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .geometry import Orientation
from .polarization import JonesVector, optimal_rx_polarization
from .scenario import Scenario

LN2 = np.log(2.0)
MIN_PAIR_SEPARATION = 1.0  # m, below this the omitted cross-mode
                           # interference is no longer negligible


def optimal_orientation(pa_pos, user_pos) -> Orientation:
    """Pitch and roll that put the user on the port boresight.

    pitch* = arctan(dx / sqrt(dy^2 + dz^2)), roll* = arctan(-dy / dz),
    with d = user - element in GCS.  Requires the user below the port.
    """
    d = np.asarray(user_pos, dtype=float) - np.asarray(pa_pos, dtype=float)
    if np.abs(d).max() <= 1e-8:
        raise ValueError("user coincides with the element position")
    if d[2] >= 0:
        raise ValueError("user must lie below the element")
    pitch = float(np.arctan2(d[0], np.hypot(d[1], d[2])))
    roll = float(np.arctan(-d[1] / d[2]))
    return Orientation(pitch=pitch, roll=roll)


def _scalar(value):
    """A numpy scalar result as a float; arrays pass through."""
    return value if isinstance(value, np.ndarray) else float(value)


def transverse_distance(user_pos, wg):
    """Distance from the user to the waveguide axis in the (y, z) plane.

    ``user_pos`` is one position or a (K, 3) array of them.
    """
    _, y, z = np.asarray(user_pos, dtype=float).T
    return _scalar(np.hypot(y - wg.axis_y, z - wg.axis_z))


def optimal_position(user_pos, wg, alpha_a: float):
    """(x*, d*) for a single user on waveguide ``wg``, or arrays of
    them for a (K, 3) array of users.

    x* is clamped to [0, min(x_user, guide length)]; the element never
    overshoots the user because any position beyond it pays the same
    free-space path at strictly more guided attenuation.
    """
    u = np.asarray(user_pos, dtype=float)
    rho = transverse_distance(u, wg)
    d_star = wg.alpha_w * rho ** 2 / (2.0 + alpha_a * rho)
    x_u = u.T[0]
    x_star = np.minimum(np.maximum(x_u - d_star, 0.0),
                        np.minimum(x_u, wg.length))
    return _scalar(x_star), _scalar(d_star)


def gain_log_derivative(x_pa: float, user_pos, wg, alpha_a: float) -> float:
    """d ln|H|^2 / dx at element position x, boresight-tracked.

    Valid for any sign of d = x_user - x; for d < 0 both free-space
    terms turn against moving further, so the derivative is below
    -alpha_w there.
    """
    u = np.asarray(user_pos, dtype=float)
    d = u[0] - x_pa
    rho = transverse_distance(user_pos, wg)
    r = np.hypot(d, rho)
    return float(-wg.alpha_w + alpha_a * d / r + 2.0 * d / r ** 2)


@dataclass
class LinkModel:
    """Fast boresight link-gain evaluator for one scenario's guides.

    amplitude(q) is the mode-q gain constant at 1 m including the
    per-mode normalization; |h_q(x)|^2 then follows from the guided and
    atmospheric attenuations and spherical spreading, with the port
    aimed at the user and the receive polarization matched.
    """

    scenario: Scenario
    wg_index: int = 0

    @property
    def wg(self):
        return self.scenario.waveguides[self.wg_index]

    def amplitude(self, q: int) -> float:
        return self.scenario.mode_amplitude(q)

    def gain(self, q: int, x, user_pos):
        """|h_q(x)|^2 = A_q^2 e^(-aw x) e^(-aa r) / (N r^2).

        ``x`` and the users (one position or a (K, 3) array)
        broadcast against each other.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(user_pos, dtype=float)
        rho = transverse_distance(u, self.wg)
        r = np.hypot(u.T[0] - x, rho)
        a_q = self.amplitude(q)
        return _scalar(a_q ** 2 * np.exp(-self.wg.alpha_w * x)
                       * np.exp(-self.scenario.alpha_a * r)
                       / (self.wg.num_pas * r ** 2))


def two_user_power_split(h1: complex, h2: complex, sigma1_sq: float,
                         sigma2_sq: float, power: float) -> tuple[float, float]:
    """Per-mode power shares maximizing the interference-free two-user
    sum rate, clamped to [0, 1] (a binding clamp hands the full budget
    to the stronger interior solution)."""
    g1, g2 = abs(h1) ** 2, abs(h2) ** 2
    if g1 == 0.0 or g2 == 0.0:
        raise ValueError("two-user split needs two nonzero channels")
    w1, w2 = power_split(g1, g2, sigma1_sq, sigma2_sq, power)
    return float(w1), float(w2)


def power_split(g1, g2, s1, s2, power):
    """Power shares (w1, 1 - w1) of two users with power gains g1, g2
    and noise powers s1, s2:

        w1 = clip(1/2 + s2 / (2 P g2) - s1 / (2 P g1), 0, 1).

    The gains may be arrays.
    """
    w1 = 0.5 + s2 / (2 * power * g2) - s1 / (2 * power * g1)
    w1 = np.clip(w1, 0.0, 1.0)
    return w1, 1.0 - w1


def eq22_sum_rate(x, link: LinkModel, user1, user2, sigmas, power,
                  modes=(1, 2)):
    """Interference-free two-user sum rate at shared position x with the
    per-x optimal split.  Vectorized over x."""
    g1 = link.gain(modes[0], x, user1)
    g2 = link.gain(modes[1], x, user2)
    w1, w2 = power_split(g1, g2, sigmas[0], sigmas[1], power)
    return (0.5 * np.log2(1.0 + power * w1 * g1 / sigmas[0])
            + 0.5 * np.log2(1.0 + power * w2 * g2 / sigmas[1]))


def tdma_sum_rate(x, link: LinkModel, user1, user2, sigmas, power):
    """Single-mode time-division baseline at shared position x: each
    user gets the full budget on mode 1 for half the time."""
    g1 = link.gain(1, x, user1)
    g2 = link.gain(1, x, user2)
    r1 = 0.5 * np.log2(1.0 + power * g1 / sigmas[0])
    r2 = 0.5 * np.log2(1.0 + power * g2 / sigmas[1])
    return 0.5 * (r1 + r2)


@dataclass
class SingleUserSolution:
    pitch: float
    roll: float
    x_star: float
    d_star: float
    rx_polarization: JonesVector
    achieved_gain: float


def solve_single_user(user_pos, link: LinkModel, q: int = 1) -> SingleUserSolution:
    """Closed-form orientation, position and matched polarization for
    one user served by mode q."""
    x_star, d_star = optimal_position(user_pos, link.wg, link.scenario.alpha_a)
    pa_pos = np.array([x_star, link.wg.axis_y, link.wg.axis_z])
    orientation = optimal_orientation(pa_pos, user_pos)
    mode = link.scenario.modes[q - 1]
    rx = optimal_rx_polarization(q, 0.0, 0.0, mode.propagation_constant,
                                 link.scenario.med.k0)
    return SingleUserSolution(
        pitch=orientation.pitch, roll=orientation.roll,
        x_star=x_star, d_star=d_star, rx_polarization=rx,
        achieved_gain=link.gain(q, x_star, user_pos))


@dataclass
class TwoUserSolution:
    x_star: float
    w1_sq: float
    w2_sq: float
    orientations: tuple[Orientation, Orientation]
    rx_polarizations: tuple[JonesVector, JonesVector]
    sum_rate: float
    x_singles: tuple[float, float]
    used_fallback: bool = False


def _taylor_terms(link, x_q, user_q, user_qp, mode_q, mode_qp,
                  sigma_q, sigma_qp, power):
    """R'_q and R''_q of the quadratic rate model at the single-user
    optimum x_q, in the paper-unit convention (log2, no 1/2 prefactor);
    the blended x* is invariant to that overall scale.

    At x_q the own-gain slope vanishes, so the first derivative comes
    entirely from the power share reacting to the partner's log-gain
    slope; the curvature keeps the two dominant terms of that coupling.
    """
    g_q = link.gain(mode_q, x_q, user_q)
    g_qp = link.gain(mode_qp, x_q, user_qp)
    w_q, _ = power_split(g_q, g_qp, sigma_q, sigma_qp, power)
    lp_qp = gain_log_derivative(x_q, user_qp, link.wg, link.scenario.alpha_a)
    r_p = (-(sigma_qp / (2 * LN2)) * (lp_qp / g_qp)
           / (sigma_q / g_q + power * w_q))
    r_pp = -LN2 * r_p ** 2 - r_p * lp_qp
    return r_p, r_pp


def two_user_shared_position(user1, user2, link: LinkModel, power: float,
                             sigmas, modes=(1, 2)) -> TwoUserSolution:
    """Shared element position and split for two users on one element.

    Taylor-blends the single-user optima through the rate curvatures,
    clamps to the interval they span, and falls back to a bounded
    golden-section search of the explicit sum rate whenever the
    quadratic model loses concavity or fails to beat an endpoint.
    """
    users = (np.asarray(user1, float), np.asarray(user2, float))
    if np.all(np.abs(users[0] - users[1])
              <= 1e-8 + 1e-5 * np.abs(users[1])):
        raise ValueError("two-user placement needs distinct users")
    separation = np.linalg.norm(users[0][:2] - users[1][:2])
    if separation < MIN_PAIR_SEPARATION:
        warnings.warn(f"users {separation:.2f} m apart; the neglected "
                      "cross-mode interference may not be small", stacklevel=2)
    sigmas = tuple(float(s) for s in sigmas)
    x1, _ = optimal_position(users[0], link.wg, link.scenario.alpha_a)
    x2, _ = optimal_position(users[1], link.wg, link.scenario.alpha_a)
    lo, hi = min(x1, x2), max(x1, x2)

    def objective(x):
        return eq22_sum_rate(x, link, users[0], users[1], sigmas, power, modes)

    used_fallback = False
    r1p, r1pp = _taylor_terms(link, x1, users[0], users[1], modes[0], modes[1],
                              sigmas[0], sigmas[1], power)
    r2p, r2pp = _taylor_terms(link, x2, users[1], users[0], modes[1], modes[0],
                              sigmas[1], sigmas[0], power)
    curvature = r1pp + r2pp
    if np.isfinite(curvature) and curvature < 0:
        x_star = (r1pp * x1 + r2pp * x2 - (r1p + r2p)) / curvature
        x_star = float(np.clip(x_star, lo, hi))
    else:
        # the curvature approximation loses concavity outside its
        # weak-coupling regime; the explicit search takes over
        x_star, used_fallback = lo, True
    best_end = max(objective(x1), objective(x2))
    if objective(x_star) < best_end - 1e-12 or used_fallback:
        used_fallback = True
        if hi - lo > 1e-9:
            res = minimize_scalar(lambda x: -objective(x), bounds=(lo, hi),
                                  method="bounded",
                                  options={"xatol": 1e-9})
            candidates = [float(res.x), x1, x2]
        else:
            candidates = [x1, x2]
        x_star = max(candidates, key=objective)

    g1 = link.gain(modes[0], x_star, users[0])
    g2 = link.gain(modes[1], x_star, users[1])
    w1, w2 = power_split(g1, g2, sigmas[0], sigmas[1], power)
    pa_pos = np.array([x_star, link.wg.axis_y, link.wg.axis_z])
    orientations = tuple(optimal_orientation(pa_pos, u) for u in users)
    med_k0 = link.scenario.med.k0
    rx = tuple(
        optimal_rx_polarization(modes[i], 0.0, 0.0,
                                link.scenario.modes[modes[i] - 1].propagation_constant,
                                med_k0)
        for i in range(2))
    return TwoUserSolution(
        x_star=float(x_star), w1_sq=float(w1), w2_sq=float(w2),
        orientations=orientations, rx_polarizations=rx,
        sum_rate=float(objective(x_star)),
        x_singles=(x1, x2), used_fallback=used_fallback)


def sum_rate_profile(user1, user2, link: LinkModel, x_grid, power, sigmas,
                     scheme: str = "mm"):
    """Sum-rate profile over candidate shared positions.

    ``scheme`` selects the dual-mode rate ("mm") or the single-mode
    time-division baseline ("sm").  Returns (x_grid, rates).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if scheme == "mm":
        rates = eq22_sum_rate(x_grid, link, user1, user2, sigmas, power)
    elif scheme == "sm":
        rates = tdma_sum_rate(x_grid, link, user1, user2, sigmas, power)
    else:
        raise ValueError(f"unknown profile scheme {scheme!r}")
    return x_grid, np.asarray(rates)
