"""Closed-form element placement and orientation.

Single user: point the port at the user (pitch/roll from the GCS
offsets), then place the element at x* = x_user - d* with

    d* = alpha_w rho^2 / (2 + alpha_a rho),

rho being the transverse distance to the user.  d* balances the three
competing losses visible in the log-gain derivative

    d ln|H|^2 / dx = -alpha_w + alpha_a d/r + 2 d/r^2 .

Two users on one element (one per mode): per-mode power shares follow
the water-filling-like split, and the shared position maximizes the
explicit two-user sum rate between the two single-user optima.  One
bracketed search, ``pair_search``, finds it for the pipeline and for
the outage driver alike.  A quadratic model of the rate built at the
two optima is no shortcut.  With c = s'/(2 ln2 g'(s/g + P w)), g' and
s' the partner's gain and noise, and L' the partner's log-gain slope,
its curvature at an optimum is c L'^2 (1 - c ln2).  An unclipped split
gives 2(s/g + P w) = s/g + s'/g' + P > s'/g', so c ln2 < 1 and the
model is convex: it can be concave only where the split gives one user
all the power.

Both solves take one user (pair) or a batch of P lanes and run every
step on all lanes at once; the search is ``bounded_minimize``, Brent's
bounded method advanced lane by lane.  A ``LinkModel`` evaluates one
guide, but a boresight link depends on its guide only through the
axis: a lane whose user is given relative to its own guide's axis
solves that guide's problem on a link whose axis lies at y = 0, bit for
bit, so one call serves every guide of a scenario.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Orientation
from .scenario import Scenario
from .waveguide import WaveguideSpec, element_center

MIN_PAIR_SEPARATION = 1.0  # m, below this the omitted cross-mode
                           # interference is no longer negligible
# the constants of scipy's bounded search with options={"xatol": 1e-9}
# and its default evaluation cap, so that bounded_minimize takes the
# same steps and returns the same x
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-9
_MAXFUN = 500


def optimal_orientation(pa_pos, user_pos) -> Orientation:
    """Pitch and roll that put the user on the port boresight.

    pitch* = arctan(dx / sqrt(dy^2 + dz^2)), roll* = arctan(-dy / dz),
    with d = user - element in GCS.  Requires the user below the port.
    (P, 3) arrays of element and user positions give the Orientation of
    P lanes.
    """
    d = (np.asarray(user_pos, dtype=float)
         - np.asarray(pa_pos, dtype=float)).T
    if np.any(np.abs(d).max(axis=0) <= 1e-8):
        raise ValueError("user coincides with the element position")
    if np.any(d[2] >= 0):
        raise ValueError("user must lie below the element")
    return Orientation(pitch=_scalar(np.arctan2(d[0], np.hypot(d[1], d[2]))),
                       roll=_scalar(np.arctan(-d[1] / d[2])))


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
    """The element position x* for a single user on waveguide ``wg``, or
    an array of them for a (K, 3) array of users.

    x* = x_user - d* is the first-order stationary point of the log gain
    -alpha_w x - alpha_a r - 2 ln r, clamped to [0, min(x_user, guide
    length)], or the feed end x = 0 where its log gain is higher (high
    guided loss); the element never overshoots the user because any
    position beyond it pays the same free-space path at strictly more
    guided attenuation.
    """
    u = np.asarray(user_pos, dtype=float)
    rho = transverse_distance(u, wg)
    d_star = wg.alpha_w * rho ** 2 / (2.0 + alpha_a * rho)
    x_u = u.T[0]
    x_star = np.minimum(np.maximum(x_u - d_star, 0.0),
                        np.minimum(x_u, wg.length))

    def log_gain(x):
        r = np.hypot(x_u - x, rho)
        return -wg.alpha_w * x - alpha_a * r - 2.0 * np.log(r)
    x_star = np.where(log_gain(0.0) > log_gain(x_star), 0.0, x_star)
    return _scalar(x_star)


@dataclass(frozen=True)
class LaneGeometry:
    """Users as a guide's boresight link sees them: the along-guide
    coordinate ``x`` and the transverse distance ``rho`` to the axis,
    one entry per lane.  Indexing by lanes gives those lanes'
    geometry, so a search over lanes reads it without recomputing it."""

    x: np.ndarray
    rho: np.ndarray

    def __getitem__(self, lanes) -> LaneGeometry:
        return LaneGeometry(self.x[lanes], self.rho[lanes])


@dataclass
class LinkModel:
    """Fast boresight link-gain evaluator for one guide of a scenario,
    its first unless ``wg`` names another.

    The scenario's ``mode_amplitude(q)`` is the normalized mode-q
    boresight gain at 1 m; |h_q(x)|^2 then follows from the guided and
    atmospheric attenuations and spherical spreading, with the port
    aimed at the user and the receive polarization matched.
    """

    scenario: Scenario
    wg: WaveguideSpec | None = None

    def __post_init__(self):
        if self.wg is None:
            self.wg = self.scenario.waveguides[0]

    def geometry(self, user_pos) -> LaneGeometry:
        """The LaneGeometry of one user position or of a (K, 3) array
        of them on this link's guide."""
        u = np.asarray(user_pos, dtype=float)
        return LaneGeometry(u.T[0], transverse_distance(u, self.wg))

    def gain(self, q: int, x, user):
        """|h_q(x)|^2 = A_q^2 e^(-aw x) e^(-aa r) / (N r^2).

        ``user`` is one position, a (K, 3) array of them or their
        ``LaneGeometry``; ``x`` and the users broadcast against each
        other.
        """
        geo = user if isinstance(user, LaneGeometry) else self.geometry(user)
        x = np.asarray(x, dtype=float)
        r = np.hypot(geo.x - x, geo.rho)
        a_q = self.scenario.mode_amplitude(q)
        return _scalar(a_q ** 2 * np.exp(-self.wg.alpha_w * x)
                       * np.exp(-self.scenario.alpha_a * r)
                       / (self.wg.num_pas * r ** 2))


def power_split(g1, g2, s1, s2, power):
    """Power shares (w1, 1 - w1) of two users with power gains g1, g2
    and noise powers s1, s2:

        w1 = clip(1/2 + s2 / (2 P g2) - s1 / (2 P g1), 0, 1).

    The gains may be arrays.
    """
    w1 = 0.5 + s2 / (2 * power * g2) - s1 / (2 * power * g1)
    w1 = np.clip(w1, 0.0, 1.0)
    return w1, 1.0 - w1


def pair_rates(g1, g2, shares, sigmas, power):
    """Interference-free rates (r1, r2) of two users served with the
    power shares ``shares`` of ``power`` on power gains g1, g2, with
    noise powers ``sigmas``: r_i = 1/2 log2(1 + P w_i g_i / s_i).  Any
    argument may be an array."""
    return tuple(0.5 * np.log2(1.0 + power * w * g / s)
                 for g, w, s in zip((g1, g2), shares, sigmas))


def eq22_sum_rate(x, link: LinkModel, user1, user2, sigmas, power):
    """Interference-free sum rate of users 1 and 2 on modes 1 and 2 at
    shared position x with the per-x optimal split.  Vectorized over x;
    the users are positions or their ``LaneGeometry``."""
    g1 = link.gain(1, x, user1)
    g2 = link.gain(2, x, user2)
    r1, r2 = pair_rates(g1, g2,
                        power_split(g1, g2, sigmas[0], sigmas[1], power),
                        sigmas, power)
    return r1 + r2


def tdma_sum_rate(x, link: LinkModel, user1, user2, sigmas, power):
    """Single-mode time-division baseline at shared position x: each
    user gets the full budget on mode 1 for half the time.  The users
    are taken as by :func:`eq22_sum_rate`."""
    r1, r2 = pair_rates(link.gain(1, x, user1), link.gain(1, x, user2),
                        (1.0, 1.0), sigmas, power)
    return 0.5 * (r1 + r2)


@dataclass
class SingleUserSolution:
    """A user's aim and element position; (P,) arrays for a batch."""

    pitch: float | np.ndarray
    roll: float | np.ndarray
    x_star: float | np.ndarray


def solve_single_user(user_pos, link: LinkModel) -> SingleUserSolution:
    """Closed-form orientation and position for one user, or for a
    (P, 3) batch of users on the guide of ``link``: the position rule
    and the boresight aim hold for every mode."""
    x_star = optimal_position(user_pos, link.wg, link.scenario.alpha_a)
    aim = optimal_orientation(element_center(x_star, link.wg), user_pos)
    return SingleUserSolution(pitch=aim.pitch, roll=aim.roll, x_star=x_star)


@dataclass
class TwoUserSolution:
    """One pair's shared position, the orientations that aim its two
    ports at their users (``orientations[s]`` serves user s + 1) and the
    interference-free sum rate there with the optimal ``power_split``.
    A batch's has a trailing lane axis: ``x_star`` and ``sum_rate``
    become (P,) arrays and ``orientations[s]`` the Orientation of P
    lanes.  ``used_fallback`` is True if any lane ran the search, that
    is, if its two single-user optima lie more than 1e-9 m apart."""

    x_star: float | np.ndarray
    orientations: tuple
    sum_rate: float | np.ndarray
    used_fallback: bool = False


def bounded_minimize(fun, lo, hi):
    """Minimizers of L independent 1-D problems over [lo, hi].

    Brent's bounded method (Brent 1973, ch. 5) taken step for step from
    scipy's bounded scalar search (``method="bounded"``, xatol 1e-9):
    every lane makes the same parabolic and golden-section steps and
    stops by the same tolerance test as a scalar run, so it returns the
    same x.  ``lo`` and ``hi`` are (L,) arrays; ``fun(x, lanes)``
    returns the objectives of lanes ``lanes`` (an index array) at the
    (L',) positions x.  Lanes that meet the tolerance drop out, and
    after ``_MAXFUN`` evaluations every lane stops where it is.  Returns
    the minimizers and the objectives there, as evaluated by the search.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    lanes = np.arange(a.size)
    x_min, f_min = np.empty_like(a), np.empty_like(a)
    xf = a + _GOLDEN_MEAN * (b - a)
    fx = fun(xf, lanes)
    nfc, fnfc, fulc, ffulc = xf, fx, xf, fx
    rat = e = np.zeros_like(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        if num >= _MAXFUN:
            go[:] = False
        x_min[lanes[~go]] = xf[~go]
        f_min[lanes[~go]] = fx[~go]
        if not go.any():
            return x_min, f_min
        if not go.all():
            (lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1,
             tol2) = (v[go] for v in (lanes, a, b, xf, fx, nfc, fnfc, fulc,
                                      ffulc, rat, e, xm, tol1, tol2))
        # parabola through the three best points, taken where the step
        # before last was long enough and the vertex lies well inside
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - xf)) & (p < q * (b - xf)))
        rat_p = np.divide(p + 0.0, q, out=np.zeros_like(p), where=parabolic)
        x_p = xf + rat_p
        toward_mid = np.sign(xm - xf) + ((xm - xf) == 0)
        rat_p = np.where((x_p - a < tol2) | (b - x_p < tol2),
                         tol1 * toward_mid, rat_p)
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        rat = np.where(parabolic, rat_p, _GOLDEN_MEAN * e_golden)

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fun(x, lanes)
        num += 1

        down = fu <= fx
        right = x >= xf
        a, b = (np.where(right & down, xf, np.where(~right & ~down, x, a)),
                np.where(right & ~down, x, np.where(~right & down, xf, b)))
        shift = down | (fu <= fnfc) | (nfc == xf)
        third = ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc, ffulc = (np.where(shift, nfc, np.where(third, x, fulc)),
                       np.where(shift, fnfc, np.where(third, fu, ffulc)))
        nfc, fnfc = (np.where(down, xf, np.where(shift, x, nfc)),
                     np.where(down, fx, np.where(shift, fu, fnfc)))
        xf, fx = np.where(down, x, xf), np.where(down, fu, fx)


def pair_search(objective, x1, x2):
    """Shared positions of L pair lanes and their rates: per lane, the
    maximizer of ``objective`` over the bracket between its two
    single-user optima x1 and x2, (L,) arrays.

    ``objective(x, lanes)`` returns the rates of lanes ``lanes`` (an
    index array, or ``slice(None)`` for all of them) at positions x.
    A lane wider than 1e-9 m runs ``bounded_minimize`` of the negated
    rate on its bracket, which also gives the rate at its point; a
    narrower lane keeps x1.  Every lane then keeps the best of that
    point, x1 and x2, the point winning ties, so no lane's rate is
    below its rate at either optimum.  Returns the positions, their
    rates and the number of lanes searched.
    """
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    search = np.nonzero(hi - lo > 1e-9)[0]
    rate1, rate2 = objective(x1, slice(None)), objective(x2, slice(None))
    x, rate = np.array(x1, dtype=float), np.array(rate1, dtype=float)
    x[search], neg_rate = bounded_minimize(
        lambda x, lanes: -objective(x, search[lanes]), lo[search], hi[search])
    rate[search] = -neg_rate
    tried = np.stack([x, x1, x2])
    rates = np.stack([rate, rate1, rate2])
    best, lanes = np.argmax(rates, axis=0), np.arange(x.size)
    return tried[best, lanes], rates[best, lanes], search.size


def two_user_shared_position(user1, user2, link: LinkModel, power: float,
                             sigmas) -> TwoUserSolution:
    """Shared element position and port aims for two users on one
    element, or for a batch of P pairs on the guide of ``link`` (each
    lane in its own guide's frame, as the module docstring describes).

    The users are positions or (P, 3) arrays, the two noise powers in
    ``sigmas`` floats or (P,) arrays; mode 1 serves user 1 and mode 2
    user 2 in every lane.  x* is ``pair_search`` of the explicit sum
    rate ``eq22_sum_rate`` between the two single-user optima, and the
    power split at x* is ``power_split`` of the two gains there.  One
    pair gives floats, a batch the per-lane arrays described on
    ``TwoUserSolution``.  Coincident users in any lane raise; lanes
    closer than MIN_PAIR_SEPARATION give one warning per call, which
    counts them and names the closest separation.
    """
    single = np.ndim(user1) == 1
    u1 = np.atleast_2d(np.asarray(user1, dtype=float))
    u2 = np.atleast_2d(np.asarray(user2, dtype=float))
    s1, s2 = (np.broadcast_to(np.asarray(s, dtype=float), u1.shape[:1])
              for s in sigmas)
    same = np.all(np.abs(u1 - u2) <= 1e-8 + 1e-5 * np.abs(u2), axis=1)
    if same.any():
        raise ValueError("two-user placement needs distinct users (pair "
                         f"{int(np.argmax(same))} of {same.size})")
    separation = np.hypot(*(u1[:, :2] - u2[:, :2]).T)
    close = separation < MIN_PAIR_SEPARATION
    if close.any():
        warnings.warn(f"{np.count_nonzero(close)} of {close.size} pairs "
                      f"closer than {MIN_PAIR_SEPARATION:g} m, the closest "
                      f"{separation.min():.2f} m apart; the neglected "
                      "cross-mode interference may not be small", stacklevel=2)
    x1 = optimal_position(u1, link.wg, link.scenario.alpha_a)
    x2 = optimal_position(u2, link.wg, link.scenario.alpha_a)
    geo1, geo2 = link.geometry(u1), link.geometry(u2)
    x_star, sum_rate, searched = pair_search(
        lambda x, lanes: eq22_sum_rate(x, link, geo1[lanes], geo2[lanes],
                                       (s1[lanes], s2[lanes]), power),
        x1, x2)

    pa_pos = element_center(x_star, link.wg)
    out = (lambda v: float(v[0])) if single else (lambda v: v)
    aims = (optimal_orientation(pa_pos, u) for u in (u1, u2))
    return TwoUserSolution(
        x_star=out(x_star),
        orientations=tuple(Orientation(pitch=out(a.pitch), roll=out(a.roll))
                           for a in aims),
        sum_rate=out(sum_rate), used_fallback=searched > 0)
