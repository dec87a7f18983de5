"""Three-stage multi-user optimization.

1. Geometry-guided grouping: users attach to their nearest waveguide,
   are sorted along it and paired with their neighbor; leftovers are
   pooled and matched exhaustively under the pairwise squared-distance
   metric, then a deterministic 2-opt sweep removes any crossing pairs
   the greedy construction left behind.
2. Element-to-group assignment: interference-free pair rates feed a
   rectangular assignment problem (Hungarian via
   scipy.optimize.linear_sum_assignment on a zero-padded square
   matrix); spare elements join groups one at a time by exact marginal
   gain.  A candidate deployment depends on the guide and the group,
   not on the element, so candidates and their interference are
   solved and tabulated per guide (M x J x M x J), and each element
   reads its guide's rows.  Interference is additive (sources keep
   their noise-only splits, victims their matched receive vectors), so
   the fill keeps a running sum of it per element.
3. Precoding: with the sparse per-element splits W_p frozen, the
   mode-domain mixer G is optimized by fractional programming
   (quadratic transform, closed-form auxiliary updates, a KKT linear
   solve and a bracketed Newton solve of the power multiplier's
   secular equation).

Single-mode ("-SM") schemes reuse the pair structure but serve one
user per element per time slot on the fundamental mode, with rates
scaled by the slot count.  Receive polarization policies: "PA" matches
the incident field exactly, "PI" fixes the near-vertical transverse
axis of the user's own frame, "DP" picks the best of 18 uniformly
spaced codebook angles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import channel
from .geometry import Orientation
from .placement import (LinkModel, power_split, solve_single_user,
                        two_user_shared_position)
from .polarization import receive_polarization
from .radiation import PortResponse
from .scenario import Scenario, default_placements


@dataclass(frozen=True)
class Scheme:
    name: str
    num_modes: int
    rx_policy: str  # matched | fixed | codebook


_SCHEMES = {
    "pa-mm": Scheme("PA-MM", 2, "matched"),
    "pi-mm": Scheme("PI-MM", 2, "fixed"),
    "dp-mm": Scheme("DP-MM", 2, "codebook"),
    "pa-sm": Scheme("PA-SM", 1, "matched"),
    "pi-sm": Scheme("PI-SM", 1, "fixed"),
}


def parse_scheme(name: str) -> Scheme:
    key = name.strip().lower().replace("pass", "").replace("_", "-")
    key = key.replace("mmp", "mm").replace("smp", "sm")
    if key not in _SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; expected one of "
                         f"{sorted(s.name for s in _SCHEMES.values())}")
    return _SCHEMES[key]


# ---------------------------------------------------------------------------
# stage 1: grouping

@dataclass
class UserGrouping:
    groups: list[tuple[int, ...]]
    cost: float


def _cost(d2, groups) -> float:
    """Sum of the pairwise squared (x, y) distances ``d2[a][b]`` inside
    each group, accumulated in group order."""
    total = 0.0
    for g in groups:
        if len(g) == 2:
            total += d2[g[0]][g[1]]
    return total


def _pairings(ids):
    """All perfect matchings of an even id list (small by construction)."""
    if not ids:
        yield []
        return
    first, rest = ids[0], ids[1:]
    for i, partner in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + tail


def _exact_matching(d2, ids):
    """Cheapest pairs of ``ids`` by enumeration, as (pairs, singles): an
    odd count leaves out each id in turn.  Of costs within 1e-12 the
    first enumerated wins."""
    if len(ids) % 2:
        options = ((pairs, [left]) for n, left in enumerate(ids)
                   for pairs in _pairings(ids[:n] + ids[n + 1:]))
    else:
        options = ((pairs, []) for pairs in _pairings(ids))
    best = None
    for pairs, singles in options:
        cost = _cost(d2, pairs)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, pairs, singles)
    return best[1], best[2]


def _two_opt(d2, pairs, singles):
    """Deterministic local improvement: re-pair across group pairs and
    swap pair members with singletons while the metric decreases."""
    improved = True
    sweeps = 0
    while improved and sweeps < 50:
        improved = False
        sweeps += 1
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                (a1, b1), (a2, b2) = pairs[i], pairs[j]
                current = _cost(d2, [pairs[i]]) + _cost(d2, [pairs[j]])
                for alt in (((a1, a2), (b1, b2)), ((a1, b2), (b1, a2))):
                    cost = _cost(d2, alt)
                    if cost < current - 1e-12:
                        pairs[i], pairs[j] = alt
                        current = cost
                        improved = True
        for i in range(len(pairs)):
            for s in range(len(singles)):
                a, b = pairs[i]
                current = _cost(d2, [pairs[i]])
                for alt_pair, alt_single in (((a, singles[s]), b),
                                             ((b, singles[s]), a)):
                    cost = _cost(d2, [alt_pair])
                    if cost < current - 1e-12:
                        pairs[i], singles[s] = alt_pair, alt_single
                        current = cost
                        improved = True
    return pairs, singles


def group_users(users, waveguide_ys, q: int = 2) -> UserGrouping:
    """Partition users into groups of size ``q`` (1 or 2).

    q = 1 returns singletons ordered waveguide-major along x.  q = 2
    pairs x-adjacent users within each waveguide cluster; odd cluster
    leftovers are pooled and matched exhaustively, and one user stays
    single when K is odd.  Up to eight users the pairing is solved
    exactly (pairwise swap refinement cannot realize the three-cycle
    exchanges that small instances sometimes need).  Every pairing is
    priced from one table of squared (x, y) distances.
    """
    users = np.atleast_2d(np.asarray(users, dtype=float))
    ys = np.asarray(waveguide_ys, dtype=float)
    if q not in (1, 2):
        raise ValueError("group size must be 1 or 2")
    nearest = np.argmin(np.abs(users[:, 1][:, None] - ys[None, :]), axis=1)
    clusters = [sorted(np.nonzero(nearest == m)[0].tolist(),
                       key=lambda k: (users[k, 0], k))
                for m in range(len(ys))]
    if q == 1:
        groups = [(k,) for cl in clusters for k in cl]
        return UserGrouping(groups=groups, cost=0.0)
    xy = users[:, :2]
    d2 = ((xy[:, None] - xy[None]) ** 2).sum(axis=-1).tolist()
    if users.shape[0] <= 8:
        pairs, singles = _exact_matching(d2, list(range(users.shape[0])))
    else:
        pairs = [(a, b) for cl in clusters for a, b in zip(cl[0::2], cl[1::2])]
        pool = [cl[-1] for cl in clusters if len(cl) % 2]
        pool_pairs, singles = _exact_matching(d2, pool)
        pairs, singles = _two_opt(d2, pairs + pool_pairs, singles)
    groups = pairs + [(s,) for s in singles]
    return UserGrouping(groups=groups, cost=_cost(d2, groups))


# ---------------------------------------------------------------------------
# stage 2: element-to-group assignment

@dataclass
class AssignmentMatrix:
    """Binary element-to-group incidence, rows = elements."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int8)
        if self.x.ndim != 2 or not np.isin(self.x, (0, 1)).all():
            raise ValueError("assignment must be a binary matrix")


def hungarian_assign(rate_table: np.ndarray) -> AssignmentMatrix:
    """Maximum-total-rate one-to-one matching on a rectangular table.

    The table is zero-padded square so dummy rows/columns absorb the
    surplus side; their matches are stripped from the result.
    """
    table = np.asarray(rate_table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValueError("rate table must be finite")
    n_pa, n_grp = table.shape
    size = max(n_pa, n_grp)
    padded = np.zeros((size, size))
    padded[:n_pa, :n_grp] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    x = np.zeros((n_pa, n_grp), dtype=np.int8)
    for i, j in zip(rows, cols):
        if i < n_pa and j < n_grp:
            x[i, j] = 1
    return AssignmentMatrix(x)


def _splits(gains, noise, pair, power):
    """Power shares of a candidate's two slots for the given (effective)
    noise; arrays [..., slot].  A singleton (pair False) takes the whole
    power on slot 0."""
    w1, _ = power_split(gains[..., 0], np.where(pair, gains[..., 1], 1.0),
                        noise[..., 0], noise[..., 1], power)
    return np.stack([np.where(pair, w1, 1.0), np.where(pair, 1.0 - w1, 0.0)],
                    axis=-1)


def _rates(gains, noise, pair, power):
    """Candidate rates with the splits re-optimized for the noise."""
    w = _splits(gains, noise, pair, power)
    return np.sum(0.5 * np.log2(1.0 + power * w * gains / noise), axis=-1)


class _SlotSolver:
    """Rate table, greedy fill and deployment of one time slot.

    A candidate depends on the guide and the group, not on which of the
    guide's elements serves it: the pair solve, the boresight gains and
    the receive vectors never read the element index.  So every (guide,
    group) candidate is solved once on construction (the pairs of a
    guide in one batched pair solve) into arrays indexed [m, j, slot]:
    the users (in the candidate's own mode order, which may reverse the
    group's), the serving gains, the noise, the matched receive vectors
    and the noise-only power splits; ``x[m, j]`` and ``aims[m][j]`` are
    the element position and its port orientations.  Element i lies on
    guide ``guide[i]``.  A singleton fills slot 0 only.  Deployment
    decisions assume the matched receive policy, so every serving link
    has eta = 1.

    Interference is additive: sources transmit with their noise-only
    splits and each victim's receive vector is fixed by its candidate.
    ``cross[m2, j2, m, j, s]`` is the power that an element of guide m2
    serving group j2 puts on slot s of candidate (m, j); the greedy
    fill keeps a running sum of it per element, in which an element
    does not interfere with itself.  All tie-breaks are
    lowest-index-first.
    """

    def __init__(self, scenario: Scenario, groups):
        self.scenario = scenario
        self.groups = [tuple(g) for g in groups]
        n_wg, n_grp = scenario.num_waveguides, len(self.groups)
        self.guide = np.arange(n_wg * scenario.num_pas) // scenario.num_pas
        self.pair = np.array([len(g) == 2 for g in self.groups])
        self.users = np.zeros((n_wg, n_grp, 2), dtype=int)
        self.gains = np.zeros((n_wg, n_grp, 2))
        self.noise = np.ones((n_wg, n_grp, 2))
        self.rx = np.zeros((n_wg, n_grp, 2, 3))
        self.x = np.zeros((n_wg, n_grp))
        self.aims = [[()] * n_grp for _ in range(n_wg)]
        for m in range(n_wg):
            self._solve_guide(m)
        self.splits = _splits(self.gains, self.noise, self.pair,
                              scenario.power)

    # -- candidates ------------------------------------------------------

    def _solve_guide(self, m: int):
        """Solve the candidates of every group on guide m into the
        arrays.  Both mode orders of every pair go through one batched
        pair solve; a pair keeps the order with the higher sum rate, the
        group's own on a tie, and only that order is finished."""
        link = LinkModel(self.scenario, m)
        users = self.scenario.users
        noise = self.scenario.noise
        pairs = [j for j, g in enumerate(self.groups) if len(g) == 2]
        if pairs:
            orders = [self.groups[j] for j in pairs]
            orders += [g[::-1] for g in orders]
            first, second = np.array(orders).T
            sol = two_user_shared_position(users[first], users[second], link,
                                           self.scenario.power,
                                           (noise[first], noise[second]))
            own, flipped = np.split(sol.sum_rate, 2)
            xs = sol.x_star.tolist()
            aims = list(zip(*sol.orientations))
            for p, j in enumerate(pairs):
                lane = p + len(pairs) if flipped[p] > own[p] + 1e-12 else p
                self._finish_candidate(m, j, orders[lane], xs[lane],
                                       aims[lane], link)
        for j, group in enumerate(self.groups):
            if len(group) == 1:
                sol = solve_single_user(users[group[0]], link)
                self._finish_candidate(
                    m, j, group, sol.x_star,
                    (Orientation(pitch=sol.pitch, roll=sol.roll),), link)

    def _finish_candidate(self, m, j, order, x, orientations, link):
        """Match each port's receive polarization to the field it
        radiates at its user; ``orientations`` aim the ports, one per
        user of ``order``."""
        scn = self.scenario
        wg = link.wg
        pa_pos = np.array([x, wg.axis_y, wg.axis_z])
        for slot, (k, orient) in enumerate(zip(order, orientations)):
            user_pos = scn.users[k]
            e_dir = PortResponse(scn.med, scn.modes[slot], wg, pa_pos, orient,
                                 user_pos).direction[0]
            self.rx[m, j, slot], _ = receive_polarization(
                "matched", e_dir, user_pos, pa_pos)
            self.gains[m, j, slot] = link.gain(slot + 1, x, user_pos)
            self.users[m, j, slot] = k
            self.noise[m, j, slot] = scn.noise[k]
        self.x[m, j] = x
        # idle ports of a singleton group point straight down
        self.aims[m][j] = tuple(orientations) + (Orientation(),) * (
            scn.num_modes - len(orientations))

    # -- interference and rates -------------------------------------------

    def _rate(self, m, j, interference=0.0):
        """Rates of candidates (m, j) with per-slot interference added
        to their noise; m, j index the candidate arrays."""
        return _rates(self.gains[m, j], self.noise[m, j] + interference,
                      self.pair[j], self.scenario.power)

    def cross_table(self) -> np.ndarray:
        """cross[m2, j2, m, j, s]: interference power of an element of
        guide m2 serving group j2 on slot s of candidate (m, j), summed
        over the source's ports; zero on a singleton's empty slot.  The
        entries of m2 == m are those of a different element of the same
        guide."""
        scn = self.scenario
        n_wg, n_grp = self.x.shape
        cross = np.zeros((n_wg, n_grp, n_wg, n_grp, 2))
        for m, wg in enumerate(scn.waveguides):
            for j2, group in enumerate(self.groups):
                x = self.x[m, j2]
                h_wp_sq = np.exp(-wg.alpha_w * x) / wg.num_pas
                for q in range(len(group)):
                    resp = PortResponse(scn.med, scn.modes[q], wg,
                                        np.array([x, wg.axis_y, wg.axis_z]),
                                        self.aims[m][j2][q], scn.users)
                    h_pu = (scn.port_gains[q] * resp.pattern
                            * np.exp(-0.5 * scn.alpha_a * resp.r))
                    proj = np.einsum("mjsd,mjsd->mjs", self.rx,
                                     resp.direction[self.users])
                    cross[m, j2] += (
                        scn.power * self.splits[m, j2, q]
                        * (proj ** 2 * (h_pu ** 2 * h_wp_sq)[self.users]))
        return cross

    def rate_table(self) -> np.ndarray:
        """MN x J candidate rates at zero interference."""
        return self._rate(self.guide, np.s_[:])

    def greedy_fill(self, assignment: AssignmentMatrix) -> AssignmentMatrix:
        """Assign leftover elements one at a time by exact marginal gain
        of the sum of assigned candidate rates, best gain first.

        A trial's gain is its own rate under the running interference
        plus the change its interference causes to every assigned
        candidate's rate.
        """
        x = assignment.x.copy()
        leftovers = [i for i in range(x.shape[0]) if not x[i].any()]
        if not leftovers:
            return AssignmentMatrix(x)
        cross = self.cross_table()
        guide = self.guide
        cols = np.arange(len(self.groups))
        # interference[i, j, s]: what the assigned elements put on slot
        # s of element i serving group j
        interference = np.zeros(x.shape + (2,))

        def add(i, j):
            row = cross[guide[i], j][guide]
            row[i] = 0.0
            interference[...] += row

        rows, groups = np.nonzero(x)
        for i, j in zip(rows, groups):
            add(i, j)
        while leftovers:
            left = np.array(leftovers)
            held = interference[rows, groups]
            # no leftover is an assigned element, so no row is its own
            hit = cross[guide[left][:, None, None], cols[None, :, None],
                        guide[rows], groups]
            gain = (self._rate(guide[left], np.s_[:], interference[left])
                    + (self._rate(guide[rows], groups, held + hit)
                       - self._rate(guide[rows], groups, held)).sum(axis=-1))
            best = None
            for (li, j), value in np.ndenumerate(gain):
                if best is None or value > best[0] + 1e-12:
                    best = (value, leftovers[li], j)
            _, i_star, j_star = best
            x[i_star, j_star] = 1
            add(i_star, j_star)
            rows, groups = np.nonzero(x)
            leftovers.remove(i_star)
        return AssignmentMatrix(x)


# ---------------------------------------------------------------------------
# stage 3: fractional-programming precoding

@dataclass
class PrecoderFactorization:
    """G (mode mixer), the frozen sparse splits W_p, their product, the
    power multiplier chi of the final FP iteration and the loop's stop.

    W_p is port-resolved: row (i, q) carries the amplitude share of the
    user served by element i's mode-q port (two nonzero rows per
    element, one per row).  Aggregating the two ports of an element
    into a single row would make the pair's precoding vectors colinear
    and void the mode-multiplexing gain, so G mixes the QM mode inputs
    over all MNQ ports instead.
    """

    g: np.ndarray
    w_p: np.ndarray
    w: np.ndarray
    chi: float
    power_trace: float
    iterations: int               # FP iterations run
    converged: bool               # the tol rule stopped the loop


def _secular(lam, d, chi):
    """f(chi) = sum_i d_i / (lam_i + chi)^2 and -f'(chi) / 2."""
    inv = 1.0 / (lam + chi)
    terms = d * inv ** 2
    return float(terms.sum()), float((terms * inv).sum())


def _power_multiplier(lam, d):
    """Multiplier chi >= 0 of the unit power budget: the root of the
    secular equation f(chi) = sum_i d_i / (lam_i + chi)^2 = 1, or 0
    when f(0) <= 1 (terms with lam_i = 0 are left out of f(0)).

    f is decreasing and lies between D / (lam_max + chi)^2 and
    D / (lam_min + chi)^2 with D = sum_i d_i (extremes over d_i > 0),
    which brackets the root in [max(sqrt(D) - lam_max, 0),
    sqrt(D) - lam_min].  Newton's method runs on f^(-1/2) - 1, which is
    linear for a single term, from the upper end; a step that leaves
    the bracket is replaced by bisection.  Returns the first chi with
    |f(chi) - 1| <= 1e-10, or the bracket's feasible end if rounding
    keeps every iterate from getting there.
    """
    d = np.maximum(d, 0.0)  # quadratic forms of a PSD matrix
    live = lam > 0
    if np.sum(d[live] / lam[live] ** 2) <= 1.0 + 1e-12:
        return 0.0
    lam = lam[d > 0]
    d = d[d > 0]
    root_d = np.sqrt(d.sum())
    lo = max(root_d - lam.max(), 0.0)
    hi = chi = root_d - lam.min()
    for _ in range(100):
        f, slope = _secular(lam, d, chi)
        if abs(f - 1.0) <= 1e-10:
            return chi
        if f > 1.0:
            lo = chi
        else:
            hi = chi
        step = chi + f * (np.sqrt(f) - 1.0) / slope
        chi = step if lo < step < hi else 0.5 * (lo + hi)
    return hi


def _fp_rates(h, g, w_p, power, noise):
    v = h @ g @ w_p  # (K, K) received stream amplitudes
    gains = np.abs(v) ** 2
    signal = np.diag(gains)
    denom = power * (gains.sum(axis=1) - signal) + noise
    return power * signal / denom, v


def fp_precoding(h: np.ndarray, w_p: np.ndarray, power: float, noise,
                 tol: float = 1e-6, max_iter: int = 200,
                 track_tightness: bool = False):
    """Maximize the sum rate over the mode mixer G for fixed splits W_p.

    Alternates closed-form auxiliary updates with the KKT solve

        (sum_k mu_k h_k^H h_k + chi I) G (W_p W_p^H) = sqrt(P) RHS

    using the pseudo-inverse of W_p W_p^H; chi makes
    tr(G W_p W_p^H G^H) meet the unit budget (``_power_multiplier``).
    The loop stops when the sum rate gains less than ``tol`` in one
    iteration (``converged``) or after ``max_iter`` iterations.
    Returns the factorization and the per-iteration sum-rate trace (1/2
    log2 convention).  With ``track_tightness`` the trace of the
    transformed objective minus sum ln(1 + SINR) is returned as a third
    element.
    """
    h = np.asarray(h, dtype=complex)
    k_users, qm = h.shape
    w_p = np.asarray(w_p, dtype=complex)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,)).copy()
    if np.any(noise <= 0):
        raise ValueError("noise power must be positive")
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
    converged = False
    sinr, v = _fp_rates(h, g, w_p, power, noise)
    for _ in range(max_iter):
        c1 = sinr
        denom_full = power * np.sum(np.abs(v) ** 2, axis=1) + noise
        c2 = np.sqrt(power) * np.diag(v) / denom_full
        if track_tightness:
            transformed = float(np.sum(
                (1 + c1) * (2 * np.sqrt(power) * (c2.conj() * np.diag(v)).real
                            - np.abs(c2) ** 2 * denom_full)
                + np.log(1 + c1) - c1))
            gaps.append(abs(transformed - float(np.sum(np.log(1 + c1)))))

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

        # the next iteration starts from this g, so it reuses sinr and v
        sinr, v = _fp_rates(h, g, w_p, power, noise)
        sum_rate = float(np.sum(0.5 * np.log2(1.0 + sinr)))
        trace.append(sum_rate)
        if abs(sum_rate - sum_rate_prev) < tol:
            converged = True
            break
        sum_rate_prev = sum_rate

    final = PrecoderFactorization(
        g=g, w_p=w_p, w=g @ w_p, chi=float(chi),
        power_trace=float(np.trace(g @ b @ g.conj().T).real),
        iterations=len(trace), converged=converged)
    if track_tightness:
        return final, np.asarray(trace), np.asarray(gaps)
    return final, np.asarray(trace)


# ---------------------------------------------------------------------------
# full per-scheme pipeline

@dataclass
class SlotSolution:
    user_indices: np.ndarray           # global user ids served this slot
    assignment: AssignmentMatrix
    placements: list
    rx: np.ndarray                     # (K_slot, 3) receive vectors
    report: channel.RateReport
    trace: np.ndarray


@dataclass
class SchemeResult:
    scheme: str
    report: channel.RateReport
    trace: np.ndarray
    slots: list[SlotSolution]
    grouping: UserGrouping


def _chunks(seq, size):
    return [seq[i:i + size] for i in range(0, len(seq), size)] or [seq]


def _enforce_min_spacing(positions: dict, min_gap: float, length: float) -> dict:
    """Push same-guide elements apart to the half-wavelength minimum.

    A forward sweep pushes crowded elements toward +x; a backward sweep
    then pulls the ones pushed past the guide end back from ``length``.
    Positions already spaced and inside [0, length] are not moved.
    """
    out = dict(positions)
    order = sorted(out, key=lambda n: (out[n], n))
    prev = None
    for n in order:
        if prev is not None and out[n] - prev < min_gap:
            out[n] = prev + min_gap
        prev = out[n]
    nxt = None
    for n in reversed(order):
        if nxt is None:
            out[n] = min(out[n], length)
        elif nxt - out[n] < min_gap:
            out[n] = nxt - min_gap
        nxt = out[n]
    return out


def _solve_slot(scenario: Scenario, scheme: Scheme, slot_groups,
                slot_users) -> SlotSolution:
    local = {k: idx for idx, k in enumerate(slot_users)}
    groups_local = [tuple(local[k] for k in g) for g in slot_groups]
    slot_scn = replace(scenario, users=scenario.users[slot_users],
                       noise=scenario.noise[slot_users])
    solver = _SlotSolver(slot_scn, groups_local)
    assignment = solver.greedy_fill(hungarian_assign(solver.rate_table()))
    # (element, guide, group) of every assigned element, lowest first
    served = [(int(i), int(solver.guide[i]), int(j))
              for i, j in zip(*np.nonzero(assignment.x))]

    num_pas, n_modes = slot_scn.num_pas, slot_scn.num_modes
    placements = default_placements(slot_scn.waveguides, num_pas, n_modes,
                                    slot_scn.region[0])
    lam_half = slot_scn.med.wavelength0 / 2
    for m, wg in enumerate(slot_scn.waveguides):
        on_guide = {i % num_pas: j for i, g, j in served if g == m}
        spaced = _enforce_min_spacing(
            {n: solver.x[m, j] for n, j in on_guide.items()}, lam_half,
            wg.length)
        for n, j in on_guide.items():
            placements[m][n] = replace(placements[m][n], x_position=spaced[n],
                                       orientations=solver.aims[m][j])

    # unserved users keep any unit vector; no stream is mapped to them
    rx = np.tile([0.0, 0.0, 1.0], (len(slot_users), 1))
    w_p = np.zeros((solver.guide.size * n_modes, len(slot_users)))
    serving = {}
    for i, m, j in served:
        for s in range(len(groups_local[j])):
            k = int(solver.users[m, j, s])
            w_p[i * n_modes + s, k] = np.sqrt(solver.splits[m, j, s])
            serving.setdefault(k, (m, j, s))  # lowest element first
    for k, (m, j, s) in serving.items():
        wg = slot_scn.waveguides[m]
        pa_pos = np.array([solver.x[m, j], wg.axis_y, wg.axis_z])
        # the matched vector is the serving field direction up to a
        # sign, and no policy depends on that sign
        rx[k], _ = receive_polarization(scheme.rx_policy, solver.rx[m, j, s],
                                        slot_scn.users[k], pa_pos)

    deployed = replace(slot_scn, placements=placements)
    matrices = channel.assemble(deployed, rx)
    fact, trace = fp_precoding(matrices.h, w_p, slot_scn.power, slot_scn.noise)
    report = channel.rate_report(matrices.h, fact.w, slot_scn.power,
                                 slot_scn.noise)
    return SlotSolution(user_indices=np.asarray(slot_users),
                        assignment=assignment, placements=placements, rx=rx,
                        report=report, trace=trace)


def optimize_scenario(scenario: Scenario, scheme_name: str) -> SchemeResult:
    """Run grouping, assignment, placement and FP precoding for one
    transmission scheme and report the end-to-end rates.

    Multi-mode schemes serve each pair on one element (one mode per
    user).  Single-mode schemes serve the same pairs in time slots (one
    user per element per slot, fundamental mode only) and scale rates
    by the slot count.
    """
    scheme = parse_scheme(scheme_name)
    wg_ys = [wg.axis_y for wg in scenario.waveguides]
    pairing = group_users(scenario.users, wg_ys, q=2)
    work = scenario.with_modes(scheme.num_modes)
    mn = scenario.num_waveguides * scenario.num_pas

    if scheme.num_modes == 2:
        groups = pairing.groups
    else:
        firsts = [(g[0],) for g in pairing.groups]
        seconds = [(g[1],) for g in pairing.groups if len(g) > 1]
        groups = firsts + seconds

    slot_groups = _chunks(groups, mn)
    n_slots = len(slot_groups)
    slots = []
    rates = np.zeros(scenario.num_users)
    sinrs = np.zeros(scenario.num_users)
    for sub in slot_groups:
        slot_users = [k for g in sub for k in g]
        sol = _solve_slot(work, scheme, sub, slot_users)
        slots.append(sol)
        rates[sol.user_indices] = sol.report.per_user_rate / n_slots
        sinrs[sol.user_indices] = sol.report.per_user_sinr

    max_len = max(len(s.trace) for s in slots)
    combined = np.zeros(max_len)
    for s in slots:
        padded = np.concatenate([s.trace,
                                 np.full(max_len - len(s.trace),
                                         s.trace[-1] if len(s.trace) else 0.0)])
        combined += padded / n_slots
    report = channel.RateReport(per_user_sinr=sinrs, per_user_rate=rates,
                                sum_rate=float(rates.sum()))
    return SchemeResult(scheme=scheme.name, report=report, trace=combined,
                        slots=slots, grouping=pairing)
