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
   gain.  Interference is additive (sources keep their noise-only
   splits, victims their matched receive vectors), so it is tabulated
   once per slot and the fill keeps a running sum of it.
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

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import channel
from .geometry import Orientation
from .placement import (LinkModel, power_split, solve_single_user,
                        two_user_shared_position)
from .polarization import receive_polarization
from .radiation import PortResponse
from .scenario import Scenario
from .waveguide import PaPlacement, coupling_length


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


def grouping_cost(users: np.ndarray, groups) -> float:
    """Sum of pairwise squared (x, y) distances inside each group."""
    total = 0.0
    for g in groups:
        for a, b in itertools.combinations(g, 2):
            total += float(np.sum((users[a, :2] - users[b, :2]) ** 2))
    return total


def _pool_pairings(pool):
    """All perfect matchings of an even pool (small by construction)."""
    pool = list(pool)
    if not pool:
        yield []
        return
    first, rest = pool[0], pool[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _pool_pairings(remaining):
            yield [(first, partner)] + tail


def _two_opt(users, pairs, singles):
    """Deterministic local improvement: re-pair across group pairs and
    swap pair members with singletons while the metric decreases."""
    pairs = [tuple(p) for p in pairs]
    improved = True
    sweeps = 0
    while improved and sweeps < 50:
        improved = False
        sweeps += 1
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                (a1, b1), (a2, b2) = pairs[i], pairs[j]
                current = (grouping_cost(users, [pairs[i]])
                           + grouping_cost(users, [pairs[j]]))
                for alt in (((a1, a2), (b1, b2)), ((a1, b2), (b1, a2))):
                    cost = grouping_cost(users, list(alt))
                    if cost < current - 1e-12:
                        pairs[i], pairs[j] = alt
                        current = cost
                        improved = True
        for i in range(len(pairs)):
            for s in range(len(singles)):
                a, b = pairs[i]
                current = grouping_cost(users, [pairs[i]])
                for alt_pair, alt_single in (((a, singles[s]), b),
                                             ((b, singles[s]), a)):
                    cost = grouping_cost(users, [alt_pair])
                    if cost < current - 1e-12:
                        pairs[i], singles[s] = alt_pair, alt_single
                        current = cost
                        improved = True
    return pairs, singles


def _exact_pairing(users, ids):
    """Minimum-cost perfect matching by enumeration (small id sets)."""
    best = min(_pool_pairings(ids), key=lambda m: grouping_cost(users, m))
    return [tuple(int(v) for v in p) for p in best]


def group_users(users, waveguide_ys, q: int = 2) -> UserGrouping:
    """Partition users into groups of size ``q`` (1 or 2).

    q = 1 returns singletons ordered waveguide-major along x.  q = 2
    pairs x-adjacent users within each waveguide cluster; odd cluster
    leftovers are pooled and matched exhaustively, and one user stays
    single when K is odd.  Up to eight users the pairing is solved
    exactly (pairwise swap refinement cannot realize the three-cycle
    exchanges that small instances sometimes need).
    """
    users = np.atleast_2d(np.asarray(users, dtype=float))
    ys = np.asarray(waveguide_ys, dtype=float)
    if q not in (1, 2):
        raise ValueError("group size must be 1 or 2")
    nearest = np.argmin(np.abs(users[:, 1][:, None] - ys[None, :]), axis=1)
    clusters = [sorted(np.nonzero(nearest == m)[0],
                       key=lambda k: (users[k, 0], k))
                for m in range(len(ys))]
    if q == 1:
        groups = [(int(k),) for cl in clusters for k in cl]
        return UserGrouping(groups=groups, cost=0.0)
    k_total = users.shape[0]
    if k_total <= 8:
        ids = list(range(k_total))
        singles = []
        if k_total % 2:
            best = None
            for leftover in ids:
                rest = [i for i in ids if i != leftover]
                pairs = _exact_pairing(users, rest)
                cost = grouping_cost(users, pairs)
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, pairs, [leftover])
            pairs, singles = best[1], best[2]
        else:
            pairs = _exact_pairing(users, ids)
        groups = pairs + [(int(s),) for s in singles]
        return UserGrouping(groups=groups, cost=grouping_cost(users, groups))
    pairs, pool = [], []
    for cl in clusters:
        for a, b in zip(cl[0::2], cl[1::2]):
            pairs.append((int(a), int(b)))
        if len(cl) % 2:
            pool.append(int(cl[-1]))
    best_pool, singles = [], []
    if pool:
        if len(pool) % 2:
            # leave out each candidate in turn, keep the cheapest matching
            best = None
            for leftover in pool:
                rest = [k for k in pool if k != leftover]
                for matching in _pool_pairings(rest):
                    cost = grouping_cost(users, matching)
                    if best is None or cost < best[0] - 1e-12:
                        best = (cost, matching, [leftover])
            best_pool, singles = best[1], best[2]
        else:
            best = min(_pool_pairings(pool),
                       key=lambda m: grouping_cost(users, m))
            best_pool = best
    pairs = pairs + [tuple(p) for p in best_pool]
    pairs, singles = _two_opt(users, pairs, singles)
    groups = [tuple(int(v) for v in p) for p in pairs]
    groups += [(int(s),) for s in singles]
    return UserGrouping(groups=groups, cost=grouping_cost(users, groups))


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

    @property
    def assigned_rows(self):
        return np.nonzero(self.x.sum(axis=1) > 0)[0]

    def group_of(self, i: int) -> int:
        cols = np.nonzero(self.x[i])[0]
        return int(cols[0]) if cols.size else -1


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


@dataclass(frozen=True)
class Candidate:
    """Interference-free deployment of any element of one guide serving
    one group."""

    users: tuple[int, ...]        # user index per mode slot
    x: float
    orientations: tuple[Orientation, ...]
    rx_world: tuple[np.ndarray, ...]
    gains: tuple[float, ...]      # matched boresight power gains at x


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
    guide in one batched pair solve), and ``candidates``
    and the per-candidate arrays indexed [i, j, slot] repeat each
    guide's rows over its N elements: the users (in the candidate's own
    mode order, which may reverse the group's), the serving gains, the
    noise, the matched receive vectors and the noise-only power splits.
    A singleton fills slot 0 only.  Deployment decisions assume the
    matched receive policy, so every serving link has eta = 1.

    Interference is additive: sources transmit with their noise-only
    splits and each victim's receive vector is fixed by its candidate.
    ``cross[i2, j2, i, j, s]`` is the power that element i2 serving
    group j2 puts on slot s of candidate (i, j), zero for i2 == i; the
    greedy fill keeps a running sum of it.  All tie-breaks are
    lowest-index-first.
    """

    def __init__(self, scenario: Scenario, groups):
        self.scenario = scenario
        self.groups = [tuple(g) for g in groups]
        self.links = [LinkModel(scenario, m)
                      for m in range(scenario.num_waveguides)]
        self.num_pas = scenario.num_pas
        n_wg = scenario.num_waveguides
        self.mn = n_wg * self.num_pas
        n_grp = len(self.groups)
        per_guide = [self._solve_guide(m) for m in range(n_wg)]
        self.candidates = [per_guide[m] for m in range(n_wg)
                           for _ in range(self.num_pas)]
        self.pair = np.array([len(g) == 2 for g in self.groups])
        users = np.zeros((n_wg, n_grp, 2), dtype=int)
        gains = np.zeros((n_wg, n_grp, 2))
        noise = np.ones((n_wg, n_grp, 2))
        rx = np.zeros((n_wg, n_grp, 2, 3))
        for m, row in enumerate(per_guide):
            for j, cand in enumerate(row):
                for s, k in enumerate(cand.users):
                    users[m, j, s] = k
                    gains[m, j, s] = cand.gains[s]
                    noise[m, j, s] = scenario.noise[k]
                    rx[m, j, s] = cand.rx_world[s]
        splits = _splits(gains, noise, self.pair, scenario.power)
        self.users, self.gains, self.noise, self.rx, self.splits = (
            np.repeat(a, self.num_pas, axis=0)
            for a in (users, gains, noise, rx, splits))

    # -- candidates ------------------------------------------------------

    def _solve_guide(self, m: int) -> list[Candidate]:
        """Candidates of every group on guide m.  Both mode orders of
        every pair go through one batched pair solve; a pair keeps the
        order with the higher sum rate, the group's own on a tie, and
        only that order is finished."""
        link = self.links[m]
        users = self.scenario.users
        noise = self.scenario.noise
        pairs = [g for g in self.groups if len(g) == 2]
        orders = pairs + [tuple(reversed(g)) for g in pairs]
        solved = {}
        if orders:
            first, second = np.array(orders).T
            sol = two_user_shared_position(users[first], users[second], link,
                                           self.scenario.power,
                                           (noise[first], noise[second]))
            own, flipped = np.split(sol.sum_rate, 2)
            xs = sol.x_star.tolist()
            aims = list(zip(*sol.orientations))
            for p, pair in enumerate(pairs):
                lane = p + len(pairs) if flipped[p] > own[p] + 1e-12 else p
                solved[pair] = (orders[lane], xs[lane], aims[lane])
        row = []
        for group in self.groups:
            if len(group) == 1:
                sol = solve_single_user(users[group[0]], link, q=1)
                aim = (Orientation(pitch=sol.pitch, roll=sol.roll),)
                row.append(self._finish_candidate(group, sol.x_star, aim, link))
                continue
            row.append(self._finish_candidate(*solved[group], link))
        return row

    def _finish_candidate(self, order, x, orientations, link) -> Candidate:
        """Match each port's receive polarization to the field it
        radiates at its user; ``orientations`` aim the ports, one per
        user of ``order``."""
        wg = link.wg
        pa_pos = np.array([x, wg.axis_y, wg.axis_z])
        rx, gains = [], []
        for slot, (k, orient) in enumerate(zip(order, orientations)):
            user_pos = self.scenario.users[k]
            e_dir = PortResponse(self.scenario.med, self.scenario.modes[slot],
                                 wg, pa_pos, orient, user_pos).direction[0]
            p, _ = receive_polarization("matched", e_dir, user_pos, pa_pos)
            rx.append(p)
            gains.append(link.gain(slot + 1, x, user_pos))
        # idle ports of a singleton group point straight down
        orientations = tuple(orientations) + (Orientation(),) * (
            self.scenario.num_modes - len(orientations))
        return Candidate(users=tuple(order), x=float(x),
                         orientations=orientations,
                         rx_world=tuple(rx), gains=tuple(gains))

    # -- interference and rates -------------------------------------------

    def _rate(self, i, j, interference=0.0):
        """Rates of candidates (i, j) with per-slot interference added
        to their noise; i, j index the candidate arrays."""
        return _rates(self.gains[i, j], self.noise[i, j] + interference,
                      self.pair[j], self.scenario.power)

    def cross_table(self) -> np.ndarray:
        """cross[i2, j2, i, j, s]: interference power of element i2
        serving group j2 on slot s of candidate (i, j), summed over the
        source's ports; zero for i2 == i and on a singleton's empty
        slot.  All elements of a guide deploy the same candidate, so
        each (guide, group) source is computed once."""
        scn = self.scenario
        n_grp = len(self.groups)
        n = self.num_pas
        cross = np.zeros((self.mn, n_grp, self.mn, n_grp, 2))
        for m, wg in enumerate(scn.waveguides):
            for j2, src in enumerate(self.candidates[m * n]):
                h_wp_sq = np.exp(-wg.alpha_w * src.x) / wg.num_pas
                for q in range(len(src.users)):
                    resp = PortResponse(scn.med, scn.modes[q], wg,
                                        np.array([src.x, wg.axis_y, wg.axis_z]),
                                        src.orientations[q], scn.users)
                    h_pu = (scn.port_gains[q] * resp.pattern
                            * np.exp(-0.5 * scn.alpha_a * resp.r))
                    proj = np.einsum("ijsd,ijsd->ijs", self.rx,
                                     resp.direction[self.users])
                    cross[m * n:(m + 1) * n, j2] += (
                        scn.power * self.splits[m * n, j2, q]
                        * (proj ** 2 * (h_pu ** 2 * h_wp_sq)[self.users]))
        own = np.arange(self.mn)
        cross[own, :, own] = 0.0
        return cross

    def rate_table(self) -> np.ndarray:
        """MN x J candidate rates at zero interference."""
        return self._rate(np.s_[:], np.s_[:])

    def greedy_fill(self, assignment: AssignmentMatrix) -> AssignmentMatrix:
        """Assign leftover elements one at a time by exact marginal gain
        of the sum of assigned candidate rates, best gain first.

        A trial's gain is its own rate under the running interference
        plus the change its interference causes to every assigned
        candidate's rate.
        """
        x = assignment.x.copy()
        leftovers = [i for i in range(self.mn) if not x[i].any()]
        if not leftovers:
            return AssignmentMatrix(x)
        cross = self.cross_table()
        cols = np.arange(len(self.groups))
        rows, groups = np.nonzero(x)
        interference = cross[rows, groups].sum(axis=0)
        while leftovers:
            left = np.array(leftovers)
            held = interference[rows, groups]
            hit = cross[left[:, None, None], cols[None, :, None], rows, groups]
            gain = (self._rate(left, np.s_[:], interference[left])
                    + (self._rate(rows, groups, held + hit)
                       - self._rate(rows, groups, held)).sum(axis=-1))
            best = None
            for (li, j), value in np.ndenumerate(gain):
                if best is None or value > best[0] + 1e-12:
                    best = (value, leftovers[li], j)
            _, i_star, j_star = best
            x[i_star, j_star] = 1
            interference += cross[i_star, j_star]
            rows, groups = np.nonzero(x)
            leftovers.remove(i_star)
        return AssignmentMatrix(x)


# ---------------------------------------------------------------------------
# stage 3: fractional-programming precoding

@dataclass
class PrecoderFactorization:
    """G (mode mixer), the frozen sparse splits W_p, their product and
    the auxiliary state of the final FP iteration.

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
    c1: np.ndarray
    c2: np.ndarray
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
    c1 = np.zeros(k_users)
    c2 = np.zeros(k_users, dtype=complex)
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
        g=g, w_p=w_p, w=g @ w_p, c1=c1, c2=c2, chi=float(chi),
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
    candidates: dict                   # element index -> Candidate
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
    table = solver.rate_table()
    assignment = solver.greedy_fill(hungarian_assign(table))

    num_pas = slot_scn.num_pas
    lam_half = slot_scn.med.wavelength0 / 2
    serving: dict[int, tuple[int, Candidate]] = {}
    per_wg_positions: list[dict[int, float]] = [dict() for _ in slot_scn.waveguides]
    cands = {int(i): solver.candidates[i][assignment.group_of(i)]
             for i in assignment.assigned_rows}
    for i, cand in cands.items():
        m, n = divmod(i, num_pas)
        per_wg_positions[m][n] = cand.x
        for k_local in cand.users:
            serving.setdefault(k_local, (i, cand))  # lowest element first

    placements = []
    for m, wg in enumerate(slot_scn.waveguides):
        spaced = _enforce_min_spacing(per_wg_positions[m], lam_half, wg.length)
        row = []
        for n in range(num_pas):
            i = m * num_pas + n
            if i in cands:
                cand = cands[i]
                row.append(PaPlacement(
                    waveguide_index=m, pa_index=n + 1,
                    x_position=spaced[n],
                    orientations=cand.orientations,
                    coupling_len=coupling_length(n + 1, num_pas, wg.kappa)))
            else:
                row.append(PaPlacement(
                    waveguide_index=m, pa_index=n + 1,
                    x_position=wg.length * (n + 1) / (num_pas + 1),
                    orientations=tuple(Orientation()
                                       for _ in range(slot_scn.num_modes)),
                    coupling_len=coupling_length(n + 1, num_pas, wg.kappa)))
        placements.append(row)

    rx = np.zeros((len(slot_users), 3))
    for k_local in range(len(slot_users)):
        if k_local in serving:
            i, cand = serving[k_local]
            slot_idx = cand.users.index(k_local)
            m, _ = divmod(i, num_pas)
            wg = slot_scn.waveguides[m]
            pa_pos = np.array([cand.x, wg.axis_y, wg.axis_z])
            # the matched vector is the serving field direction up to a
            # sign, and no policy depends on that sign
            rx[k_local], _ = receive_polarization(
                scheme.rx_policy, cand.rx_world[slot_idx],
                slot_scn.users[k_local], pa_pos)
        else:
            # unserved this slot: any unit vector; no stream is mapped
            rx[k_local] = np.array([0.0, 0.0, 1.0])

    n_modes = slot_scn.num_modes
    w_p = np.zeros((solver.mn * n_modes, len(slot_users)))
    for i, cand in cands.items():
        splits = solver.splits[i, assignment.group_of(i)]
        for slot_idx, k_local in enumerate(cand.users):
            w_p[i * n_modes + slot_idx, k_local] = np.sqrt(splits[slot_idx])

    deployed = replace(slot_scn, placements=placements)
    matrices = channel.assemble(deployed, rx)
    fact, trace = fp_precoding(matrices.h, w_p, slot_scn.power, slot_scn.noise)
    report = channel.rate_report(matrices.h, fact.w, slot_scn.power,
                                 slot_scn.noise)
    return SlotSolution(user_indices=np.asarray(slot_users),
                        assignment=assignment, candidates=cands,
                        placements=placements, rx=rx, report=report,
                        trace=trace)


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
