"""Three-stage multi-user optimization.

1. Geometry-guided grouping: users attach to their nearest waveguide,
   are sorted along it and paired with their neighbor; leftovers are
   pooled and matched exhaustively under the pairwise squared-distance
   metric (x-adjacently when more than eight are left), then a
   deterministic 2-opt sweep removes any crossing pairs the greedy
   construction left behind.
2. Element-to-group assignment: interference-free pair rates feed a
   rectangular assignment problem (Hungarian by shortest augmenting
   paths, with scipy's tie rule, on a zero-padded square
   matrix); spare elements join groups one at a time by exact marginal
   gain.  A candidate deployment depends on the guide and the group,
   not on the element, so candidates and their interference are
   solved and tabulated per guide (M x J x M x J), and each element
   reads its guide's rows.  A slot is solved on slot-wide lanes: one
   pair solve covers every pair on every guide, each user carried in
   its guide's frame, and the receive vectors, the serving gains and
   the interference table (through the channel's own
   ``channel.port_responses``) take one port evaluation per mode over
   all candidates, the table's in blocks of source guides.
   Interference is additive (sources keep their noise-only splits,
   victims their matched receive vectors), so the fill keeps a running
   sum of it per element.  The slot is deployed
   as arrays, positions (M, N) and per-mode aims (M, N, Q).
3. Precoding: with the sparse per-element splits W_p frozen, the
   mode-domain mixer G is optimized by fractional programming
   (quadratic transform, closed-form auxiliary updates, a KKT solve and
   a bracketed Newton solve of the power multiplier's secular equation,
   started from the previous iteration's multiplier).  Each port
   serves one user, so W = G W_p (QM x K) is any precoder that is zero
   on the unserved users' columns, and the rates and the power budget
   read G only through W.  The loop iterates on the served columns of
   W, only on the users whose stream is still on; the splits W_p seed
   its matched-filter start.

Single-mode ("-SM") schemes reuse the pair structure but serve one
user per element per time slot on the fundamental mode, with rates
scaled by the slot count.  Receive polarization policies: "PA" matches
the incident field exactly, "PI" fixes the near-vertical transverse
axis of the user's own frame, "DP" picks the best of 18 uniformly
spaced codebook angles.

Stages 1 and 2 and the splits W_p assume the matched policy whatever
the scheme, so the schemes compare receive policies on one deployment.
That deployment is shared: the grouping per scenario, and the
assignment, the element arrays, W_p and the channel's port factors per
(scenario, mode count), so PA-MM, PI-MM and DP-MM share one and PA-SM
and PI-SM another.  Each scheme runs only its receive policy on the
served users' deployed ports, the composition of the port factors
under it, stage 3 and the rate report.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import channel
from .geometry import Orientation
from .placement import (LinkModel, pair_rates, power_split,
                        solve_single_user, two_user_shared_position)
from .polarization import matched_polarization, receive_polarization
from .radiation import PortResponse, row_blocks
from .scenario import Scenario, parse_scheme
from .waveguide import PaPlacement, element_center, power_share


# ---------------------------------------------------------------------------
# stage 1: grouping

def _cost(d2, pairs) -> float:
    """Sum of the squared (x, y) distances ``d2[a][b]`` of the pairs,
    accumulated in order."""
    total = 0.0
    for a, b in pairs:
        total += d2[a][b]
    return total


# largest id list whose pairings are enumerated
_EXACT_USERS = 8


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


def group_users(users, waveguide_ys) -> list[tuple[int, ...]]:
    """Partition users into pairs, returned as a list of user-index
    tuples.

    Users are paired x-adjacently within each waveguide cluster; odd
    cluster leftovers are pooled and paired the same way along x, and
    one user stays single when K is odd.  Up to eight users, the whole
    set or the pool, the pairing is solved exactly by enumeration
    (pairwise swap refinement cannot realize the three-cycle exchanges
    that small instances sometimes need; a pool of P has (P - 1)!!
    matchings).  Every pairing is priced from one table of squared
    (x, y) distances.
    """
    users = np.atleast_2d(np.asarray(users, dtype=float))
    ys = np.asarray(waveguide_ys, dtype=float)

    def along_x(ids):
        return sorted(ids, key=lambda k: (users[k, 0], k))

    nearest = np.argmin(np.abs(users[:, 1][:, None] - ys[None, :]), axis=1)
    clusters = [along_x(np.nonzero(nearest == m)[0].tolist())
                for m in range(len(ys))]
    xy = users[:, :2]
    d2 = ((xy[:, None] - xy[None]) ** 2).sum(axis=-1).tolist()
    if users.shape[0] <= _EXACT_USERS:
        pairs, singles = _exact_matching(d2, list(range(users.shape[0])))
    else:
        pairs = [(a, b) for cl in clusters for a, b in zip(cl[0::2], cl[1::2])]
        pool = [cl[-1] for cl in clusters if len(cl) % 2]
        if len(pool) <= _EXACT_USERS:
            pool_pairs, singles = _exact_matching(d2, pool)
        else:
            pool = along_x(pool)
            pool_pairs = list(zip(pool[0::2], pool[1::2]))
            singles = pool[2 * len(pool_pairs):]
        pairs, singles = _two_opt(d2, pairs + pool_pairs, singles)
    return pairs + [(s,) for s in singles]


# ---------------------------------------------------------------------------
# stage 2: element-to-group assignment

@dataclass(frozen=True)
class AssignmentMatrix:
    """Binary element-to-group incidence, rows = elements.  ``x`` is a
    read-only copy of the matrix given, since the results of every
    scheme run on one deployment share it."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.int8)
        if x.ndim != 2 or not np.isin(x, (0, 1)).all():
            raise ValueError("assignment must be a binary matrix")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)


def _max_weight_matching(weights: list) -> list:
    """Column of each row in a maximum-weight perfect matching of a
    square table (a list of rows of finite floats).

    Shortest augmenting paths on the negated table (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016),
    step for step as scipy's ``linear_sum_assignment`` takes them, so
    ties resolve the same way: the remaining columns are scanned from
    the last one, an unassigned column wins a tie on path cost, and a
    chosen column leaves the scan by swapping in the last one.
    """
    n = len(weights)
    cost = [[-w for w in row] for row in weights]
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        spc = [math.inf] * n  # shortest path cost to each column
        rows, cols = [], []   # rows and columns the search has reached
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] < 0):
                    index, lowest = it, spc[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian_assign(rate_table: np.ndarray) -> AssignmentMatrix:
    """Maximum-total-rate one-to-one matching on a rectangular table.

    The table is zero-padded square so dummy rows/columns absorb the
    surplus side; their matches are stripped from the result.  The
    square problem is solved by ``_max_weight_matching`` (shortest
    augmenting paths, scipy's tie rule), so a guide's equal element rows
    are told apart exactly as scipy tells them apart.  It is O(n^3) in
    Python: about 0.07 ms at 12 x 12, 0.12 ms at 16 x 16 and 15 ms at
    128 x 128 with 64 live columns (scipy's compiled solver: 0.003 and
    0.5 ms), on one core of a 2-core x86 host; a slot makes one call.
    """
    table = np.asarray(rate_table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValueError("rate table must be finite")
    n_pa, n_grp = table.shape
    size = max(n_pa, n_grp)
    padded = np.zeros((size, size))
    padded[:n_pa, :n_grp] = table
    x = np.zeros((n_pa, n_grp), dtype=np.int8)
    for i, j in enumerate(_max_weight_matching(padded.tolist())):
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
    """Candidate rates with the splits re-optimized for the noise: the
    ``pair_rates`` of a candidate's two slots, summed."""
    w = _splits(gains, noise, pair, power)
    r1, r2 = pair_rates(gains[..., 0], gains[..., 1], (w[..., 0], w[..., 1]),
                        (noise[..., 0], noise[..., 1]), power)
    return r1 + r2


class _SlotSolver:
    """Rate table, greedy fill and deployment of one time slot.

    A candidate depends on the guide and the group, not on which of the
    guide's elements serves it: the pair solve, the boresight gains and
    the receive vectors never read the element index.  So every (guide,
    group) candidate is solved once on construction into arrays indexed
    [m, j, slot]: the users (in the candidate's own mode order, which
    may reverse the group's), the serving gains, the noise, the matched
    receive vectors and the noise-only power splits; ``x[m, j]`` is the
    element position and ``aims`` the Orientation of its ports, with
    (M, J, 2) angle arrays.  Element i lies on guide ``guide[i]``.  A
    singleton fills slot 0 only, and its idle slot-1 port points
    straight down.  Deployment decisions assume the matched receive
    policy, so every serving link has eta = 1.

    The candidates of all guides are solved together, each lane in its
    guide's frame (see :mod:`mmpass.placement`): one pair solve takes
    both mode orders of every pair on every guide, one single-user
    solve every singleton on every guide, and the finishing reads one
    ``PortResponse`` and one ``link.gain`` call per mode.

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
        # the guides differ only in axis_y (Scenario checks it), so every
        # guide's problem is that of guide 0 moved to y = 0, with each
        # user given relative to its own guide's axis
        wg = scenario.waveguides[0]
        self.link = LinkModel(scenario, replace(wg, axis_y=0.0))
        self.frame_users = (scenario.users[None]
                            - [[[0.0, g.axis_y, 0.0]]
                               for g in scenario.waveguides])   # (M, K, 3)

        self.users = np.zeros((n_wg, n_grp, 2), dtype=int)
        self.x = np.zeros((n_wg, n_grp))
        pitch, roll = np.zeros((2, n_wg, n_grp, 2))
        pairs = np.flatnonzero(self.pair)
        if pairs.size:
            self._solve_pairs(pairs, pitch, roll)
        singles = np.flatnonzero(~self.pair)
        if singles.size:
            ids = np.array([self.groups[j][0] for j in singles])
            sol = solve_single_user(
                self.frame_users[:, ids].reshape(-1, 3), self.link)
            self.users[:, singles, 0] = ids
            self.x[:, singles] = sol.x_star.reshape(n_wg, -1)
            pitch[:, singles, 0] = sol.pitch.reshape(n_wg, -1)
            roll[:, singles, 0] = sol.roll.reshape(n_wg, -1)
        self.aims = Orientation(pitch=pitch, roll=roll)
        self._finish()
        self.splits = _splits(self.gains, self.noise, self.pair,
                              scenario.power)

    # -- candidates ------------------------------------------------------

    def _solve_pairs(self, pairs, pitch, roll):
        """Solve the candidates of the pair groups ``pairs`` on every
        guide in one pair solve over both mode orders of each; a pair
        keeps the order with the higher sum rate, the group's own on a
        tie."""
        scn = self.scenario
        n_wg, n_pairs = scn.num_waveguides, pairs.size
        own = np.array([self.groups[j] for j in pairs])
        orders = np.concatenate([own, own[:, ::-1]])     # (2P, 2)
        first, second = orders.T
        sol = two_user_shared_position(
            self.frame_users[:, first].reshape(-1, 3),
            self.frame_users[:, second].reshape(-1, 3), self.link, scn.power,
            (np.tile(scn.noise[first], n_wg), np.tile(scn.noise[second],
                                                      n_wg)))
        rates = sol.sum_rate.reshape(n_wg, 2, n_pairs)
        lane = (np.arange(n_pairs)
                + n_pairs * (rates[:, 1] > rates[:, 0] + 1e-12))   # (M, P)
        rows = np.arange(n_wg)[:, None]
        self.users[:, pairs] = orders[lane]
        self.x[:, pairs] = sol.x_star.reshape(n_wg, -1)[rows, lane]
        for s, aim in enumerate(sol.orientations):
            pitch[:, pairs, s] = aim.pitch.reshape(n_wg, -1)[rows, lane]
            roll[:, pairs, s] = aim.roll.reshape(n_wg, -1)[rows, lane]

    def _finish(self):
        """Serving gains, noise and matched receive vectors of every
        filled slot, one mode at a time over all candidates."""
        scn = self.scenario
        n_wg, n_grp = self.x.shape
        self.gains = np.zeros((n_wg, n_grp, 2))
        self.noise = np.ones((n_wg, n_grp, 2))
        self.rx = np.zeros((n_wg, n_grp, 2, 3))
        for q in range(2 if self.pair.any() else 1):
            m, j = np.nonzero(np.broadcast_to(self.pair | (q == 0),
                                              self.x.shape))
            users = self.frame_users[m, self.users[m, j, q]]
            x = self.x[m, j]
            resp = PortResponse(scn.med, scn.modes[q], self.link.wg,
                                element_center(x, self.link.wg),
                                Orientation(pitch=self.aims.pitch[m, j, q],
                                            roll=self.aims.roll[m, j, q]),
                                users[:, None])
            self.rx[m, j, q] = matched_polarization(resp.direction[:, 0])
            self.gains[m, j, q] = self.link.gain(q + 1, x, users)
            self.noise[m, j, q] = scn.noise[self.users[m, j, q]]

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
        guide.  The sources' ports are evaluated as the channel's, by
        ``channel.port_responses``, and a singleton's idle port
        transmits with a zero split.

        The sources are evaluated in blocks of whole guides
        (``radiation.row_blocks``, a guide's row being its J sources at
        K users), so the port responses alive at once are bounded by a
        block, not by the table; each entry is computed as in one
        block."""
        scn = self.scenario
        n_wg, n_grp = self.x.shape
        share = power_share(self.x, self.link.wg)
        cross = np.zeros(self.x.shape * 2 + (2,))
        for rows in row_blocks(n_wg, n_grp * scn.num_users):
            for q, resp in enumerate(channel.port_responses(
                    scn, self.x, self.aims, rows)):
                # (B, J, K): every source of the block seen by every user
                h_sq = resp.amplitude(scn.alpha_a) ** 2 * share[rows, :, None]
                weight = scn.power * self.splits[rows, :, q]
                # the directions are gathered at every victim's user one
                # source guide at a time, which bounds that array to 1/M
                # of the table's size times 3
                for out, w, h, direction in zip(cross[rows], weight, h_sq,
                                                resp.direction):
                    proj = np.einsum("mjsd,bmjsd->bmjs", self.rx,
                                     direction[:, self.users])
                    out += w[:, None, None, None] * (
                        proj ** 2 * h[:, self.users])
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
    """The precoder W = G W_p of the final FP iteration and its power
    multiplier chi.

    W_p is port-resolved: row (i, q) carries the amplitude share of the
    user served by element i's mode-q port (two rows per element, one
    nonzero per row).  Aggregating the two ports of an element
    into a single row would make the pair's precoding vectors colinear
    and void the mode-multiplexing gain, so the mode mixer G mixes the
    QM mode inputs over all MNQ ports.  The rates and the power budget
    read G only through W (QM x K), which is all that is kept.
    """

    w: np.ndarray
    chi: float


def _secular(lam, d, chi):
    """f(chi) = sum_i d_i / (lam_i + chi)^2 and -f'(chi) / 2."""
    f = slope = 0.0
    for lam_i, d_i in zip(lam, d):
        inv = 1.0 / (lam_i + chi)
        term = d_i * inv * inv
        f += term
        slope += term * inv
    return f, slope


def _power_multiplier(lam, d, start=0.0):
    """Multiplier chi >= 0 of the unit power budget: the root of the
    secular equation f(chi) = sum_i d_i / (lam_i + chi)^2 = 1, or 0
    when f(0) <= 1 (terms with lam_i = 0 are left out of f(0)).

    f is decreasing and lies between D / (lam_max + chi)^2 and
    D / (lam_min + chi)^2 with D = sum_i d_i (extremes over d_i > 0),
    which brackets the root in [max(sqrt(D) - lam_max, 0),
    sqrt(D) - lam_min].  Newton's method runs on f^(-1/2) - 1, which is
    linear for a single term, from ``start`` when it lies strictly
    inside the bracket (a previous root) and from the upper end
    otherwise; a step that leaves the bracket is replaced by bisection.
    Returns the first chi with |f(chi) - 1| <= 1e-10, or the bracket's
    feasible end if rounding keeps every iterate from getting there.
    The spectrum has QM terms, few enough that the solve runs on Python
    floats faster than on arrays.
    """
    spectrum = zip(lam.tolist(), d.tolist())
    lam, d, f_zero = [], [], 0.0
    for lam_i, d_i in spectrum:
        if d_i > 0:
            lam.append(lam_i)
            d.append(d_i)
            if lam_i > 0:
                f_zero += d_i / lam_i ** 2
    if f_zero <= 1.0 + 1e-12:
        return 0.0
    root_d = math.sqrt(sum(d))
    lo = max(root_d - max(lam), 0.0)
    hi = root_d - min(lam)
    chi = start if lo < start < hi else hi
    for _ in range(100):
        f, slope = _secular(lam, d, chi)
        if abs(f - 1.0) <= 1e-10:
            return chi
        if f > 1.0:
            lo = chi
        else:
            hi = chi
        step = chi + f * (math.sqrt(f) - 1.0) / slope
        chi = step if lo < step < hi else 0.5 * (lo + hi)
    return hi


# the FP loop stops once an iteration gains less sum rate than this
_FP_TOL = 1e-6
# a stream whose SINR falls below this leaves the FP loop: 1 + SINR
# rounds to 1 far above it (float64 machine epsilon squared)
_EPS2 = np.finfo(float).eps ** 2


def fp_precoding(h: np.ndarray, w_p: np.ndarray, power: float, noise,
                 max_iter: int = 200):
    """Maximize the sum rate over the mode mixer G for fixed splits W_p.

    Each row of W_p is a port and carries the split of the one user it
    serves (a row with more than one nonzero raises ``ValueError``), so
    the served users are the nonzero columns of W_p and pinv(W_p) W_p is
    their 0/1 diagonal.  The rates read G only through the precoder
    W = G W_p (QM x K), and the budget tr(G W_p W_p^H G^H) is
    ||W||_F^2; as G ranges over all mixers, W ranges over every
    precoder whose unserved columns are zero.  So the loop runs on the
    served columns of W, and the splits enter only through the start.
    It alternates closed-form auxiliary updates with the KKT solution

        W = U diag(1 / (lam + chi)) U^H R,

    where U diag(lam) U^H = sum_k mu_k h_k^H h_k and
    R = sqrt(P) h^H diag((1 + c1) c2), both over the live users.  chi
    makes ||W||_F^2 meet the unit budget: the root of the secular
    equation with weights d_i = ||(U^H R)_i||^2 (``_power_multiplier``,
    started from the previous iteration's chi); with chi = 0 the
    directions with lam = 0 get no step.

    The loop iterates only the live users.  An unserved user is never
    live, and a user leaves once its SINR falls below eps^2 (float64
    machine epsilon squared, S_k < eps^2 (T_k - S_k)).  A user that
    left keeps an exactly-zero W column, so its rate is exactly 0, and
    h and the gains shrink to the live users.  Such a stream cannot
    move any sum: 1 + SINR already rounds to 1 below eps / 2, so its
    rate term is an exact 0 in every trace entry; and each iteration
    rebuilds its column in proportion to its own received amplitude
    (R's column k is scaled by v_kk), so the interference it causes
    fades with its signal, which is below eps^2 of its interference plus
    noise.  Dropping it also keeps the dying columns out of the
    subnormal range, where they would otherwise decay for the rest of
    the run.

    Each pass reads the received amplitudes v = sqrt(P) h W once.  With
    T_k the received power plus noise of user k and S_k its signal
    power, the auxiliary updates c1_k = SINR_k = S_k / (T_k - S_k) and
    c2_k = v_kk / T_k enter only as sqrt(P) (1 + c1_k) c2_k
    = sqrt(P) v_kk / (T_k - S_k) and mu_k = P S_k / ((T_k - S_k) T_k),
    and the rate as log2(1 + SINR_k) = log2(T_k / (T_k - S_k)).  The
    product sqrt(P) h U serves both U^H R and the next v, so W itself
    is formed once, after the loop.  The loop stops when the sum rate
    gains less than ``_FP_TOL`` in one iteration or after ``max_iter``
    iterations; with none, W is the normalized matched-filter start.
    Returns the factorization and the sum-rate trace (1/2 log2
    convention), one entry per iteration.
    """
    h = np.asarray(h, dtype=complex)
    k_users, qm = h.shape
    w_p = np.asarray(w_p, dtype=complex)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k_users,))
    if np.any(noise <= 0):
        raise ValueError("noise power must be positive")
    nonzero = w_p != 0
    if np.any(nonzero.sum(axis=1) > 1):
        raise ValueError("a row of W_p serves more than one user")
    live = np.flatnonzero(nonzero.any(axis=0))

    # matched-filter warm start: G feeds each port the conjugate channel
    # of the user it serves (a port serving no one is zero)
    w = h.conj().T[:, nonzero.argmax(axis=1)] @ w_p
    start_norm = np.linalg.norm(w)
    if start_norm > 0:
        w /= start_norm

    trace = []
    sum_rate_prev = -np.inf
    chi = 0.0
    # the live users' columns of W are u_eig @ step; the received
    # amplitudes sqrt(P) h W are v
    hs = math.sqrt(power) * h[live]
    hs_adj = hs.conj().T
    noise = noise[live]
    u_eig, step = np.eye(qm), w[:, live]
    v = hs @ step
    # pass i scores the W of iteration i (none on pass 0, the start)
    # and, below the cap, runs iteration i + 1
    for it in range(max_iter + 1):
        gains = (v * v.conj()).real
        v_own = v.diagonal()
        signal = gains.diagonal()
        total = gains.sum(axis=1) + noise
        rest = total - signal
        keep = signal >= _EPS2 * rest
        if not keep.all():
            live, hs, noise = live[keep], hs[keep], noise[keep]
            hs_adj, step = hs.conj().T, step[:, keep]
            gains, v_own = gains[np.ix_(keep, keep)], v_own[keep]
            signal = gains.diagonal()
            total = gains.sum(axis=1) + noise
            rest = total - signal
        if it:
            sum_rate = 0.5 * float(np.log2(total / rest).sum())
            trace.append(sum_rate)
            if abs(sum_rate - sum_rate_prev) < _FP_TOL:
                break
            sum_rate_prev = sum_rate
        if it == max_iter:
            break
        lam, u_eig = np.linalg.eigh((hs_adj * (signal / (rest * total))) @ hs)
        lam = np.maximum(lam, 0.0)
        hu = hs @ u_eig
        m1 = hu.conj().T * (v_own / rest)
        d_diag = (m1 * m1.conj()).real.sum(axis=1)

        chi = _power_multiplier(lam, d_diag, chi)
        denom = lam + chi
        if not chi:  # the pseudo-inverse solution: no step on null(A)
            denom[denom == 0.0] = np.inf
        step = m1 / denom[:, None]
        v = hu @ step

    w = np.zeros((qm, k_users), dtype=complex)
    w[:, live] = u_eig @ step
    return PrecoderFactorization(w=w, chi=float(chi)), np.asarray(trace)


# ---------------------------------------------------------------------------
# full per-scheme pipeline

@dataclass
class SlotSolution:
    user_indices: np.ndarray           # global user ids served this slot
    assignment: AssignmentMatrix
    placements: list
    rx: np.ndarray                     # (K_slot, 3) receive vectors
    lam: np.ndarray                    # K_slot x QMN polarization mask
    report: channel.RateReport
    trace: np.ndarray                  # FP sum rate, one per iteration

    @property
    def converged(self) -> bool:
        """FP stopped by its tolerance, not by its iteration cap."""
        return bool(len(self.trace) > 1
                    and abs(self.trace[-1] - self.trace[-2]) < _FP_TOL)


@dataclass
class SchemeResult:
    scheme: str
    report: channel.RateReport
    trace: np.ndarray
    slots: list[SlotSolution]


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


@dataclass(frozen=True)
class _SlotDeployment:
    """The scheme-free part of one time slot: the slot's scenario, the
    assignment, the element records, the port-resolved splits W_p (rows
    (element, mode), columns the slot's users) and the channel's port
    factors on the deployed elements (H_wp, H_pu, every port's field
    direction at every user and the element centers).  Every scheme of
    the slot's mode count reads it, so its arrays are read-only and its
    records tuples; a scheme adds only its receive vectors, read from
    W_p and the factors, and the composition of the factors under
    them."""

    scenario: Scenario
    user_indices: np.ndarray           # global ids of the slot's users
    assignment: AssignmentMatrix
    placements: tuple                  # [m][n] PaPlacement records
    w_p: np.ndarray
    factors: channel.PortFactors

    def __post_init__(self):
        for value in (self.user_indices, self.w_p):
            value.flags.writeable = False


def _deploy_slot(scenario: Scenario, slot_groups,
                 slot_users) -> _SlotDeployment:
    """Rate table, Hungarian assignment, greedy fill, element spacing,
    splits and channel port factors of one slot, for any receive
    policy."""
    local = {k: idx for idx, k in enumerate(slot_users)}
    groups_local = [tuple(local[k] for k in g) for g in slot_groups]
    slot_scn = replace(scenario, users=scenario.users[slot_users],
                       noise=scenario.noise[slot_users])
    solver = _SlotSolver(slot_scn, groups_local)
    assignment = solver.greedy_fill(hungarian_assign(solver.rate_table()))
    # (element, guide, group) of every assigned element, lowest first
    served = [(int(i), int(solver.guide[i]), int(j))
              for i, j in zip(*np.nonzero(assignment.x))]

    # element n of guide m at x[m, n], its mode-q port aimed by pitch and
    # roll angles[:, m, n, q]; an unassigned element keeps the even
    # spread L (n + 1) / (N + 1) and points straight down
    n_wg, num_pas = slot_scn.num_waveguides, slot_scn.num_pas
    n_modes, length = slot_scn.num_modes, slot_scn.waveguides[0].length
    x = np.tile(length * np.arange(1, num_pas + 1) / (num_pas + 1),
                (n_wg, 1))
    angles = np.zeros((2, n_wg, num_pas, n_modes))
    lam_half = slot_scn.med.wavelength0 / 2
    for m in range(n_wg):
        on_guide = {i % num_pas: j for i, g, j in served if g == m}
        spaced = _enforce_min_spacing(
            {n: solver.x[m, j] for n, j in on_guide.items()}, lam_half,
            length)
        for n, j in on_guide.items():
            x[m, n] = spaced[n]
            angles[:, m, n] = (solver.aims.pitch[m, j, :n_modes],
                               solver.aims.roll[m, j, :n_modes])

    w_p = np.zeros((solver.guide.size * n_modes, len(slot_users)))
    for i, m, j in served:
        for s in range(len(groups_local[j])):
            w_p[i * n_modes + s, solver.users[m, j, s]] = np.sqrt(
                solver.splits[m, j, s])
    placements = tuple(
        tuple(PaPlacement(x_mn, tuple(map(Orientation, *aim)))
              for x_mn, aim in zip(x_m, aims_m))
        for x_m, aims_m in zip(x.tolist(),
                               np.moveaxis(angles, 0, -2).tolist()))
    return _SlotDeployment(
        scenario=slot_scn, user_indices=np.asarray(slot_users),
        assignment=assignment, placements=placements, w_p=w_p,
        factors=channel.port_factors(slot_scn, x, Orientation(*angles)))


def _solve_slot(deployment: _SlotDeployment, rx_policy: str) -> SlotSolution:
    """Receive vectors, channel composition, FP precoding and rates of
    one deployed slot under a receive policy.  A served user (a nonzero
    column of W_p) looks at its lowest serving port (the column's first
    nonzero row): that port's field and its element's center."""
    scn = deployment.scenario
    factors = deployment.factors
    nonzero = deployment.w_p != 0
    served = np.flatnonzero(nonzero.any(axis=0))
    port = nonzero[:, served].argmax(axis=0)
    # unserved users keep any unit vector; no stream is mapped to them.
    # The matched vector is the serving field direction up to a sign,
    # and no policy depends on that sign.
    rx = np.tile([0.0, 0.0, 1.0], (scn.num_users, 1))
    rx[served] = receive_polarization(
        rx_policy, factors.directions[served, port], scn.users[served],
        factors.centers[port // scn.num_modes])
    matrices = channel.assemble(factors, rx)
    fact, trace = fp_precoding(matrices.h, deployment.w_p, scn.power,
                               scn.noise)
    report = channel.rate_report(matrices.h, fact.w, scn.power, scn.noise)
    return SlotSolution(user_indices=deployment.user_indices,
                        assignment=deployment.assignment,
                        placements=list(map(list, deployment.placements)),
                        rx=rx, lam=matrices.lam, report=report,
                        trace=trace)


# The scheme-free deployment of every scenario a scheme has run on:
# scenario -> (its groups, {mode count: slot deployments}).  No entry
# refers to its scenario, so an entry goes when its scenario does.
_DEPLOYMENTS = weakref.WeakKeyDictionary()


def _deployment(scenario: Scenario, num_modes: int) -> list[_SlotDeployment]:
    """The slot deployments of ``scenario`` with ``num_modes`` modes,
    grouped and deployed on first use.  Single-mode deployments split
    every pair into two singletons, which fill the slots in turn."""
    entry = _DEPLOYMENTS.get(scenario)
    if entry is None:
        wg_ys = [wg.axis_y for wg in scenario.waveguides]
        entry = _DEPLOYMENTS[scenario] = (
            group_users(scenario.users, wg_ys), {})
    groups, by_modes = entry
    if num_modes not in by_modes:
        if num_modes == 1:
            groups = ([(g[0],) for g in groups]
                      + [(g[1],) for g in groups if len(g) > 1])
        work = scenario.with_modes(num_modes)
        mn = scenario.num_waveguides * scenario.num_pas
        by_modes[num_modes] = [_deploy_slot(work, sub,
                                            [k for g in sub for k in g])
                               for sub in _chunks(groups, mn)]
    return by_modes[num_modes]


def optimize_scenario(scenario: Scenario, scheme_name: str) -> SchemeResult:
    """Run grouping, assignment, placement and FP precoding for one
    transmission scheme and report the end-to-end rates.

    Multi-mode schemes serve each pair on one element (one mode per
    user).  Single-mode schemes serve the same pairs in time slots (one
    user per element per slot, fundamental mode only) and scale rates
    by the slot count.

    The deployment does not depend on the receive policy, so it is
    computed once per scenario and mode count and kept while the
    scenario lives: the grouping once per scenario, and the pair solve,
    rate table, Hungarian assignment, greedy fill, element spacing,
    splits W_p and the channel's port factors (H_wp, H_pu, the field
    directions at the users and the element centers) once for PA-MM,
    PI-MM and DP-MM together and once for PA-SM and PI-SM.  Each scheme
    runs only its receive policy (one call over a slot's served users),
    the composition of the port factors into Lambda and H, FP and the
    rate report.  The results of one deployment share its read-only
    assignment and user ids; each result has its own placement lists.
    """
    scheme = parse_scheme(scheme_name)
    slots = [_solve_slot(deployment, scheme.rx_policy)
             for deployment in _deployment(scenario, scheme.num_modes)]
    n_slots = len(slots)
    rates = np.zeros(scenario.num_users)
    for sol in slots:
        rates[sol.user_indices] = sol.report.per_user_rate / n_slots

    max_len = max(len(s.trace) for s in slots)
    combined = np.zeros(max_len)
    for s in slots:
        padded = np.concatenate([s.trace,
                                 np.full(max_len - len(s.trace),
                                         s.trace[-1] if len(s.trace) else 0.0)])
        combined += padded / n_slots
    report = channel.RateReport(per_user_rate=rates,
                                sum_rate=float(rates.sum()))
    return SchemeResult(scheme=scheme.name, report=report, trace=combined,
                        slots=slots)
