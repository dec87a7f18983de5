import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mmpass import placement
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.geometry import Orientation
from mmpass.placement import (LinkModel, bounded_minimize, eq22_sum_rate,
                              optimal_orientation, optimal_position,
                              pair_search, power_split, solve_single_user,
                              tdma_sum_rate, two_user_shared_position)
from mmpass.scenario import Scenario
from mmpass.waveguide import PaPlacement
from oracles import gain_log_derivative, radiated_field

SIGMA = 10.0 ** -2.6  # -26 dBW
ALPHA_W = 0.018420680743952365
ALPHA_A = 0.011512925464970228


def _scenario(alpha_w=ALPHA_W):
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=1, num_users=2,
                         alpha_w_db=alpha_w / 0.23025850929940458,
                         d_y=6.0)
    scn = build_scenario(cfg, users=np.array([[5.0, 3.0, 0.0],
                                              [6.0, 3.0, 0.0]]))
    return scn


# ---------------------------------------------------------------------------
# orientation

def test_orientation_straight_down():
    o = optimal_orientation([5, 3, 3], [5, 3, 0])
    assert o.pitch == pytest.approx(0.0)
    assert o.roll == pytest.approx(0.0)


def test_orientation_hand_worked_case():
    o = optimal_orientation([5, 0, 3], [5.5, 0, 0])
    assert o.pitch == pytest.approx(np.arctan(0.5 / 3.0), abs=1e-12)
    assert np.degrees(o.pitch) == pytest.approx(9.4623, abs=1e-3)
    assert o.roll == pytest.approx(0.0)


def test_orientation_roll_inversion():
    dz = -3.0
    dy = dz * np.tan(0.3)  # -dy/dz = -tan(0.3): roll of -0.3 recovers it
    o = optimal_orientation([5, 0, 3], [5, dy, 3 + dz])
    assert o.roll == pytest.approx(-0.3, abs=1e-12)


def test_orientation_points_boresight_at_user():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pa = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 3.0])
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        o = optimal_orientation(pa, user)
        direction = (user - pa) / np.linalg.norm(user - pa)
        boresight = o.gcs_from_lcs()[:, 2]  # +z of the port frame
        assert np.allclose(boresight, direction, atol=1e-12)


def test_orientation_grid_search_oracle():
    # closed form beats a 0.25 deg grid of the radiated power at the
    # user, which is the link gain times an orientation-free constant
    scn = _scenario()
    wg = scn.waveguides[0]
    med = scn.med
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(1, 9)
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        pa_pos = np.array([x, wg.axis_y, wg.axis_z])
        star = optimal_orientation(pa_pos, user)
        mode = scn.modes[0]

        def gain(pitch, roll):
            from mmpass.geometry import Orientation
            pa = PaPlacement(x, (Orientation(pitch, roll),))
            return radiated_field(med, wg, mode, pa, pa.orientations[0], user,
                                  alpha_a=scn.alpha_a,
                                  warn_near_field=False).magnitude ** 2

        g_star = gain(star.pitch, star.roll)
        span = np.deg2rad(3)
        offsets = np.linspace(-span, span, 25)  # 0.25 deg steps
        best = max(gain(star.pitch + dp, star.roll + dr)
                   for dp in offsets for dr in offsets)
        assert g_star >= best * (1 - 1e-9)


def test_orientation_hessian_negative_definite():
    # finite-difference curvature of ln gain at the optimum
    scn = _scenario()
    wg, med = scn.waveguides[0], scn.med
    mode = scn.modes[0]
    rng = np.random.default_rng(8)
    from mmpass.geometry import Orientation
    for _ in range(20):
        x = rng.uniform(1, 9)
        user = np.array([rng.uniform(0, 10), rng.uniform(0, 6), 0.0])
        pa_pos = np.array([x, wg.axis_y, wg.axis_z])
        star = optimal_orientation(pa_pos, user)

        def ln_gain(pitch, roll):
            pa = PaPlacement(x, (Orientation(pitch, roll),))
            return np.log(radiated_field(
                med, wg, mode, pa, pa.orientations[0], user,
                alpha_a=scn.alpha_a, warn_near_field=False).magnitude ** 2)

        h = 1e-4
        base = ln_gain(star.pitch, star.roll)
        d2_pitch = (ln_gain(star.pitch + h, star.roll) - 2 * base
                    + ln_gain(star.pitch - h, star.roll)) / h ** 2
        d2_roll = (ln_gain(star.pitch, star.roll + h) - 2 * base
                   + ln_gain(star.pitch, star.roll - h)) / h ** 2
        assert d2_pitch < 0
        assert d2_roll < 0


def test_orientation_rejects_degenerate_user():
    with pytest.raises(ValueError):
        optimal_orientation([5, 3, 3], [5, 3, 3])
    with pytest.raises(ValueError):
        optimal_orientation([5, 3, 3], [5, 3, 4])  # above the element


def test_orientation_coincidence_boundary():
    # a user within 1e-8 m of the element in every coordinate coincides
    # with it, as np.allclose(d, 0) decides
    for offset in (1e-8, 1.01e-8, 0.99e-8, 2e-8):
        d = np.array([0.3 * offset, -0.5 * offset, -offset])
        if np.allclose(d, 0.0):
            with pytest.raises(ValueError, match="coincides"):
                optimal_orientation([0.0, 0.0, 0.0], d)
        else:
            assert optimal_orientation([0.0, 0.0, 0.0], d).pitch == \
                pytest.approx(np.arctan2(d[0], np.hypot(d[1], d[2])))
    assert np.allclose([0, 0, -1e-8], 0.0)
    assert not np.allclose([0, 0, -1.01e-8], 0.0)


# ---------------------------------------------------------------------------
# position

def test_position_lossless_guide():
    scn = _scenario(alpha_w=0.0)
    x, d = optimal_position([6.0, 3.0, 0.0], scn.waveguides[0], scn.alpha_a)
    assert d == 0.0
    assert x == pytest.approx(6.0)


def test_position_reference_offset():
    # rho = 3 m with the reference attenuations
    scn = _scenario()
    x, d = optimal_position([6.0, 3.0, 0.0], scn.waveguides[0], scn.alpha_a)
    assert d == pytest.approx(0.08148585252788107, rel=1e-12)
    assert x == pytest.approx(6.0 - d)


def test_position_near_feed_clamp():
    scn = _scenario()
    x, d = optimal_position([0.01, 3.0, 0.0], scn.waveguides[0], scn.alpha_a)
    assert 0.0 <= x <= 0.01


def test_position_brute_force_bracket():
    # the brute-force argmax never overshoots the user
    scn = _scenario()
    link = LinkModel(scn)
    rng = np.random.default_rng(3)
    for _ in range(10):
        user = np.array([rng.uniform(1, 9), rng.uniform(0, 6), 0.0])
        xs = np.arange(0.0, 10.0, 0.002)
        gains = link.gain(1, xs, user)
        assert xs[np.argmax(gains)] <= user[0] + 1e-9


def test_position_rule_near_the_grid_optimum_over_losses():
    # on guide 0 of the default floor, the rule's gain is within 0.9 of
    # the best on a 1 mm grid for 30 random users per loss pair.  The
    # last user, 3 m below the axis, has x_user - d* = 4.66 m at 2 dB/m
    # guided loss, where the feed end x = 0 gains 2.1 times as much
    rng = np.random.default_rng(0)
    xs = np.arange(0.0, 10.0 + 5e-4, 1e-3)[:, None]
    worst = {}
    for alpha_w_db in (0.0, 0.08, 0.5, 2.0, 5.0):
        for alpha_a_db in (0.0, 0.05, 0.5, 2.0):
            cfg = ScenarioConfig(alpha_w_db=alpha_w_db, alpha_a_db=alpha_a_db)
            users = np.column_stack([rng.uniform(0, cfg.d_x, 30),
                                     rng.uniform(0, cfg.d_y, 30),
                                     np.zeros(30)])
            users = np.vstack([users, [6.73, 0.75, 0.0]])
            scn = build_scenario(cfg, users=users)
            link = LinkModel(scn)
            assert link.wg.length == 10.0
            x, _ = optimal_position(users, link.wg, scn.alpha_a)
            best = link.gain(1, xs, users).max(axis=0)
            worst[alpha_w_db, alpha_a_db] = np.min(link.gain(1, x, users)
                                                   / best)
    assert min(worst.values()) >= 0.9, worst


# ---------------------------------------------------------------------------
# log-gain derivative (the oracle of the single-user position rule)

def test_derivative_zero_at_exact_root():
    scn = _scenario()
    wg = scn.waveguides[0]
    user = np.array([6.0, 3.0, 0.0])
    from scipy.optimize import brentq
    root = brentq(lambda x: gain_log_derivative(x, user, wg, scn.alpha_a),
                  5.0, 5.99, xtol=1e-13)
    assert abs(gain_log_derivative(root, user, wg, scn.alpha_a)) < 1e-9
    # the closed-form offset solves a first-order expansion of the same
    # condition: close to, but not exactly at, the root
    x_star, _ = optimal_position(user, wg, scn.alpha_a)
    assert abs(x_star - root) < 1e-4


def test_derivative_matches_finite_differences():
    scn = _scenario()
    wg = scn.waveguides[0]
    link = LinkModel(scn)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        user = np.array([rng.uniform(3, 9), rng.uniform(0, 6), 0.0])
        d = rng.uniform(0.15, 2.5)
        x = user[0] - d
        h = 1e-6
        fd = (np.log(link.gain(1, x + h, user))
              - np.log(link.gain(1, x - h, user))) / (2 * h)
        an = gain_log_derivative(x, user, wg, scn.alpha_a)
        worst = max(worst, abs(fd - an) / abs(an))
    assert worst < 1e-6


def test_derivative_sign_past_user():
    scn = _scenario()
    wg = scn.waveguides[0]
    user = np.array([6.0, 3.0, 0.0])
    assert gain_log_derivative(6.0, user, wg, scn.alpha_a) == pytest.approx(
        -wg.alpha_w)
    assert gain_log_derivative(7.0, user, wg, scn.alpha_a) < -wg.alpha_w


# ---------------------------------------------------------------------------
# two-user power split

def test_split_symmetric():
    w1, w2 = power_split(1.0, 1.0, SIGMA, SIGMA, 10.0)
    assert w1 == pytest.approx(0.5)
    assert w2 == pytest.approx(0.5)


def test_split_strong_partner_limit():
    g1 = 0.3
    w1, w2 = power_split(g1, 1e18, SIGMA, SIGMA, 10.0)
    assert w1 == pytest.approx(0.5 - SIGMA / (2 * 10.0 * g1), rel=1e-6)
    assert w1 + w2 == pytest.approx(1.0)


def test_split_clamps_and_renormalizes():
    w1, w2 = power_split(1e-8, 1.0, SIGMA, SIGMA, 1.0)
    assert w1 == 0.0 and w2 == 1.0


def test_split_matches_grid_search():
    scn = _scenario()
    link = LinkModel(scn)
    rng = np.random.default_rng(6)
    for _ in range(10):
        u1 = np.array([rng.uniform(1, 9), rng.uniform(0, 6), 0.0])
        u2 = np.array([rng.uniform(1, 9), rng.uniform(0, 6), 0.0])
        x = rng.uniform(1, 9)
        g1, g2 = link.gain(1, x, u1), link.gain(2, x, u2)
        w1, _ = power_split(g1, g2, SIGMA, SIGMA, 10.0)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        rates = (0.5 * np.log2(1 + 10.0 * grid * g1 / SIGMA)
                 + 0.5 * np.log2(1 + 10.0 * (1 - grid) * g2 / SIGMA))
        assert abs(w1 - grid[np.argmax(rates)]) < 1e-3


# ---------------------------------------------------------------------------
# shared position

def test_shared_position_symmetric_midpoint(monkeypatch):
    # strip the per-mode obliquity asymmetry so the two modes carry
    # identical boresight gains
    monkeypatch.setattr(Scenario, "mode_amplitude", lambda self, q: 1.0)
    scn = _scenario(alpha_w=0.0)
    link = LinkModel(scn)
    sol = two_user_shared_position([4.5, 3, 0], [5.5, 3, 0], link, 10.0,
                                   (SIGMA, SIGMA))
    assert sol.x_star == pytest.approx(5.0, abs=1e-6)
    w1, _ = power_split(link.gain(1, sol.x_star, [4.5, 3, 0]),
                        link.gain(2, sol.x_star, [5.5, 3, 0]), SIGMA, SIGMA,
                        10.0)
    assert w1 == pytest.approx(0.5, abs=1e-9)


def test_shared_position_stays_in_bracket():
    scn = _scenario()
    link = LinkModel(scn)
    rng = np.random.default_rng(10)
    for _ in range(10):
        u1 = np.array([rng.uniform(1, 9), rng.uniform(0, 6), 0.0])
        u2 = np.array([rng.uniform(1, 9), rng.uniform(0, 6), 0.0])
        if np.linalg.norm((u1 - u2)[:2]) < 1.2:
            continue
        sol = two_user_shared_position(u1, u2, link, 10.0, (SIGMA, SIGMA))
        singles = [optimal_position(u, link.wg, scn.alpha_a)[0]
                   for u in (u1, u2)]
        assert min(singles) - 1e-12 <= sol.x_star <= max(singles) + 1e-12


def test_shared_position_close_pair_warns():
    scn = _scenario()
    link = LinkModel(scn)
    with pytest.warns(UserWarning, match="apart"):
        two_user_shared_position([5.0, 3, 0], [5.5, 3, 0], link, 10.0,
                                 (SIGMA, SIGMA))


def test_shared_position_rejects_coincident_users():
    scn = _scenario()
    link = LinkModel(scn)
    with pytest.raises(ValueError):
        two_user_shared_position([5, 3, 0], [5, 3, 0], link, 10.0,
                                 (SIGMA, SIGMA))


def test_shared_position_coincidence_boundary():
    # np.allclose(user1, user2): |u1 - u2| <= 1e-8 + 1e-5 |u2| in every
    # coordinate; the x term scales with the second user's x, not the
    # first's (x = 0 and 1.000005e-8 m are close only under the latter)
    link = LinkModel(_scenario())
    outcomes = set()
    for x, shift in ((4.0, [4.0e-5, 0, 0]), (4.0, [4.0009e-5, 0, 0]),
                     (4.0, [4.0011e-5, 0, 0]), (4.0, [4.1e-5, 0, 0]),
                     (4.0, [0, 0, -1e-8]), (4.0, [0, 0, -1.01e-8]),
                     (4.0, [-4.0009e-5, 0, 0]), (4.0, [-4.0011e-5, 0, 0]),
                     (0.0, [1e-8, 0, 0]), (0.0, [1.000005e-8, 0, 0])):
        second = np.array([x, 3.0, 0.0])
        first = second + np.array(shift)
        same = np.allclose(first, second)
        outcomes.add(same)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # users under 1 m apart
            if same:
                with pytest.raises(ValueError, match="distinct"):
                    two_user_shared_position(first, second, link, 10.0,
                                             (SIGMA, SIGMA))
            else:
                two_user_shared_position(first, second, link, 10.0,
                                         (SIGMA, SIGMA))
    assert outcomes == {True, False}


def _random_pairs(rng, n, d_x=10.0, d_y=6.0):
    return [np.column_stack([rng.uniform(0, d_x, n), rng.uniform(0, d_y, n),
                             np.zeros(n)]) for _ in range(2)]


def test_bounded_search_matches_scipy_bounded():
    # the lane-wise search takes scipy's steps: the same x, bit for bit,
    # on 1000 pairs over every guide of the default config, for the
    # dual-mode and the time-division pair rate.  The oracle
    # evaluates its lane with the same array kernel, because scalar and
    # array evaluations of the rate may differ in the last bit
    cfg = ScenarioConfig()
    scn = build_scenario(cfg)
    rng = np.random.default_rng(23)
    sigmas = (scn.noise[0], scn.noise[0])
    searched = 0
    for m in range(scn.num_waveguides):
        link = LinkModel(scn, scn.waveguides[m])
        u1, u2 = _random_pairs(rng, 250, cfg.d_x, cfg.d_y)
        x1, _ = optimal_position(u1, link.wg, scn.alpha_a)
        x2, _ = optimal_position(u2, link.wg, scn.alpha_a)
        lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
        for rate in (eq22_sum_rate, tdma_sum_rate):
            x, _ = bounded_minimize(
                lambda x, i: -rate(x, link, u1[i], u2[i], sigmas, scn.power),
                lo, hi)
            for p in range(len(lo)):
                res = minimize_scalar(
                    lambda x: -rate(np.array([x]), link, u1[p:p + 1],
                                    u2[p:p + 1], sigmas, scn.power)[0],
                    bounds=(lo[p], hi[p]), method="bounded",
                    options={"xatol": 1e-9})
                assert float(res.x) == x[p], (rate.__name__, m, p)
        searched += np.count_nonzero(hi - lo > 1e-9)
    assert searched >= 990


def test_bounded_search_lanes_are_independent(monkeypatch):
    # a quadratic per lane: the minimizer (clamped to the bracket) to
    # the search tolerance, whichever other lanes share the call;
    # maxfun stops every lane.  The objective it returns is the one it
    # evaluated at each minimizer
    rng = np.random.default_rng(2)
    centre = rng.uniform(-1, 2, 40)
    lo, hi = np.zeros(40), np.ones(40)
    calls = []

    def fun(x, lanes):
        calls.append(lanes.size)
        return (x - centre[lanes]) ** 2

    x, f = bounded_minimize(fun, lo, hi)
    assert np.allclose(x, np.clip(centre, 0, 1), atol=1e-7)
    assert np.array_equal(f, (x - centre) ** 2)
    assert calls[0] == 40 and calls[-1] < 40
    for k in (0, 7, 39):
        alone, _ = bounded_minimize(lambda x, i: fun(x, i + k), lo[k:k + 1],
                                    hi[k:k + 1])
        assert alone[0] == x[k]
    calls.clear()
    monkeypatch.setattr(placement, "_MAXFUN", 5)
    bounded_minimize(fun, lo, hi)
    assert len(calls) == 5


def test_bounded_search_matches_scipy_on_flat_and_kinked_objectives():
    # plateaus, steps and kinks make ties between function values and
    # points exactly at the bracket middle, which smooth rates rarely do
    objectives = [
        lambda x: 0.0 * x, lambda x: np.floor(4 * x),
        lambda x: -np.floor(4 * x),
        lambda x: np.maximum(np.abs(x - 0.3) - 0.2, 0.0),
        lambda x: np.round(x - 0.4, 2) ** 2,
        lambda x: np.abs(np.round(8 * x) - 3), lambda x: np.minimum(x, 0.5),
        lambda x: (x - 1.0) ** 2, lambda x: np.abs(x - 0.25),
        lambda x: np.sin(30 * x) + x]

    def fun(x, lanes):
        return np.array([objectives[k](v) for v, k in zip(x, lanes)])

    n = len(objectives)
    x, _ = bounded_minimize(fun, np.zeros(n), np.ones(n))
    for k in range(n):
        res = minimize_scalar(lambda v: fun([v], [k])[0], bounds=(0.0, 1.0),
                              method="bounded", options={"xatol": 1e-9})
        assert float(res.x) == x[k], k


def test_pair_search_keeps_x1_on_a_lane_narrower_than_1e_9():
    # a 5e-10 m bracket is not searched: on a flat rate the lane keeps x1
    # (the kept point wins ties with both optima), on a rising rate it
    # keeps the better optimum; the wide lane beside it is searched
    x1, x2 = np.array([2.0, 2.0]), np.array([2.0 + 5e-10, 3.0])
    searched = []

    def linear(slope):
        def objective(x, lanes):
            if not isinstance(lanes, slice):
                searched.append(lanes)
            return slope * x
        return objective

    x, rate, lanes = pair_search(linear(0.0), x1, x2)
    assert x[0] == x1[0] and rate[0] == 0.0 and lanes == 1
    x, rate, lanes = pair_search(linear(1.0), x1, x2)
    assert (x[0], x[1]) == (x2[0], 3.0) and rate[0] == x2[0]
    assert searched and all(0 not in i for i in searched)


@pytest.mark.parametrize("power", [10.0, 1e-3])
def test_pair_rate_is_never_below_its_rate_at_either_optimum(power):
    # every lane keeps the best of the search point and both single-user
    # optima; at 1 mW one user often takes the whole split and an
    # optimum wins outright
    cfg = ScenarioConfig()
    scn = build_scenario(cfg)
    link = LinkModel(scn)
    rng = np.random.default_rng(59)
    u1, u2 = _random_pairs(rng, 400, cfg.d_x, cfg.d_y)
    sigmas = (scn.noise[0], scn.noise[0] * rng.uniform(0.01, 100.0, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some pairs under 1 m apart
        sol = two_user_shared_position(u1, u2, link, power, sigmas)
    for u in (u1, u2):
        x, _ = optimal_position(u, link.wg, scn.alpha_a)
        assert np.all(sol.sum_rate
                      >= eq22_sum_rate(x, link, u1, u2, sigmas, power))
    # a searched lane's rate is the one the search evaluated at its
    # point, and it equals the rate evaluated there on all lanes
    assert np.array_equal(sol.sum_rate, eq22_sum_rate(
        sol.x_star, link, u1, u2, sigmas, power))


def test_shared_position_batch_matches_single_calls():
    link = LinkModel(_scenario())
    rng = np.random.default_rng(31)
    u1, u2 = _random_pairs(rng, 24)
    keep = np.hypot(*(u1 - u2)[:, :2].T) >= 1.0
    # lane 0 is too narrow to search: both optima clamp to the feed
    u1 = np.vstack([[0.01, 1.0, 0.0], u1[keep]])
    u2 = np.vstack([[0.02, 5.0, 0.0], u2[keep]])
    sig2 = SIGMA * rng.uniform(0.5, 2.0, len(u1))
    batch = two_user_shared_position(u1, u2, link, 10.0, (SIGMA, sig2))
    assert batch.x_star.shape == (len(u1),)
    alpha_a = link.scenario.alpha_a
    assert (optimal_position(u1[0], link.wg, alpha_a)[0]
            == optimal_position(u2[0], link.wg, alpha_a)[0] == 0.0)
    fallbacks = []
    for p in range(len(u1)):
        one = two_user_shared_position(u1[p], u2[p], link, 10.0,
                                       (SIGMA, sig2[p]))
        assert type(one.x_star) is float and type(one.sum_rate) is float
        assert one.x_star == batch.x_star[p]
        assert one.sum_rate == batch.sum_rate[p]
        assert one.orientations == tuple(
            Orientation(a.pitch[p], a.roll[p]) for a in batch.orientations)
        fallbacks.append(one.used_fallback)
    assert batch.used_fallback is any(fallbacks)


def test_shared_position_keeps_a_winning_endpoint():
    # at low power a quiet partner takes the whole budget and the rate
    # peaks at or beyond its own optimum: the search only comes within
    # its tolerance of that endpoint, so the endpoint itself is kept
    link = LinkModel(_scenario())
    far, near = [6.4, 5.7, 0.0], [0.5, 4.2, 0.0]
    for users, sigmas, end in (((far, near), (SIGMA, 0.003 * SIGMA), 1),
                               ((near, far), (0.003 * SIGMA, SIGMA), 0)):
        sol = two_user_shared_position(*users, link, 0.01, sigmas)
        assert sol.used_fallback
        assert sol.x_star == optimal_position(users[end], link.wg,
                                              link.scenario.alpha_a)[0]


def test_shared_position_batch_rejects_and_warns_once():
    link = LinkModel(_scenario())
    u1 = np.array([[2.0, 3, 0], [5.0, 3, 0], [7.0, 1, 0], [8.0, 3, 0]])
    u2 = np.array([[4.0, 3, 0], [5.5, 3, 0], [7.2, 1, 0], [2.0, 3, 0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        two_user_shared_position(u1, u2, link, 10.0, (SIGMA, SIGMA))
    # one warning for the call, counting the close lanes
    assert [str(w.message).split(";")[0] for w in caught] == [
        "2 of 4 pairs closer than 1 m, the closest 0.20 m apart"]
    u2[2] = u1[2]
    with pytest.raises(ValueError, match="distinct users.*pair 2 of 4"):
        two_user_shared_position(u1, u2, link, 10.0, (SIGMA, SIGMA))


def test_shared_position_lanes_in_guide_frames_match_per_guide_calls():
    # every guide's pairs in one call, users relative to their guide's
    # axis on a link whose axis lies at y = 0: the per-guide batches
    # lane for lane, bit for bit
    cfg = ScenarioConfig()
    scn = build_scenario(cfg)
    rng = np.random.default_rng(41)
    wg = scn.waveguides[0]
    frame = LinkModel(scn, replace(wg, feed_point=np.array([0.0, 0.0,
                                                            wg.axis_z])))
    pairs = [_random_pairs(rng, 30, cfg.d_x, cfg.d_y)
             for _ in scn.waveguides]
    sigma = scn.noise[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        per_guide = [two_user_shared_position(u1, u2, LinkModel(scn, g),
                                              scn.power, (sigma, sigma))
                     for (u1, u2), g in zip(pairs, scn.waveguides)]
        shift = [[0.0, g.axis_y, 0.0] for g in scn.waveguides]
        lanes = two_user_shared_position(
            *(np.concatenate([p[s] - d for p, d in zip(pairs, shift)])
              for s in (0, 1)), frame, scn.power, (sigma, sigma))
    assert np.array_equal(lanes.x_star,
                          np.concatenate([g.x_star for g in per_guide]))
    assert np.array_equal(lanes.sum_rate,
                          np.concatenate([g.sum_rate for g in per_guide]))
    for s in (0, 1):
        for angle in ("pitch", "roll"):
            assert np.array_equal(
                getattr(lanes.orientations[s], angle),
                np.concatenate([getattr(g.orientations[s], angle)
                                for g in per_guide]))


# ---------------------------------------------------------------------------
# profiles

def _profiles(scn, pair):
    link = LinkModel(scn)
    xs = np.linspace(max(0.5, pair[0][0] - 2), min(9.5, pair[1][0] + 2), 400)
    mm = eq22_sum_rate(xs, link, pair[0], pair[1], (SIGMA, SIGMA), 10.0)
    sm = tdma_sum_rate(xs, link, pair[0], pair[1], (SIGMA, SIGMA), 10.0)
    return xs, mm, sm


def test_profile_unimodal_between_optima():
    scn = _scenario()
    link = LinkModel(scn)
    pair = (np.array([4.5, 3, 0]), np.array([5.5, 3, 0]))
    x1, _ = optimal_position(pair[0], scn.waveguides[0], scn.alpha_a)
    x2, _ = optimal_position(pair[1], scn.waveguides[0], scn.alpha_a)
    xs = np.linspace(x1, x2, 300)
    mm = eq22_sum_rate(xs, link, pair[0], pair[1], (SIGMA, SIGMA), 10.0)
    signs = np.sign(np.diff(mm))
    changes = np.count_nonzero(np.diff(signs[signs != 0]))
    assert changes <= 1


def test_profile_multimode_dominates_tdma():
    scn = _scenario()
    for pair in (([4.5, 3, 0], [5.5, 3, 0]), ([3.0, 3, 0], [7.0, 3, 0])):
        xs, mm, sm = _profiles(scn, (np.asarray(pair[0]), np.asarray(pair[1])))
        assert np.all(mm >= sm - 1e-12)


def test_profile_narrow_pair_beats_wide_pair():
    scn = _scenario()
    _, mm_narrow, _ = _profiles(scn, (np.array([4.5, 3, 0]),
                                      np.array([5.5, 3, 0])))
    _, mm_wide, _ = _profiles(scn, (np.array([3.0, 3, 0]),
                                    np.array([7.0, 3, 0])))
    assert mm_narrow.max() > mm_wide.max()


def test_single_user_solution_fields():
    scn = _scenario()
    link = LinkModel(scn)
    user = np.array([6.0, 2.0, 0.0])
    sol = solve_single_user(user, link)
    x_star, d_star = optimal_position(user, link.wg, scn.alpha_a)
    assert sol.x_star == x_star and 0 <= sol.x_star <= 6.0
    assert d_star >= 0
    aim = optimal_orientation([x_star, link.wg.axis_y, link.wg.axis_z], user)
    assert (sol.pitch, sol.roll) == (aim.pitch, aim.roll)


def test_link_math_batched_over_users():
    # a (K, 3) array of users gives the per-user results of the scalar
    # calls, element by element
    scn = _scenario()
    link, wg = LinkModel(scn), scn.waveguides[0]
    rng = np.random.default_rng(17)
    users = np.column_stack([rng.uniform(0, 10, 50), rng.uniform(0, 6, 50),
                             np.zeros(50)])
    xs = rng.uniform(0, 10, 50)
    x_batch, d_batch = optimal_position(users, wg, scn.alpha_a)
    gains = {q: link.gain(q, xs, users) for q in (1, 2)}
    for k, user in enumerate(users):
        assert (x_batch[k], d_batch[k]) == optimal_position(user, wg,
                                                             scn.alpha_a)
        for q in (1, 2):
            assert gains[q][k] == pytest.approx(link.gain(q, xs[k], user),
                                                rel=1e-14)
