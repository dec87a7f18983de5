import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from mmpass import multiuser
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.multiuser import (AssignmentMatrix, _SlotSolver,
                              _enforce_min_spacing, _power_multiplier,
                              fp_precoding, group_users, hungarian_assign,
                              optimize_scenario, parse_scheme)
from mmpass.placement import power_split
from mmpass.radiation import PortResponse
from oracles import fp_precoding_g

SIGMA = 10.0 ** -2.6


# ---------------------------------------------------------------------------
# grouping

def test_grouping_adjacent_pairs_on_one_guide():
    users = np.array([[1, 3, 0], [2, 3, 0], [8, 3, 0], [9, 3, 0]], float)
    g = group_users(users, [3.0])
    assert sorted(tuple(sorted(p)) for p in g.groups) == [(0, 1), (2, 3)]


def test_grouping_respects_nearest_waveguide():
    users = np.array([[5, 1.2, 0], [5, 4.8, 0], [6, 1.4, 0], [6, 4.6, 0]],
                     float)
    g = group_users(users, [1.5, 4.5])
    assert sorted(tuple(sorted(p)) for p in g.groups) == [(0, 2), (1, 3)]


def test_grouping_odd_count_leaves_singleton():
    users = np.array([[1, 3, 0], [2, 3, 0], [8, 3, 0]], float)
    g = group_users(users, [3.0])
    sizes = sorted(len(p) for p in g.groups)
    assert sizes == [1, 2]
    assert set(k for p in g.groups for k in p) == {0, 1, 2}


def test_grouping_singletons_mode():
    users = np.array([[4, 1, 0], [2, 1, 0], [3, 5, 0]], float)
    g = group_users(users, [1.5, 4.5], q=1)
    assert all(len(p) == 1 for p in g.groups)
    # waveguide-major, sorted along x within each guide
    assert [p[0] for p in g.groups] == [1, 0, 2]


def _pairing_cost(users, pairing):
    return sum(float(np.sum((users[a, :2] - users[b, :2]) ** 2))
               for a, b in pairing)


def _exhaustive_pairing_cost(users):
    k = len(users)
    ids = list(range(k))
    best = np.inf
    for pairing in _pairings(ids):
        best = min(best, _pairing_cost(users, pairing))
    return best


def _pairings(ids):
    if not ids:
        yield []
        return
    first, rest = ids[0], ids[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _pairings(remaining):
            yield [(first, partner)] + tail


def test_grouping_near_optimal_cost():
    # heuristic grouping within 1.25x of the exhaustive optimum
    ys = [1.5, 4.5]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        users = np.column_stack([rng.uniform(0, 10, 6), rng.uniform(0, 6, 6),
                                 np.zeros(6)])
        g = group_users(users, ys)
        best = _exhaustive_pairing_cost(users)
        assert g.cost <= 1.25 * best + 1e-9, f"seed {seed}"


def test_grouping_large_pool_is_not_enumerated(monkeypatch):
    # one user under each guide pools every user; past eight the pool is
    # paired along x and refined by 2-opt instead of enumerated
    sizes = []
    pairings = multiuser._pairings

    def counting(ids):
        sizes.append(len(ids))
        assert len(ids) <= 8, f"{len(ids)} ids enumerated"
        return pairings(ids)

    monkeypatch.setattr(multiuser, "_pairings", counting)
    rng = np.random.default_rng(4)
    for n_guides, n_pairs in ((16, 8), (15, 7)):
        ys = 6.0 * (np.arange(n_guides) + 0.5) / n_guides
        users = np.column_stack([rng.uniform(0, 10, n_guides), ys,
                                 np.zeros(n_guides)])
        g = group_users(users, ys)
        assert sorted(k for p in g.groups for k in p) == list(range(n_guides))
        assert sum(len(p) == 2 for p in g.groups) == n_pairs
        assert len(g.groups) == n_guides - n_pairs
    # a pool of eight (two guides hold a pair each) is still enumerated
    ys = 6.0 * (np.arange(10) + 0.5) / 10
    users = np.column_stack([rng.uniform(0, 10, 12),
                             np.concatenate([ys, ys[:2]]), np.zeros(12)])
    group_users(users, ys)
    assert max(sizes) == 8


def test_grouping_partitions_everyone():
    rng = np.random.default_rng(5)
    users = np.column_stack([rng.uniform(0, 10, 11), rng.uniform(0, 6, 11),
                             np.zeros(11)])
    g = group_users(users, [1.0, 3.0, 5.0])
    flat = sorted(k for p in g.groups for k in p)
    assert flat == list(range(11))


# ---------------------------------------------------------------------------
# Hungarian assignment

def test_hungarian_two_by_two():
    a = hungarian_assign(np.array([[5.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(a.x, np.eye(2, dtype=np.int8))


def test_hungarian_rectangular_padding():
    table = np.array([[5.0, 1.0], [2.0, 3.0], [4.0, 4.0]])
    a = hungarian_assign(table)
    assert a.x.shape == (3, 2)
    assert a.x.sum() == 2  # one element stays unmatched
    assert np.all(a.x.sum(axis=0) == 1)


def test_hungarian_matches_brute_force():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 7))
        table = rng.uniform(0, 10, size=(size, size))
        a = hungarian_assign(table)
        total = float((table * a.x).sum())
        best = max(sum(table[i, p[i]] for i in range(size))
                   for p in itertools.permutations(range(size)))
        assert abs(total - best) < 1e-9, f"seed {seed}"


def test_assignment_matrix_validation():
    with pytest.raises(ValueError):
        AssignmentMatrix(np.array([[0, 2]]))


# ---------------------------------------------------------------------------
# rate table and greedy fill

def _pair_scenario(users, m=1, n=1):
    cfg = ScenarioConfig(num_waveguides=m, pas_per_waveguide=n,
                         num_users=len(users))
    return build_scenario(cfg, users=np.asarray(users, float))


def _candidate(solver, i, j):
    """Element i's deployment for group j: its guide's row of the
    solver's arrays."""
    m, size = solver.guide[i], len(solver.groups[j])
    return SimpleNamespace(users=tuple(solver.users[m, j, :size].tolist()),
                           x=solver.x[m, j], orientations=solver.aims[m][j],
                           rx_world=solver.rx[m, j, :size],
                           gains=solver.gains[m, j, :size])


def _oracle_cross(solver, i2, j2, i, j):
    """Interference power of element i2 serving group j2 on each slot of
    candidate (i, j), recomputed port by port from the source's
    noise-only splits."""
    scn = solver.scenario
    src, cand = _candidate(solver, i2, j2), _candidate(solver, i, j)
    if i2 == i:
        return [0.0 for _ in cand.users]
    wg = scn.waveguides[solver.guide[i2]]
    splits = _oracle_splits(scn, src, [scn.noise[k] for k in src.users])
    totals = [0.0 for _ in cand.users]
    for q in range(len(src.users)):
        resp = PortResponse(scn.med, scn.modes[q], wg,
                            np.array([src.x, wg.axis_y, wg.axis_z]),
                            src.orientations[q], scn.users)
        h_pu = (scn.port_gains[q] * resp.pattern
                * np.exp(-0.5 * scn.alpha_a * resp.r))
        h_wp_sq = np.exp(-wg.alpha_w * src.x) / wg.num_pas
        for s, k in enumerate(cand.users):
            totals[s] += (scn.power * splits[q]
                          * (cand.rx_world[s] @ resp.direction[k]) ** 2
                          * h_pu[k] ** 2 * h_wp_sq)
    return totals


def _oracle_splits(scn, cand, eff_noise):
    if len(cand.users) == 1:
        return (1.0,)
    return power_split(cand.gains[0], cand.gains[1], eff_noise[0],
                       eff_noise[1], scn.power)


def _oracle_objective(solver, x):
    """Sum of the assigned candidates' rates, each with the interference
    of every other assigned element added to its users' noise and its
    splits re-optimized for that effective noise."""
    scn = solver.scenario
    assigned = [(i, int(np.argmax(x[i]))) for i in range(x.shape[0])
                if x[i].any()]
    total = 0.0
    for i, j in assigned:
        cand = _candidate(solver, i, j)
        eff = [scn.noise[k] for k in cand.users]
        for i2, j2 in assigned:
            for s, p in enumerate(_oracle_cross(solver, i2, j2, i, j)):
                eff[s] += p
        splits = _oracle_splits(scn, cand, eff)
        for s in range(len(cand.users)):
            total += 0.5 * np.log2(1.0 + scn.power * splits[s]
                                   * cand.gains[s] / eff[s])
    return total


def _oracle_greedy(solver, assignment):
    """Greedy fill by from-scratch objective: best exact gain first,
    lowest index on ties."""
    x = assignment.x.copy()
    leftovers = [i for i in range(x.shape[0]) if not x[i].any()]
    while leftovers:
        base = _oracle_objective(solver, x)
        best = None
        for i in leftovers:
            for j in range(x.shape[1]):
                trial = x.copy()
                trial[i, j] = 1
                gain = _oracle_objective(solver, trial) - base
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, i, j)
        x[best[1], best[2]] = 1
        leftovers.remove(best[1])
    return x


def _random_solver(seed, m, n, k):
    rng = np.random.default_rng(seed)
    cfg = ScenarioConfig(num_waveguides=m, pas_per_waveguide=n, num_users=k)
    users = np.column_stack([rng.uniform(0, cfg.d_x, k),
                             rng.uniform(0, cfg.d_y, k), np.zeros(k)])
    scn = build_scenario(cfg, users=users)
    g = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    with warnings.catch_warnings():
        # close pairs warn that cross-mode interference is neglected
        warnings.simplefilter("ignore")
        return _SlotSolver(scn, g.groups)


def test_slot_solver_solves_each_guide_group_once(monkeypatch):
    calls = []
    solve = multiuser.two_user_shared_position

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(multiuser, "two_user_shared_position", counting)
    solver = _random_solver(11, m=2, n=3, k=7)
    pairs = sum(len(g) == 2 for g in solver.groups)
    assert pairs == 3
    # one batched call per guide, with both mode orders of every pair
    assert len(calls) == 2
    for m, (user1, user2, link, _, sigmas) in enumerate(calls):
        assert link.wg_index == m
        assert user1.shape == user2.shape == (2 * pairs, 3)
        assert sigmas[0].shape == sigmas[1].shape == (2 * pairs,)
        assert np.array_equal(user1[:pairs], user2[pairs:])
        assert np.array_equal(user2[:pairs], user1[pairs:])
    # one row per (guide, group), which every element of the guide reads
    assert np.array_equal(solver.guide, [0, 0, 0, 1, 1, 1])
    for table in (solver.users, solver.gains, solver.noise, solver.rx,
                  solver.splits, solver.x):
        assert table.shape[:2] == (2, len(solver.groups))
    table = solver.rate_table()
    assert table.shape == (6, len(solver.groups))
    assert np.array_equal(table, table[::3][solver.guide])


def test_rate_table_single_entry_matches_pair_solver():
    scn = _pair_scenario([[4.0, 3.0, 0.0], [6.5, 3.0, 0.0]])
    g = group_users(scn.users, [3.0])
    solver = _SlotSolver(scn, g.groups)
    table = solver.rate_table()
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(
        _oracle_objective(solver, np.ones((1, 1), dtype=np.int8)), rel=1e-12)
    from mmpass.placement import LinkModel, two_user_shared_position
    link = LinkModel(scn)
    sol = two_user_shared_position(scn.users[0], scn.users[1], link,
                                   scn.power, (SIGMA, SIGMA))
    # table entry picks the better of the two mode orderings
    assert table[0, 0] >= sol.sum_rate - 1e-9


def _element_row(solver, cross, i, j):
    """Interference of element i serving group j on every (element,
    group) candidate: its guide's row, zero on its own candidates."""
    row = cross[solver.guide[i], j][solver.guide]
    row[i] = 0.0
    return row


def test_rate_table_interference_lowers_entries():
    scn = _pair_scenario([[2.0, 2.0, 0.0], [3.5, 2.0, 0.0],
                          [6.5, 4.0, 0.0], [8.0, 4.0, 0.0]],
                         m=2, n=1)
    g = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    solver = _SlotSolver(scn, g.groups)
    empty = solver.rate_table()
    cross = solver.cross_table()
    # second element actively serving the far pair
    loaded = solver._rate(solver.guide, np.s_[:],
                          _element_row(solver, cross, 1, 1))
    assert loaded[0, 0] < empty[0, 0]
    # an element does not interfere with its own candidates
    assert np.array_equal(loaded[1], empty[1])
    both = solver._rate(solver.guide, np.s_[:],
                        _element_row(solver, cross, 0, 0)
                        + _element_row(solver, cross, 1, 1))
    x = np.array([[1, 0], [0, 1]], dtype=np.int8)
    assert both[0, 0] + both[1, 1] == pytest.approx(
        _oracle_objective(solver, x), rel=1e-12)


def test_cross_table_matches_oracle():
    # every pair of distinct elements, same guide and singleton slots
    # included, victims indexed in the candidate's own (possibly
    # reversed) order; the table holds one row per guide
    reversed_seen = 0
    for seed in range(4):
        solver = _random_solver(seed, m=2, n=2, k=5)
        cross = solver.cross_table()
        guide, n_grp = solver.guide, len(solver.groups)
        assert cross.shape == (2, n_grp, 2, n_grp, 2)
        for i in range(guide.size):
            for j in range(n_grp):
                cand = _candidate(solver, i, j)
                reversed_seen += cand.users != solver.groups[j]
                for i2 in range(guide.size):
                    if i2 == i:
                        continue
                    for j2 in range(n_grp):
                        want = _oracle_cross(solver, i2, j2, i, j)
                        want += [0.0] * (2 - len(want))
                        np.testing.assert_allclose(
                            cross[guide[i2], j2, guide[i], j], want,
                            rtol=1e-12, atol=0.0)
    assert reversed_seen > 0


def test_greedy_fill_assigns_all_elements():
    scn = _pair_scenario([[2.0, 2.0, 0.0], [3.0, 2.0, 0.0]], m=2, n=2)
    g = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    solver = _SlotSolver(scn, g.groups)
    a0 = hungarian_assign(solver.rate_table())
    filled = solver.greedy_fill(a0)
    assert np.all(filled.x.sum(axis=1) == 1)
    assert np.all(filled.x.sum(axis=0) >= 1)


def test_greedy_fill_prefers_larger_exact_gain():
    # one spare element, two pair candidates: the filled choice must
    # realize the larger from-scratch objective increment
    scn = _pair_scenario([[1.5, 2.8, 0.0], [2.5, 2.8, 0.0],
                          [7.0, 3.2, 0.0], [8.5, 3.2, 0.0]],
                         m=1, n=3)
    g = group_users(scn.users, [3.0])
    solver = _SlotSolver(scn, g.groups)
    a0 = hungarian_assign(solver.rate_table())
    filled = solver.greedy_fill(a0)
    spare = [i for i in range(3) if a0.x[i].sum() == 0]
    assert len(spare) == 1
    chosen = int(np.argmax(filled.x[spare[0]]))
    base = _oracle_objective(solver, a0.x)
    gains = []
    for j in range(2):
        trial = a0.x.copy()
        trial[spare[0], j] = 1
        gains.append(_oracle_objective(solver, trial) - base)
    assert chosen == int(np.argmax(gains))


def test_greedy_fill_matches_oracle_greedy():
    # multi-guide slots with spare elements, odd user counts included
    for seed, (m, n, k) in enumerate([(2, 3, 6), (2, 3, 5), (3, 2, 4),
                                      (2, 4, 7), (3, 3, 8), (2, 3, 4)]):
        solver = _random_solver(100 + seed, m, n, k)
        a0 = hungarian_assign(solver.rate_table())
        assert a0.x.sum() < solver.guide.size  # there are spares to place
        filled = solver.greedy_fill(a0)
        assert np.array_equal(filled.x, _oracle_greedy(solver, a0)), seed


def test_greedy_fill_without_spares_builds_no_table(monkeypatch):
    solver = _random_solver(7, m=2, n=1, k=4)
    a0 = hungarian_assign(solver.rate_table())

    def fail():
        raise AssertionError("interference table built with no spares")

    monkeypatch.setattr(solver, "cross_table", fail)
    assert np.array_equal(solver.greedy_fill(a0).x, a0.x)


# ---------------------------------------------------------------------------
# fractional programming

def _random_fp_instance(rng, k=None, qm=None, ports=None):
    k = k or int(rng.integers(2, 6))
    qm = qm or int(rng.integers(2, 7))
    ports = ports or int(rng.integers(k, 2 * k + 1))
    h = rng.normal(size=(k, qm)) + 1j * rng.normal(size=(k, qm))
    w_p = np.zeros((ports, k))
    for i in range(ports):
        w_p[i, int(rng.integers(0, k))] = rng.uniform(0.3, 1.0)
    return h, w_p


def test_fp_monotone_tight_and_feasible():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h, w_p = _random_fp_instance(rng)
        fact, trace, gaps = fp_precoding(h, w_p, 10.0, 1e-2,
                                         max_iter=60, track_tightness=True)
        assert np.all(np.diff(trace) >= -1e-9), f"seed {seed}"
        assert max(gaps) < 1e-9, f"seed {seed}"
        power_used = np.linalg.norm(fact.w) ** 2
        assert power_used <= 1.0 + 1e-9
        if fact.chi > 0:  # constraint active
            assert power_used >= 1.0 - 1e-6


def _fp_oracle_instance(rng):
    """A random FP instance with an unserved user (a zero column of
    W_p), a port whose split is clipped to 0 (a zero row) and a port
    serving several users."""
    h, w_p = _random_fp_instance(rng, k=int(rng.integers(3, 7)),
                                 qm=int(rng.integers(2, 9)))
    w_p[:, 0] = 0.0
    w_p[1] = 0.0
    w_p[2, 1:] = rng.uniform(0.3, 1.0, w_p.shape[1] - 1)
    return h, w_p


def test_fp_matches_g_space_oracle():
    # the loop on W = G W_p is the G-space iteration: the same stop and
    # the same trace up to the multiplier's root tolerance, which the
    # warm start resolves to a different point within it
    converged = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        h, w_p = _fp_oracle_instance(rng)
        noise = 10.0 ** rng.uniform(-3, -1)
        fact, trace = fp_precoding(h, w_p, 10.0, noise)
        g, _, want = fp_precoding_g(h, w_p, 10.0, noise)
        assert fact.iterations == len(trace) == len(want), seed
        np.testing.assert_allclose(trace, want, rtol=1e-9, atol=0.0,
                                   err_msg=f"seed {seed}")
        np.testing.assert_allclose(fact.w, g @ w_p, rtol=0.0, atol=1e-8,
                                   err_msg=f"seed {seed}")
        converged += fact.converged
    assert converged  # the tol rule, not only the cap, is compared


def _secular_oracle(lam, d, chi):
    """sum_i d_i / (lam_i + chi)^2 over the terms with lam_i + chi > 0."""
    live = lam + chi > 0
    return float(np.sum(d[live] / (lam[live] + chi) ** 2))


def _random_spectrum(rng):
    n = int(rng.integers(1, 25))
    lam = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3)
    lam[rng.random(n) < 0.3] = 0.0
    d = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-4, 4, n)
    d[rng.random(n) < 0.2] = 0.0
    return lam, d


def test_power_multiplier_matches_brentq(monkeypatch):
    evaluations = []
    secular = multiuser._secular

    def counting(*args):
        evaluations.append(args)
        return secular(*args)

    monkeypatch.setattr(multiuser, "_secular", counting)
    solved = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        lam, d = _random_spectrum(rng)
        if _secular_oracle(lam, d, 0.0) <= 1.0 + 1e-12:
            assert _power_multiplier(lam, d) == 0.0, seed
            continue
        hi = 1.0
        while _secular_oracle(lam, d, hi) > 1.0:
            hi *= 2.0
        root = brentq(lambda c: _secular_oracle(lam, d, c) - 1.0, 0.0, hi,
                      xtol=1e-300, rtol=1e-15)
        slope = 2.0 * np.sum(d / (lam + root) ** 3)
        live = d > 0
        lo_b = max(np.sqrt(d.sum()) - lam[live].max(), 0.0)
        hi_b = np.sqrt(d.sum()) - lam[live].min()
        # Newton from the upper end (the default), from inside the
        # bracket, from the root and from beyond the bracket (which
        # falls back to the upper end)
        starts = {"default": 0.0, "inside": rng.uniform(lo_b, hi_b),
                  "root": root, "outside": 2.0 * hi_b + 1.0}
        for name, start in starts.items():
            before = len(evaluations)
            chi = _power_multiplier(lam, d, start)
            where = (seed, name)
            assert chi > 0.0, where
            assert abs(_secular_oracle(lam, d, chi) - 1.0) <= 1e-10, where
            assert abs(chi - root) <= 1.1e-10 / slope + 1e-14 * root, where
            if name == "root":
                assert len(evaluations) == before + 1, seed
            solved += 1
    assert solved > 400
    # Newton on f^(-1/2) takes a few evaluations of f per root (2.6 on
    # these spectra from either end or inside, 1 from the root); Newton
    # on f itself would take about 25
    assert len(evaluations) <= 4 * solved


def test_power_multiplier_zero_eigenvalues():
    # f(0) leaves out the lam = 0 terms (the pseudo-inverse solution);
    # for chi > 0 they count, so d = 5 on lam = 0 sets the root
    assert _power_multiplier(np.array([0.0, 2.0]), np.array([5.0, 1.0])) == 0.0
    lam, d = np.array([0.0, 0.0, 0.5]), np.array([0.3, 0.0, 4.0])
    chi = _power_multiplier(lam, d)
    assert _secular_oracle(lam, d, chi) == pytest.approx(1.0, abs=1e-10)


def test_power_multiplier_below_budget_at_zero():
    lam = np.array([3.0, 4.0, 10.0])
    assert _power_multiplier(lam, np.array([1.0, 2.0, 50.0])) == 0.0
    assert _power_multiplier(lam, np.zeros(3)) == 0.0


def test_power_multiplier_single_term_in_one_step(monkeypatch):
    calls = []
    secular = multiuser._secular

    def counting(*args):
        calls.append(args)
        return secular(*args)

    monkeypatch.setattr(multiuser, "_secular", counting)
    for lam0, d0 in ((1e-3, 4.0), (0.5, 9.0), (2.0, 1e4)):
        # the other terms carry no power
        lam = np.array([lam0, 0.1, 7.0])
        d = np.array([d0, 0.0, 0.0])
        calls.clear()
        chi = _power_multiplier(lam, d)
        assert chi == pytest.approx(np.sqrt(d0) - lam0, rel=1e-14)
        assert len(calls) <= 2  # at most one Newton step


def test_fp_reports_iterations_and_convergence():
    rng = np.random.default_rng(33)
    h = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
    fact, trace = fp_precoding(h, np.array([[1.0], [0.0]]), 10.0, 1e-2)
    assert fact.iterations == len(trace) < 200
    assert fact.converged
    h, w_p = _random_fp_instance(np.random.default_rng(0))
    capped, trace = fp_precoding(h, w_p, 10.0, 1e-2, max_iter=5)
    assert capped.iterations == len(trace) == 5
    assert not capped.converged
    assert abs(trace[-1] - trace[-2]) >= 1e-6


def test_fp_single_user_matched_filter():
    rng = np.random.default_rng(33)
    h = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
    w_p = np.zeros((2, 1))
    w_p[0, 0] = 1.0
    fact, trace = fp_precoding(h, w_p, 10.0, 1e-2)
    expected = 0.5 * np.log2(1 + 10.0 * np.linalg.norm(h) ** 2 / 1e-2)
    assert trace[-1] == pytest.approx(expected, abs=1e-6)


def test_fp_rejects_bad_noise():
    with pytest.raises(ValueError):
        fp_precoding(np.ones((1, 1), dtype=complex), np.ones((1, 1)), 1.0,
                     0.0)


# ---------------------------------------------------------------------------
# scheme pipeline

@pytest.fixture(scope="module")
def nominal_results():
    cfg = ScenarioConfig(num_waveguides=2, pas_per_waveguide=2,
                         num_users=8, seed=9)
    scn = build_scenario(cfg)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for scheme in ("pa-mm", "pi-mm", "dp-mm", "pa-sm", "pi-sm"):
            out[scheme] = optimize_scenario(scn, scheme)
    return out


def test_scheme_polarization_ordering(nominal_results):
    assert (nominal_results["pa-mm"].report.sum_rate
            >= nominal_results["pi-mm"].report.sum_rate - 1e-9)
    assert (nominal_results["pa-sm"].report.sum_rate
            >= nominal_results["pi-sm"].report.sum_rate - 1e-9)


def test_scheme_multimode_gain(nominal_results):
    assert (nominal_results["pa-mm"].report.sum_rate
            >= nominal_results["pa-sm"].report.sum_rate)


def test_scheme_discrete_close_to_continuous(nominal_results):
    pa = nominal_results["pa-mm"].report.sum_rate
    dp = nominal_results["dp-mm"].report.sum_rate
    assert dp <= pa + 1e-9
    assert dp >= 0.9 * pa


def test_scheme_traces_nondecreasing(nominal_results):
    for res in nominal_results.values():
        assert np.all(np.diff(res.trace) >= -1e-9)


def test_scheme_all_users_reported(nominal_results):
    for res in nominal_results.values():
        assert res.report.per_user_rate.shape == (8,)
        assert np.all(res.report.per_user_rate >= 0)
        assert res.report.sum_rate == pytest.approx(
            res.report.per_user_rate.sum())


def test_single_mode_uses_time_slots(nominal_results):
    res = nominal_results["pa-sm"]
    assert len(res.slots) == 2
    served = np.concatenate([s.user_indices for s in res.slots])
    assert sorted(served.tolist()) == list(range(8))


def test_parse_scheme_variants():
    assert parse_scheme("PA-MMPASS").name == "PA-MM"
    assert parse_scheme("pi_sm").name == "PI-SM"
    with pytest.raises(ValueError):
        parse_scheme("xx-yy")


# ---------------------------------------------------------------------------
# element spacing

LAMBDA_HALF = 1.5e-3


def test_min_spacing_at_guide_end():
    out = _enforce_min_spacing({0: 9.9995, 1: 9.9999, 2: 10.0},
                               LAMBDA_HALF, 10.0)
    xs = sorted(out.values())
    assert xs[-1] <= 10.0
    assert min(np.diff(xs)) >= LAMBDA_HALF - 1e-12


def test_min_spacing_properties():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        length = rng.uniform(0.005, 10.0)
        n = int(rng.integers(1, min(8, int(length // LAMBDA_HALF)) + 1))
        # crowd the elements, often against either end of the guide
        anchor = rng.choice([0.0, length, rng.uniform(0.0, length)])
        xs = np.clip(anchor + rng.normal(0.0, 2 * LAMBDA_HALF, n), 0.0, length)
        out = _enforce_min_spacing(dict(enumerate(xs)), LAMBDA_HALF, length)
        placed = np.array(sorted(out.values()))
        assert placed[0] >= 0.0 and placed[-1] <= length
        assert np.all(np.diff(placed) >= LAMBDA_HALF - 1e-12)
        # an already valid layout comes back unchanged (1 nm of margin
        # keeps rounding from making it invalid)
        pitch = LAMBDA_HALF + 1e-9
        spare = length - (n - 1) * pitch - 1e-9
        steps = np.diff(np.sort(rng.uniform(0.0, spare, n + 1)))
        valid = np.cumsum(steps) + pitch * np.arange(n)
        valid = dict(enumerate(rng.permutation(valid)))
        assert _enforce_min_spacing(valid, LAMBDA_HALF, length) == valid
