import gc
import itertools
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq, linear_sum_assignment

from mmpass import channel, multiuser, radiation
from mmpass.config import ScenarioConfig, build_scenario
from mmpass.multiuser import (AssignmentMatrix, _SlotSolver,
                              _enforce_min_spacing, _power_multiplier,
                              fp_precoding, group_users, hungarian_assign,
                              optimize_scenario)
from mmpass.geometry import Orientation
from mmpass.placement import (LinkModel, power_split, solve_single_user,
                              two_user_shared_position)
from mmpass.polarization import receive_polarization
from mmpass.radiation import PortResponse
from mmpass.scenario import parse_scheme
from oracles import fp_precoding_g

SIGMA = 10.0 ** -2.6


# ---------------------------------------------------------------------------
# grouping

def test_grouping_adjacent_pairs_on_one_guide():
    users = np.array([[1, 3, 0], [2, 3, 0], [8, 3, 0], [9, 3, 0]], float)
    groups = group_users(users, [3.0])
    assert sorted(tuple(sorted(p)) for p in groups) == [(0, 1), (2, 3)]


def test_grouping_respects_nearest_waveguide():
    users = np.array([[5, 1.2, 0], [5, 4.8, 0], [6, 1.4, 0], [6, 4.6, 0]],
                     float)
    groups = group_users(users, [1.5, 4.5])
    assert sorted(tuple(sorted(p)) for p in groups) == [(0, 2), (1, 3)]


def test_grouping_odd_count_leaves_singleton():
    users = np.array([[1, 3, 0], [2, 3, 0], [8, 3, 0]], float)
    groups = group_users(users, [3.0])
    sizes = sorted(len(p) for p in groups)
    assert sizes == [1, 2]
    assert set(k for p in groups for k in p) == {0, 1, 2}


def _pairing_cost(users, groups):
    """Sum of the squared (x, y) distances inside the pairs of
    ``groups``; singletons cost nothing."""
    return sum(float(np.sum((users[g[0], :2] - users[g[1], :2]) ** 2))
               for g in groups if len(g) == 2)


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
        cost = _pairing_cost(users, group_users(users, ys))
        best = _exhaustive_pairing_cost(users)
        assert cost <= 1.25 * best + 1e-9, f"seed {seed}"


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
        groups = group_users(users, ys)
        assert sorted(k for p in groups for k in p) == list(range(n_guides))
        assert sum(len(p) == 2 for p in groups) == n_pairs
        assert len(groups) == n_guides - n_pairs
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
    groups = group_users(users, [1.0, 3.0, 5.0])
    flat = sorted(k for p in groups for k in p)
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


def _scipy_assignment(table):
    """The assignment scipy's solver makes on ``table``, zero-padded
    square, with the dummy matches stripped."""
    n_pa, n_grp = table.shape
    size = max(n_pa, n_grp)
    padded = np.zeros((size, size))
    padded[:n_pa, :n_grp] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    x = np.zeros(table.shape, dtype=np.int8)
    live = (rows < n_pa) & (cols < n_grp)
    x[rows[live], cols[live]] = 1
    return x


def _guide_rows(rng, size):
    """A guide's table: each guide's N element rows repeat its group
    rates, and the live group columns are zero-padded square."""
    n_pas = int(rng.integers(1, size + 1))
    guides = -(-size // n_pas)
    live = int(rng.integers(1, size + 1))
    rates = rng.uniform(0.0, 10.0, size=(guides, live))
    table = np.zeros((size, size))
    table[:, :live] = np.repeat(rates, n_pas, axis=0)[:size]
    return table


TABLE_KINDS = ("gaussian", "small-integers", "zeros", "guide-rows")


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_hungarian_takes_scipys_choice_on_square_tables(kind):
    # the same column for every row, ties included, on 500 tables of
    # each kind with sizes 1 to 20
    rng = np.random.default_rng(TABLE_KINDS.index(kind))
    for trial in range(500):
        size = int(rng.integers(1, 21))
        if kind == "gaussian":
            table = rng.normal(size=(size, size))
        elif kind == "small-integers":
            table = rng.integers(0, 3, size=(size, size)).astype(float)
        elif kind == "zeros":
            table = np.zeros((size, size))
        else:
            table = _guide_rows(rng, size)
        assert np.array_equal(hungarian_assign(table).x,
                              _scipy_assignment(table)), f"trial {trial}"


def test_hungarian_takes_scipys_choice_on_rectangular_tables():
    rng = np.random.default_rng(7)
    for trial in range(200):
        shape = tuple(int(s) for s in rng.integers(1, 17, size=2))
        table = rng.integers(0, 3, size=shape).astype(float)
        if trial % 2:
            table = rng.uniform(0.0, 10.0, size=shape)
        assert np.array_equal(hungarian_assign(table).x,
                              _scipy_assignment(table)), f"trial {trial}"


def test_hungarian_takes_scipys_choice_at_16x8_scale():
    # 16 guides x 8 elements serving 64 groups: equal rows per guide
    rng = np.random.default_rng(16)
    rates = rng.uniform(0.0, 10.0, size=(16, 64))
    table = np.repeat(rates, 8, axis=0)
    a = hungarian_assign(table)
    assert a.x.shape == (128, 64)
    assert np.array_equal(a.x, _scipy_assignment(table))


def test_assignment_matrix_validation():
    with pytest.raises(ValueError):
        AssignmentMatrix(np.array([[0, 2]]))


# ---------------------------------------------------------------------------
# rate table and greedy fill

def _pair_scenario(users, m=1, n=1):
    cfg = ScenarioConfig(num_waveguides=m, pas_per_waveguide=n,
                         num_users=len(users))
    return build_scenario(cfg, users=np.asarray(users, float))


def _port_aims(solver, m, j):
    """Orientations of candidate (m, j)'s ports, one per mode."""
    return tuple(Orientation(pitch=float(solver.aims.pitch[m, j, q]),
                             roll=float(solver.aims.roll[m, j, q]))
                 for q in range(solver.scenario.num_modes))


def _candidate(solver, i, j):
    """Element i's deployment for group j: its guide's row of the
    solver's arrays."""
    m, size = solver.guide[i], len(solver.groups[j])
    return SimpleNamespace(users=tuple(solver.users[m, j, :size].tolist()),
                           x=solver.x[m, j],
                           orientations=_port_aims(solver, m, j),
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
        h_pu = resp.pattern * np.exp(-0.5 * scn.alpha_a * resp.r)
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
    groups = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    with warnings.catch_warnings():
        # close pairs warn that cross-mode interference is neglected
        warnings.simplefilter("ignore")
        return _SlotSolver(scn, groups)


def test_slot_solver_solves_each_guide_group_once(monkeypatch):
    calls = []
    solve = multiuser.two_user_shared_position

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(multiuser, "two_user_shared_position", counting)
    solver = _random_solver(11, m=2, n=3, k=7)
    scn = solver.scenario
    pairs = sum(len(g) == 2 for g in solver.groups)
    assert pairs == 3
    # one call per slot: every guide, both mode orders of every pair,
    # each lane's users relative to its own guide's axis
    assert len(calls) == 1
    user1, user2, link, _, sigmas = calls[0]
    assert (link.wg.axis_y, link.wg.axis_z) == (0.0, scn.waveguides[0].axis_z)
    assert user1.shape == user2.shape == (2 * 2 * pairs, 3)
    assert sigmas[0].shape == sigmas[1].shape == (2 * 2 * pairs,)
    for m, wg in enumerate(scn.waveguides):
        first, second = (u[m * 2 * pairs:(m + 1) * 2 * pairs] for u in
                         (user1, user2))
        assert np.array_equal(first[:pairs], second[pairs:])
        assert np.array_equal(second[:pairs], first[pairs:])
        own = [g for g in solver.groups if len(g) == 2]
        assert np.array_equal(first[:pairs] + [0.0, wg.axis_y, 0.0],
                              scn.users[[g[0] for g in own]])
    # one row per (guide, group), which every element of the guide reads
    assert np.array_equal(solver.guide, [0, 0, 0, 1, 1, 1])
    for table in (solver.users, solver.gains, solver.noise, solver.rx,
                  solver.splits, solver.x, solver.aims.pitch):
        assert table.shape[:2] == (2, len(solver.groups))
    table = solver.rate_table()
    assert table.shape == (6, len(solver.groups))
    assert np.array_equal(table, table[::3][solver.guide])


def test_slot_solver_lanes_match_per_guide_solves():
    # the slot-wide solve equals solving each guide on its own link in
    # world coordinates, lane for lane and bit for bit; only the serving
    # gains are compared to a tolerance, because the one-user oracle
    # squares a numpy scalar through libm pow (off by 1 ulp in about one
    # value per thousand)
    solver = _random_solver(5, m=3, n=3, k=9)
    scn = solver.scenario
    for m, wg in enumerate(scn.waveguides):
        link = LinkModel(scn, wg)
        for j, group in enumerate(solver.groups):
            order = solver.users[m, j, :len(group)]
            assert sorted(order) == sorted(group)
            if len(group) == 2:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sol = two_user_shared_position(
                        *scn.users[order], link, scn.power,
                        tuple(scn.noise[order]))
                aims = sol.orientations
            else:
                sol = solve_single_user(scn.users[order[0]], link)
                aims = (Orientation(sol.pitch, sol.roll), Orientation())
            assert solver.x[m, j] == sol.x_star
            assert _port_aims(solver, m, j) == aims
            for s, k in enumerate(order):
                center = np.array([sol.x_star, wg.axis_y, wg.axis_z])
                e_dir = PortResponse(scn.med, scn.modes[s], wg, center,
                                     aims[s], scn.users[k]).direction[0]
                assert np.array_equal(solver.rx[m, j, s], receive_polarization(
                    "matched", e_dir, scn.users[k], center))
                assert solver.gains[m, j, s] == pytest.approx(
                    link.gain(s + 1, sol.x_star, scn.users[k]), rel=1e-15)


def test_rate_table_single_entry_matches_pair_solver():
    scn = _pair_scenario([[4.0, 3.0, 0.0], [6.5, 3.0, 0.0]])
    groups = group_users(scn.users, [3.0])
    solver = _SlotSolver(scn, groups)
    table = solver.rate_table()
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(
        _oracle_objective(solver, np.ones((1, 1), dtype=np.int8)), rel=1e-12)
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
    groups = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    solver = _SlotSolver(scn, groups)
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


@pytest.fixture(scope="module")
def solver_16x4_96():
    return _random_solver(1, m=16, n=4, k=96)


def test_cross_table_blocks_equal_one_block(monkeypatch, solver_16x4_96):
    # 16 source guides of 48 groups at 96 users split into six blocks
    solver = solver_16x4_96
    n_wg, n_grp = solver.x.shape
    row_points = n_grp * solver.scenario.num_users
    assert len(list(radiation.row_blocks(n_wg, row_points))) == 6
    blocked = solver.cross_table()
    monkeypatch.setattr(radiation, "_BLOCK_POINTS", n_wg * row_points)
    assert len(list(radiation.row_blocks(n_wg, row_points))) == 1
    assert np.array_equal(blocked, solver.cross_table())


def test_cross_table_memory_is_the_table_plus_a_block(solver_16x4_96):
    # the port responses of every source at once would take ~26 MB
    # around this 9.4 MB table
    tracemalloc.start()
    try:
        cross = solver_16x4_96.cross_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cross.nbytes + 8e6, peak


def test_greedy_fill_assigns_all_elements():
    scn = _pair_scenario([[2.0, 2.0, 0.0], [3.0, 2.0, 0.0]], m=2, n=2)
    groups = group_users(scn.users, [wg.axis_y for wg in scn.waveguides])
    solver = _SlotSolver(scn, groups)
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
    groups = group_users(scn.users, [3.0])
    solver = _SlotSolver(scn, groups)
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
        fact, trace = fp_precoding(h, w_p, 10.0, 1e-2, max_iter=60)
        assert np.all(np.diff(trace) >= -1e-9), f"seed {seed}"
        # the quadratic transform is tight at the auxiliary updates
        _, _, _, gaps = fp_precoding_g(h, w_p, 10.0, 1e-2, max_iter=60)
        assert max(gaps) < 1e-9, f"seed {seed}"
        power_used = np.linalg.norm(fact.w) ** 2
        assert power_used <= 1.0 + 1e-9
        if fact.chi > 0:  # constraint active
            assert power_used >= 1.0 - 1e-6


def _fp_oracle_instance(rng):
    """A random FP instance with an unserved user 0 (a zero column of
    W_p) and a port whose split is clipped to 0 (a zero row)."""
    h, w_p = _random_fp_instance(rng, k=int(rng.integers(3, 7)),
                                 qm=int(rng.integers(2, 9)))
    w_p[:, 0] = 0.0
    w_p[1] = 0.0
    return h, w_p


def test_fp_matches_g_space_oracle():
    # the loop on W = G W_p is the G-space iteration: the same stop and
    # the same trace up to the multiplier's root tolerance, which the
    # warm start resolves to a different point within it.  Each instance
    # runs at the default cap, where some converge, and at a cap of 1
    # to 6, where each stops at the cap.
    converged = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        h, w_p = _fp_oracle_instance(rng)
        noise = 10.0 ** rng.uniform(-3, -1)
        for max_iter in (200, 1 + seed % 6):
            where = f"seed {seed}, max_iter {max_iter}"
            fact, trace = fp_precoding(h, w_p, 10.0, noise, max_iter=max_iter)
            g, _, want, _ = fp_precoding_g(h, w_p, 10.0, noise,
                                           max_iter=max_iter)
            assert fact.iterations == len(trace) == len(want), where
            np.testing.assert_allclose(trace, want, rtol=1e-9, atol=0.0,
                                       err_msg=where)
            np.testing.assert_allclose(fact.w, g @ w_p, rtol=0.0, atol=1e-8,
                                       err_msg=where)
            if max_iter < 200:
                assert not fact.converged, where
                assert fact.iterations == max_iter, where
            converged += fact.converged
    assert converged  # the tol rule, not only the cap, is compared


def test_fp_at_zero_and_one_iteration():
    # no iteration leaves the normalized matched-filter start, unscored;
    # one iteration is scored once, on the precoder it returns
    for seed in range(6):
        rng = np.random.default_rng(seed)
        h, w_p = _fp_oracle_instance(rng)
        noise = 10.0 ** rng.uniform(-3, -1)
        start, trace = fp_precoding(h, w_p, 10.0, noise, max_iter=0)
        g0, chi0, want, _ = fp_precoding_g(h, w_p, 10.0, noise, max_iter=0)
        assert trace.shape == want.shape == (0,), seed
        assert start.iterations == 0 and not start.converged, seed
        assert start.chi == chi0 == 0.0, seed
        np.testing.assert_allclose(start.w, g0 @ w_p, rtol=0.0, atol=1e-15)
        assert np.linalg.norm(start.w) == pytest.approx(1.0, rel=1e-12)
        assert not start.w[:, 0].any(), seed  # user 0 is unserved

        one, trace = fp_precoding(h, w_p, 10.0, noise, max_iter=1)
        _, _, want, _ = fp_precoding_g(h, w_p, 10.0, noise, max_iter=1)
        assert one.iterations == len(trace) == len(want) == 1, seed
        assert not one.converged, seed
        np.testing.assert_allclose(trace, want, rtol=1e-9, atol=0.0)
        rates = channel.rate_report(h, one.w, 10.0, noise)
        assert trace[0] == pytest.approx(rates.sum_rate, rel=1e-12), seed
        assert not one.w[:, 0].any(), seed
        full, _ = fp_precoding(h, w_p, 10.0, noise)
        assert not full.w[:, 0].any(), seed


def test_fp_rejects_a_port_serving_two_users():
    # each port (row of W_p) serves one user, as the pipeline builds it
    h, w_p = _random_fp_instance(np.random.default_rng(4), k=3)
    w_p[0] = [0.5, 0.0, 0.7]
    with pytest.raises(ValueError, match="more than one user"):
        fp_precoding(h, w_p, 10.0, 1e-2)


def _dying_instance(seed):
    """K = 12 users on QM = 4 mode inputs, each on one port, the ports
    in random order as the pipeline's element rows are, so FP switches
    at least 8 streams off."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    rows = rng.permutation(12)
    w_p = np.zeros((12, 12))
    w_p[rows, np.arange(12)] = np.sqrt(rng.uniform(0.2, 0.8, 12))
    return h, w_p, 10.0 ** rng.uniform(-3, -1)


def test_fp_streams_that_leave_end_exactly_zero():
    # the live-user loop stops where the G-space oracle, which keeps
    # every user, stops, with the same trace; a user that left has an
    # exactly-zero W column and an exactly-zero rate
    for seed in range(12):
        where = f"seed {seed}"
        h, w_p, noise = _dying_instance(seed)
        fact, trace = fp_precoding(h, w_p, 10.0, noise)
        _, _, want, _ = fp_precoding_g(h, w_p, 10.0, noise)
        assert fact.iterations == len(trace) == len(want), where
        np.testing.assert_allclose(trace, want, rtol=1e-9, atol=0.0,
                                   err_msg=where)
        left = ~fact.w.any(axis=0)
        rates = channel.rate_report(h, fact.w, 10.0, noise).per_user_rate
        assert np.all(rates[left] == 0.0), where
        assert np.all(rates[~left] >= 0.0), where
        assert left.sum() == 12 - 4, where
        assert np.array_equal(left, rates == 0.0), where


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


SCHEMES = ("pa-mm", "pi-mm", "dp-mm", "pa-sm", "pi-sm")


def _spare_scenario(seed=4):
    # 2x3 elements for three pairs and a singleton: greedy fill places
    # two spares, and the singleton-only single-mode run takes two slots
    cfg = ScenarioConfig(num_waveguides=2, pas_per_waveguide=3,
                         num_users=7, seed=seed)
    return build_scenario(cfg)


def _run_schemes(scn_for):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {scheme: optimize_scenario(scn_for(scheme), scheme)
                for scheme in SCHEMES}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeling_users_keeps_every_sum_rate(seed):
    # the same floor with the users listed in another order: every
    # scheme's sum rate is unchanged up to rounding
    cfg = ScenarioConfig(seed=seed)
    scn = build_scenario(cfg)
    want = _run_schemes(lambda scheme: scn)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        order = rng.permutation(cfg.num_users)
        relabeled = build_scenario(cfg, users=scn.users[order])
        got = _run_schemes(lambda scheme: relabeled)
        for scheme in SCHEMES:
            assert got[scheme].report.sum_rate == pytest.approx(
                want[scheme].report.sum_rate, rel=1e-12, abs=0), scheme


def test_schemes_on_one_scenario_match_their_own_runs():
    scn = _spare_scenario()
    shared = _run_schemes(lambda scheme: scn)
    alone = _run_schemes(lambda scheme: replace(scn))
    for scheme in SCHEMES:
        a, b = shared[scheme], alone[scheme]
        assert np.array_equal(a.report.per_user_rate,
                              b.report.per_user_rate), scheme
        assert np.array_equal(a.trace, b.trace), scheme
        assert len(a.slots) == len(b.slots)
        for sa, sb in zip(a.slots, b.slots):
            assert np.array_equal(sa.assignment.x, sb.assignment.x), scheme
            assert sa.placements == sb.placements, scheme
    # the schemes of one mode count share the deployment
    for group in (("pa-mm", "pi-mm", "dp-mm"), ("pa-sm", "pi-sm")):
        for scheme in group[1:]:
            for s0, s1 in zip(shared[group[0]].slots, shared[scheme].slots):
                assert s1.assignment is s0.assignment
    assert len(shared["pa-mm"].slots) == 1
    assert len(shared["pa-sm"].slots) == 2
    assert shared["pa-mm"].slots[0].assignment.x.sum() == 6  # spares placed


def _deployed_factors(scn, slot, num_modes):
    """The slot's scenario and a fresh ``channel.port_factors`` on the
    element arrays of its placement records."""
    slot_scn = replace(scn.with_modes(num_modes),
                       users=scn.users[slot.user_indices],
                       noise=scn.noise[slot.user_indices])
    x = np.array([[pa.x_position for pa in row] for row in slot.placements])
    angles = np.array([[[(o.pitch, o.roll) for o in pa.orientations]
                        for pa in row] for row in slot.placements])
    assert angles.shape == x.shape + (num_modes, 2)
    aims = Orientation(pitch=angles[..., 0], roll=angles[..., 1])
    return slot_scn, channel.port_factors(slot_scn, x, aims)


def _serving_ports(w_p):
    """Each served user's lowest serving port, slot-local user id ->
    row: the first nonzero row of its W_p column, found by a row-major
    scan."""
    ports = {}
    for row, col in zip(*np.nonzero(w_p)):
        ports.setdefault(int(col), int(row))
    return ports


@pytest.mark.parametrize("scheme", SCHEMES)
def test_slot_channel_is_the_composition_on_the_deployed_slot(scheme,
                                                              monkeypatch):
    # the channel a scheme composes from its deployment's port factors
    # is, bit for bit, a fresh composition on the slot's users and the
    # element arrays of its placement records, and the slot keeps the
    # mask it was composed with
    built = []
    assemble = channel.assemble

    def recording(factors, rx):
        assert not factors.h_pu.flags.writeable
        built.append(assemble(factors, rx))
        return built[-1]

    monkeypatch.setattr(channel, "assemble", recording)
    num_modes = parse_scheme(scheme).num_modes
    for seed in (4, 5, 6):
        scn = _spare_scenario(seed)
        built.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize_scenario(scn, scheme)
        assert len(built) == len(res.slots)
        for slot, cm in zip(res.slots, built):
            _, factors = _deployed_factors(scn, slot, num_modes)
            fresh = assemble(factors, slot.rx)
            assert np.array_equal(cm.h, fresh.h), (scheme, seed)
            assert np.array_equal(cm.lam, fresh.lam), (scheme, seed)
            assert slot.lam is cm.lam
            assert slot.iterations == len(slot.trace)
        if num_modes == 2:  # the spares are placed
            assert res.slots[0].assignment.x.sum() == 6


def test_matched_receive_vectors_follow_a_spaced_serving_element():
    # both pairs' candidates sit at the feed, x = 0, so spacing moves
    # one serving element to lambda0 / 2; the matched vectors read the
    # deployed ports, so every served user sees Lambda = 1 at its
    # serving port, not only where its candidate was
    cfg = ScenarioConfig(num_waveguides=1, pas_per_waveguide=2, num_users=4)
    scn = build_scenario(cfg, users=[[0.01, 1.0, 0.0], [0.03, 5.0, 0.0],
                                     [0.02, 2.0, 0.0], [0.04, 4.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slot = optimize_scenario(scn, "pa-mm").slots[0]
    assert sorted(pa.x_position for pa in slot.placements[0]) == [
        0.0, scn.med.wavelength0 / 2]
    ports = _serving_ports(multiuser._DEPLOYMENTS[scn][1][2][0].w_p)
    assert sorted(ports) == [0, 1, 2, 3]
    for k, port in ports.items():
        assert abs(slot.lam[k, port] - 1.0) <= 1e-12, k


@pytest.mark.parametrize("scheme", ["pa-mm", "pi-mm", "dp-mm"])
def test_receive_vectors_read_each_users_lowest_serving_port(scheme):
    # a drop of 16 users on 4x4 elements: greedy fill gives groups a
    # second element, so some users have two serving ports.  Each served
    # user's receive vector is the policy's on the field of the port of
    # its lowest W_p row and that element's center, both recomputed
    # from the placement records
    cfg = ScenarioConfig(pas_per_waveguide=4, num_users=16)
    xy = np.random.default_rng([202, 0]).uniform(
        [0.0, 0.0], [cfg.d_x, cfg.d_y], size=(16, 2))
    scn = build_scenario(cfg, users=np.column_stack([xy, np.zeros(16)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (slot,) = optimize_scenario(scn, scheme).slots
    w_p = multiuser._DEPLOYMENTS[scn][1][2][0].w_p
    assert (np.count_nonzero(w_p, axis=0) == 2).any()
    slot_scn, factors = _deployed_factors(scn, slot, 2)
    ports = _serving_ports(w_p)
    assert len(ports) == 16
    for k, port in ports.items():
        m, n = divmod(port // 2, slot_scn.num_pas)
        source = slot.placements[m][n].center(slot_scn.waveguides[m])
        want = receive_polarization(parse_scheme(scheme).rx_policy,
                                    factors.directions[k, port],
                                    slot_scn.users[k], source)
        assert np.array_equal(slot.rx[k], want), (scheme, k)


def test_one_deployment_per_scenario_and_mode_count(monkeypatch):
    calls = {"group": 0, "pair": 0, "single": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name, attr in (("group", "group_users"),
                       ("pair", "two_user_shared_position"),
                       ("single", "solve_single_user")):
        monkeypatch.setattr(multiuser, attr,
                            counting(name, getattr(multiuser, attr)))
    scn = _spare_scenario()
    results = _run_schemes(lambda scheme: scn)
    assert calls["group"] == 1
    # the multi-mode slot holds the pairs and the singleton, each
    # single-mode slot only singletons
    slots = len(results["pa-mm"].slots) + len(results["pa-sm"].slots)
    assert calls["pair"] == len(results["pa-mm"].slots) == 1
    assert calls["single"] == slots == 3


def test_one_result_cannot_change_another():
    scn = _spare_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = optimize_scenario(scn, "pa-mm")
        second = optimize_scenario(scn, "pi-mm")
        slot = first.slots[0]
        x = slot.assignment.x.copy()
        before = [list(row) for row in second.slots[0].placements]
        with pytest.raises(ValueError):
            slot.assignment.x[0, 0] = 1 - x[0, 0]
        with pytest.raises(ValueError):
            slot.user_indices[0] = 99
        with pytest.raises(FrozenInstanceError):
            slot.assignment.x = np.zeros_like(x)
        slot.placements[0][0] = replace(slot.placements[0][0],
                                        x_position=-1.0)
        assert second.slots[0].placements == before
        third = optimize_scenario(scn, "dp-mm")
    assert np.array_equal(second.slots[0].assignment.x, x)
    assert third.slots[0].placements == before


def test_deployment_cache_does_not_keep_its_scenario():
    scn = _spare_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        optimize_scenario(scn, "pa-sm")
    key = weakref.ref(scn)
    _, by_modes = multiuser._DEPLOYMENTS[scn]
    deployment = weakref.ref(by_modes[1][0])
    del scn, by_modes
    gc.collect()
    assert key() is None
    assert deployment() is None


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
