"""Welfare program at simulator sizes: the face search from one assignment
solve, and the VCG removal marginals, read from the core's two extreme
points, against per-removal solves.

Brute force stops at 8x8, so most checks compare against the LSA optimum, a
reference uniqueness check and per-removal solves instead: on seeded markets
from 10x10 up to the largest market of a default-scale run (59x31), with and
without co-located drivers. Co-located markets of at most 8x8 are also
checked against brute force.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from senseauction import assignment as asg
from senseauction import oracle, pricing
from senseauction.assignment import CandidateEdge, MatchingProblem
from senseauction.errors import ContractError
from senseauction.market import Rates
from senseauction.pricing import VCG, settle_epoch, vcg_prices
from senseauction.simengine import ScenarioConfig, run_scenario

RATES = Rates(alpha=1.5, beta=2.75)


def random_market(seed, n_d, n_r, colocated):
    """Valuations as build_candidates forms them, on random sites.

    With colocated, a third of the drivers share another driver's site, so
    their edges to a rider that is nearest for both carry equal welfare and
    pick-up distance: an exact tie that only the driver id can break.
    """
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 6.0, (n_d, 2))
    if colocated:
        k = n_d // 3
        sites[:k] = sites[rng.integers(k, n_d, k)]
    origins = rng.uniform(0.0, 6.0, (n_r, 2))
    tau = np.linalg.norm(sites[:, None, :] - origins[None, :, :], axis=2)
    near = tau <= 2.0
    tau_min_d = np.where(near, tau, np.inf).min(axis=1)
    tau_min_r = np.where(near, tau, np.inf).min(axis=0)
    b = rng.uniform(1.0, 2.0, n_d)
    delta = rng.uniform(1.0, 2.0, n_r)
    h = rng.uniform(1.0, 10.0, n_r)
    f = np.where(rng.random(n_r) < 0.5, 0.0, rng.uniform(0.0, 8.0, n_r))
    edges = [CandidateEdge(
        f"d{i}", f"r{j}", float(tau[i, j]),
        P_d=float(RATES.alpha * h[j] + b[i] * (tau[i, j] - tau_min_d[i]) + f[j]),
        P_r=float(RATES.beta * h[j] - delta[j] * (tau[i, j] - tau_min_r[j])),
        zeta=0.0, h_r=float(h[j]))
        for i in range(n_d) for j in range(n_r) if near[i, j]]
    return MatchingProblem(edges, tuple(f"d{i}" for i in range(n_d)),
                           tuple(f"r{j}" for j in range(n_r)))


# Co-located markets small enough for brute force; half of them tie, and on
# a few the LSA picks miss the tie-break's pair list, which only the search
# finds.
SMALL = [random_market(seed, n_d, n_r, colocated=True)
         for n_d, n_r in ((6, 6), (8, 5), (7, 7)) for seed in range(32)]


@pytest.fixture(scope="module")
def markets():
    """SMALL, random markets up to 30x16 and every vcg market of one default
    run.

    The run (fleet 60, scenario 3, seed 1) settles 72 markets of up to 59x31
    with 706 edges; its drivers park on shared cell centroids, so some of
    its markets are exact ties.
    """
    out = SMALL + [random_market(seed, n_d, n_r, colocated)
                   for n_d, n_r in ((10, 10), (20, 12), (30, 16))
                   for colocated in (False, True) for seed in range(2)]
    seen = []
    settle = pricing.settle_epoch

    def record(mechanism, problem, *args, **kwargs):
        seen.append(MatchingProblem(list(problem.edges), problem.drivers,
                                    problem.riders))
        return settle(mechanism, problem, *args, **kwargs)

    pricing.settle_epoch = record
    try:
        run_scenario(ScenarioConfig(fleet_size=60, demand_scenario=3, seed=1),
                     VCG)
    finally:
        pricing.settle_epoch = settle
    assert (59, 31) in {(len(p.drivers), len(p.riders)) for p in seen}
    return out + seen


def lsa_welfare(problem):
    drivers = sorted(problem.drivers)
    riders = sorted(problem.riders)
    w = np.zeros((len(drivers), len(riders)))
    for e in problem.edges:
        w[drivers.index(e.driver), riders.index(e.rider)] = max(e.sigma, 0.0)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum())


def is_tie(problem):
    """Reference uniqueness check: False when the LSA pick is provably the
    only matching within 1e-9 of the optimum, because zeroing any picked
    edge's weight costs the optimum more than 1e-9 and no edge joins a
    driver and a rider that the pick leaves unmatched."""
    m = asg._welfare_index(problem)
    w = m.s_raw.copy()
    value, pick = m.lsa_pick(w)
    rows = [m.d_index[e.driver] for e in pick]
    cols = [m.r_index[e.rider] for e in pick]
    if np.delete(np.delete(m.has_edge, rows, 0), cols, 1).any():
        return True
    for i, j in zip(rows, cols):
        weight, w[i, j] = w[i, j], 0.0
        without = m.lsa_pick(w)[0]
        w[i, j] = weight
        if value - without <= 1e-9:
            return True
    return False


def test_welfare_max_equals_exact_search_at_scale(markets):
    """On a market the reference proves unique, the solve returns exactly
    the LSA pick, in driver id order; on every market its value is the LSA
    optimum."""
    paths = {"unique": 0, "tie": 0}
    for problem in markets:
        got = asg.solve_welfare_max(problem)
        assert got.objective_value == pytest.approx(lsa_welfare(problem),
                                                    abs=1e-9, rel=0)
        if is_tie(problem):
            paths["tie"] += 1
            continue
        paths["unique"] += 1
        m = asg._welfare_index(problem)
        pick = m.lsa_pick(m.s_raw)[1]
        assert got.chosen == pick            # same edges, same order
        assert list(pick) == sorted(pick, key=lambda e: e.driver)
    assert paths["unique"] > 0 and paths["tie"] > 0, paths


def test_welfare_face_is_cut_by_an_optimal_dual(markets):
    """On every market, both extreme points of the core behind the welfare
    face and the VCG pivots are optimal duals of the assignment LP:
    non-negative, covering every sigma >= 0 edge, tight on the pick, and
    summing to the optimum. The drivers' point also pays each driver at
    least the riders' point does. All within 1e-9, since a driver that
    another driver can replace may get about -1e-15."""
    for problem in markets:
        m = asg._welfare_index(problem)
        pick, u_max, v_min, v_max = m.core
        rows = [m.d_index[e.driver] for e in pick]
        cols = [m.r_index[e.rider] for e in pick]
        u_min = np.zeros_like(u_max)
        u_min[rows] = m.s_raw[rows, cols] - v_max[cols]
        for u, v in ((u_max, v_min), (u_min, v_max)):
            assert u.min(initial=0.0) >= -1e-9 and v.min(initial=0.0) >= -1e-9
            reduced = u[:, None] + v[None, :] - m.s_raw
            assert reduced[m.has_edge].min(initial=0.0) >= -1e-9
            assert np.abs(reduced[rows, cols]).max(initial=0.0) <= 1e-9
            assert u.sum() + v.sum() == pytest.approx(
                asg._canonical_sum(pick, "sigma"), abs=1e-9, rel=0)
        assert (u_max - u_min).min(initial=0.0) >= -1e-9
        assert set(pick) <= set(asg._welfare_face(m))


def best_open_matching(face, ends, live):
    """Brute force: the best total sigma, summed exactly, of a matching of
    the live face edges (positions in the face)."""
    open_edges = [(*ends[k], face[k].sigma) for k in live]
    best = 0.0

    def recurse(k, used_d, used_r, taken):
        nonlocal best
        if k == len(open_edges):
            best = max(best, math.fsum(taken))
            return
        recurse(k + 1, used_d, used_r, taken)
        i, j, sigma = open_edges[k]
        if i not in used_d and j not in used_r:
            recurse(k + 1, used_d | {i}, used_r | {j}, taken + [sigma])

    recurse(0, frozenset(), frozenset(), [])
    return best


def test_face_bound_covers_every_completion():
    """At any node of the tie-break search, the dual bound is at least the
    best matching of the live face edges: undecided, with both ends free.

    States come from walking each small co-located face in search order,
    taking an edge with both ends free at random and skipping the rest, and
    stopping at a random index. The bound counts only vertices that a live
    edge can join, and its slack covers the rounding of the duals, so each
    state is checked exactly, with no tolerance."""
    rng = np.random.default_rng(0)
    states = 0
    for problem in SMALL:
        m = asg._welfare_index(problem)
        _, u, v, _ = m.core
        face = asg._welfare_face(m)
        bound = asg._FaceBound(m, face, u, v)
        for _ in range(40):
            free_d, free_r = ([True] * n for n in m.s_raw.shape)
            idx = int(rng.integers(0, len(face) + 1))
            for i, j in bound.ends[:idx]:
                if free_d[i] and free_r[j] and rng.random() < 0.5:
                    free_d[i] = free_r[j] = False
            live = [k for k in range(idx, len(face))
                    if free_d[bound.ends[k][0]] and free_r[bound.ends[k][1]]]
            assert bound(live) >= best_open_matching(face, bound.ends, live)
            states += 1
    assert states > 0


# A market whose welfare index is empty: its only edge has sigma < 0.
NEGATIVE = MatchingProblem(
    [CandidateEdge("d0", "r0", 1.0, P_d=5.0, P_r=4.0, zeta=0.0, h_r=1.0)],
    ("d0", "d1"), ("r0",))


def counted_lsa(monkeypatch):
    """Count the module's linear_sum_assignment calls into the returned
    list."""
    calls = []
    lsa = asg.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return lsa(*args, **kwargs)

    monkeypatch.setattr(asg, "linear_sum_assignment", counted)
    return calls


def test_welfare_solve_costs_one_lsa_and_the_pick_removals(markets,
                                                          monkeypatch):
    """A welfare solve runs one LSA, for the pick; the pick's driver
    removals behind the face are read from the pick's core points and run
    none. An empty welfare index needs no solve: a market without edges and
    one whose only edge has sigma < 0."""
    calls = counted_lsa(monkeypatch)
    empty = 0
    for problem in markets + [NEGATIVE, MatchingProblem([], ("d0",), ())]:
        expected = int(asg._welfare_index(problem).s_raw.size > 0)
        empty += 1 - expected
        del calls[:]
        asg.solve_welfare_max(problem)
        assert len(calls) == expected
    assert empty >= 2


def test_tie_settle_solves_each_removal_once(markets, monkeypatch):
    """A whole VCG settle, the solve and every matched participant's pivot,
    runs one LSA, however many removals it prices: the pivots come from the
    pick's core points. On ties, where the face and pricing both ask for
    removals, some settles price more than one participant. An empty
    welfare index needs none."""
    calls = counted_lsa(monkeypatch)
    shared = 0
    for problem in markets + [NEGATIVE, MatchingProblem([], ("d0",), ())]:
        expected = int(asg._welfare_index(problem).s_raw.size > 0)
        del calls[:]
        settled = settle_epoch(VCG, problem, RATES)
        assert len(calls) == expected
        shared += is_tie(problem) and len(settled.priced) > 1
    assert shared > 0


def lsa_pick(problem):
    """Edge set of the LSA pick on the welfare matrix: max(sigma, 0) over
    the sigma >= 0 edges, ids in sorted order."""
    edges = [e for e in problem.edges if e.sigma >= 0.0]
    drivers = sorted({e.driver for e in edges})
    riders = sorted({e.rider for e in edges})
    w = np.zeros((len(drivers), len(riders)))
    at = {}
    for e in edges:
        i, j = drivers.index(e.driver), riders.index(e.rider)
        w[i, j], at[i, j] = max(e.sigma, 0.0), e
    rows, cols = linear_sum_assignment(w, maximize=True)
    return {at[i, j].pair for i, j in zip(rows, cols) if w[i, j] > 0.0}


def test_tie_order_rule(markets):
    """On a tie, chosen is in driver id order when its edges are the LSA
    pick, and otherwise in (-sigma, tau, pair) order, the edge order of the
    tie-break search. The event log writes it."""
    orders = {"pick": 0, "search": 0}
    for problem in filter(is_tie, markets):
        chosen = asg.solve_welfare_max(problem).chosen
        if {e.pair for e in chosen} == lsa_pick(problem):
            orders["pick"] += 1
            assert list(chosen) == sorted(chosen, key=lambda e: e.driver)
        else:
            orders["search"] += 1
            assert list(chosen) == sorted(
                chosen, key=lambda e: (-e.sigma, e.tau, e.pair))
    assert orders["pick"] > 0 and orders["search"] > 0, orders


def test_small_colocated_markets_match_brute_force():
    ties = 0
    for problem in SMALL:
        ties += is_tie(problem)
        _, _, pairs = oracle.brute_force_solve(problem, "welfare")
        got = asg.solve_welfare_max(problem).chosen
        assert sorted(e.pair for e in got) == sorted(pairs)
    assert ties > 0


def test_batched_vcg_marginals_equal_per_removal_solves(markets):
    """Every participant's welfare marginal, read from the core points, is
    within 1e-12 of its per-removal solve: a driver or rider left without a
    sigma >= 0 edge gets the optimum. The VCG settle prices the same chosen
    matching, in the same order, within 1e-12 of the per-removal prices."""
    ties = 0
    for problem in markets + [NEGATIVE]:
        problem.objective = asg.WELFARE
        solution = asg.solve_welfare_max(problem)
        ties += is_tie(problem)
        everyone = problem.drivers + problem.riders
        per_removal = {p: asg.marginal_objective(problem, p) for p in everyone}
        batched = asg.welfare_marginals(problem, everyone)
        for p in everyone:
            assert abs(batched[p] - per_removal[p]) <= 1e-12, p
        settled = settle_epoch(VCG, problem, RATES, floor_enabled=False)
        expected = vcg_prices(solution, per_removal)
        assert settled.solution.chosen == solution.chosen
        assert len(settled.priced) == len(expected.priced)
        for got, want in zip(settled.priced, expected.priced):
            assert (got.driver, got.rider) == (want.driver, want.rider)
            for f in dataclasses.fields(got):
                value = getattr(got, f.name)
                if isinstance(value, float):
                    assert abs(value - getattr(want, f.name)) <= 1e-12, f.name
    assert ties > 0


def test_batched_marginals_reject_unknown_participant():
    problem = random_market(0, 4, 4, False)
    with pytest.raises(ContractError):
        asg.welfare_marginals(problem, ["nobody"])
