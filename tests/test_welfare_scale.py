"""Welfare program at simulator sizes: the face search from one assignment
solve, and the batched VCG removal marginals against per-removal solves.

Brute force stops at 8x8, so most checks compare against the LSA optimum, a
reference uniqueness check and per-removal solves instead: on seeded markets
from 10x10 up to the largest market of a default-scale run (59x31), with and
without co-located drivers. Co-located markets of at most 8x8 are also
checked against brute force.
"""

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
    m = asg._welfare_index(problem.edges)
    w = m.s_raw.copy()
    value, pick = asg._lsa_pick(w, m.by_pair)
    rows = [m.d_index[e.driver] for e in pick]
    cols = [m.r_index[e.rider] for e in pick]
    if np.delete(np.delete(m.has_edge, rows, 0), cols, 1).any():
        return True
    for i, j in zip(rows, cols):
        weight, w[i, j] = w[i, j], 0.0
        without = asg._lsa_pick(w, m.by_pair)[0]
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
        m = asg._welfare_index(problem.edges)
        pick = asg._lsa_pick(m.s_raw, m.by_pair)[1]
        assert got.chosen == pick            # same edges, same order
        assert list(pick) == sorted(pick, key=lambda e: e.driver)
    assert paths["unique"] > 0 and paths["tie"] > 0, paths


def test_welfare_face_is_cut_by_an_optimal_dual(markets):
    """On every tie, the duals behind the welfare face (the LSA pick's own
    driver removal marginals) are an optimal dual of the assignment LP:
    non-negative, covering every sigma >= 0 edge, tight on the pick, and
    summing to the optimum. All within 1e-9, since V - V_-d of a driver
    that another driver can replace may round to about -1e-15."""
    ties = 0
    for problem in filter(is_tie, markets):
        ties += 1
        m = asg._welfare_index(problem.edges)
        pick = asg._lsa_pick(m.s_raw, m.by_pair)[1]
        face, u, v = asg._welfare_face(problem, m, pick)
        assert u.min(initial=0.0) >= -1e-9 and v.min(initial=0.0) >= -1e-9
        reduced = u[:, None] + v[None, :] - m.s_raw
        assert reduced[m.has_edge].min() >= -1e-9
        for e in pick:
            assert abs(reduced[m.d_index[e.driver], m.r_index[e.rider]]) <= 1e-9
        assert set(pick) <= set(face)
        assert u.sum() + v.sum() == pytest.approx(
            asg._canonical_sum(pick, "sigma"), abs=1e-9, rel=0)
    assert ties > 0


def best_open_matching(face, ends, free_d, free_r, idx):
    """Brute force: the best total sigma, summed exactly, of a matching of
    the face edges from index idx on whose ends are both free."""
    open_edges = [(i, j, e.sigma) for (i, j), e in zip(ends[idx:], face[idx:])
                  if free_d[i] and free_r[j]]
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
    best matching of the undecided face edges between free vertices.

    States come from walking each small co-located face in search order,
    taking an edge with both ends free at random and skipping the rest, and
    stopping at a random index. The bound counts only vertices that an
    undecided edge can join, and its slack covers the rounding of the
    duals, so each state is checked exactly, with no tolerance."""
    rng = np.random.default_rng(0)
    states = 0
    for problem in SMALL:
        m = asg._welfare_index(problem.edges)
        pick = asg._lsa_pick(m.s_raw, m.by_pair)[1]
        face, u, v = asg._welfare_face(problem, m, pick)
        bound = asg._FaceBound(m, face, u, v)
        for _ in range(40):
            free_d, free_r = ([True] * n for n in m.s_raw.shape)
            idx = int(rng.integers(0, len(face) + 1))
            for i, j in bound.ends[:idx]:
                if free_d[i] and free_r[j] and rng.random() < 0.5:
                    free_d[i] = free_r[j] = False
            assert bound(free_d, free_r, idx) >= best_open_matching(
                face, bound.ends, free_d, free_r, idx)
            states += 1
    assert states > 0


def test_welfare_solve_costs_one_lsa_and_the_pick_removals(markets,
                                                          monkeypatch):
    """A welfare solve runs one LSA for the pick and one per picked driver
    for the face's duals; the face search itself runs none. An empty matrix
    needs no solve: the index of a market without edges, and a removal when
    the index holds one driver."""
    calls = []
    lsa = asg.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return lsa(*args, **kwargs)

    monkeypatch.setattr(asg, "linear_sum_assignment", counted)
    for problem in markets:
        m = asg._welfare_index(problem.edges)
        pick = asg._lsa_pick(m.s_raw, m.by_pair)[1]
        del calls[:]
        asg.solve_welfare_max(problem)
        n_d = len(m.d_index)
        assert len(calls) == (1 + len(pick) if n_d > 1 else n_d)


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
    ties = 0
    for problem in markets:
        problem.objective = asg.WELFARE
        solution = asg.solve_welfare_max(problem)
        ties += is_tie(problem)
        per_removal = {p: asg.marginal_objective(problem, p)
                       for p in solution.matched_drivers
                       + solution.matched_riders}
        assert pricing.compute_marginals(problem, solution) == per_removal
        settled = settle_epoch(VCG, problem, RATES, floor_enabled=False)
        assert settled.priced == vcg_prices(solution, per_removal).priced
    assert ties > 0


def test_tie_settle_solves_each_removal_once(markets, monkeypatch):
    """A tie's face asks for the LSA pick's driver removals and pricing for
    every matched participant's; a settle runs one LSA per distinct removal,
    so it costs the solve's LSAs plus one per removal the face did not ask
    for. Removing the index's only driver or only rider leaves an empty
    matrix, which needs no solve."""
    calls = []
    lsa = asg.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return lsa(*args, **kwargs)

    monkeypatch.setattr(asg, "linear_sum_assignment", counted)
    shared = 0
    for problem in filter(is_tie, markets):
        m = asg._welfare_index(problem.edges)
        face = {e.driver for e in asg._lsa_pick(m.s_raw, m.by_pair)[1]}
        del calls[:]
        solution = asg.solve_welfare_max(problem)
        solve_calls = len(calls)
        del calls[:]
        settle_epoch(VCG, problem, RATES)
        priced = set(solution.matched_drivers + solution.matched_riders)
        lone = {p for ids in (m.d_index, m.r_index) if len(ids) == 1
                for p in ids}
        assert len(calls) == solve_calls + len(priced - face - lone)
        shared += bool(priced & face)
    assert shared > 0


def test_batched_marginals_reject_unknown_participant():
    problem = random_market(0, 4, 4, False)
    with pytest.raises(ContractError):
        asg.welfare_marginals(problem, ["nobody"])
