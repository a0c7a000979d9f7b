"""Sensing program at simulator sizes: DS removal marginals priced from one
sliced index per settle against the per-removal exact solve they replace,
the Lagrangian floor bound against the search without it and against brute
force, and the solve against a HiGHS MILP.

The markets are every ds market of a default-scale run and seeded markets
with per-rider integer zeta and co-located drivers, where equal rider sets
and equal assignments tie exactly; the floor-binding ones add a cost to every
driver, so the highest-zeta riders cannot all be served.
"""

import dataclasses
import gzip
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import (Bounds, LinearConstraint, linear_sum_assignment,
                            milp)
from scipy.sparse import coo_matrix

from senseauction import assignment as asg
from senseauction import oracle, pricing
from senseauction.assignment import CandidateEdge, MatchingProblem
from senseauction.errors import ContractError
from senseauction.pricing import DS, VCG, ds_prices, settle_epoch
from senseauction.simengine import ScenarioConfig, run_scenario

from test_welfare_scale import RATES, random_market


def integer_zeta_market(seed, n_d, n_r):
    """random_market with co-located drivers and a per-rider integer zeta."""
    problem = random_market(seed, n_d, n_r, colocated=True)
    zeta = np.random.default_rng(seed + 1000).integers(0, 5, n_r)
    edges = [dataclasses.replace(e, zeta=float(zeta[int(e.rider[1:])]))
             for e in problem.edges]
    return MatchingProblem(edges, problem.drivers, problem.riders)


def copy_of(problem):
    return MatchingProblem(list(problem.edges), problem.drivers,
                           problem.riders)


@pytest.fixture(scope="module")
def sim_markets():
    """Every ds market of one default run (fleet 60, scenario 3, seed 1)."""
    seen = []
    settle = pricing.settle_epoch

    def record(mechanism, problem, *args, **kwargs):
        seen.append(copy_of(problem))
        return settle(mechanism, problem, *args, **kwargs)

    pricing.settle_epoch = record
    try:
        run_scenario(ScenarioConfig(fleet_size=60, demand_scenario=3, seed=1),
                     DS)
    finally:
        pricing.settle_epoch = settle
    assert len(seen) == 72
    return seen


SEEDED = [integer_zeta_market(seed, n_d, n_r)
          for n_d, n_r in ((10, 10), (20, 12), (30, 16)) for seed in range(2)]


def lsa_calls(monkeypatch):
    calls = []
    lsa = asg.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return lsa(*args, **kwargs)

    monkeypatch.setattr(asg, "linear_sum_assignment", counted)
    return calls


def compare_removals(problems, monkeypatch):
    """Bit-equal share and path counts of the sliced removals."""
    calls = lsa_calls(monkeypatch)
    paths = {"early_exit": 0, "search": 0, "empty": 0}
    equal = total = 0
    for problem in problems:
        problem.objective = asg.SENSING
        index = asg.settle_index(problem)
        solution = asg.solve(problem, index)
        for p in solution.matched_drivers + solution.matched_riders:
            before = len(calls)
            got = asg.sensing_marginals(problem, solution, [p], index)[p]
            used = len(calls) - before
            want = asg.marginal_objective(problem, p)
            assert abs(got - want) <= 1e-12, (p, got, want)
            equal += got == want
            total += 1
            if used == 0:
                assert got == 0.0
                paths["empty"] += 1
            elif used == 1 and got >= solution.objective_value - 1e-12:
                paths["early_exit"] += 1
            elif used > 1:
                paths["search"] += 1
    return equal, total, paths


def test_sliced_removals_equal_per_removal_solves_on_a_default_run(
        sim_markets, monkeypatch):
    equal, total, paths = compare_removals(
        [copy_of(p) for p in sim_markets], monkeypatch)
    # Ties between equal-zeta rider sets may be kept in another summation
    # order, which moves a total by an ulp; everything else is bit-equal.
    assert total > 500 and equal >= 0.98 * total, (equal, total)
    assert paths["early_exit"] > 0 and paths["search"] > 0, paths


def test_sliced_removals_equal_per_removal_solves_on_integer_zeta(
        monkeypatch):
    lone = MatchingProblem(
        [CandidateEdge("d0", "r0", 0.5, P_d=3.0, P_r=5.0, zeta=2.0)],
        ("d0", "d1"), ("r0",))
    equal, total, paths = compare_removals(
        [copy_of(p) for p in SEEDED] + [lone], monkeypatch)
    # Integer totals are exact, so ties cannot move a bit.
    assert equal == total
    assert all(paths.values()), paths


def test_removal_slices_hold_the_rebuilt_index(sim_markets):
    """Each removal's slice equals the index rebuilt from problem.without;
    under the sensing objective its search walks the rebuilt index's rider
    order, which is the full index's order kept to the slice's columns."""
    for problem in sim_markets[::4] + SEEDED:
        for objective in (asg.SENSING, asg.WELFARE):
            problem = MatchingProblem(problem.edges, problem.drivers,
                                      problem.riders, objective=objective)
            index = asg.settle_index(problem)
            participants = problem.drivers + problem.riders
            for p, row, col in asg._removals(index, problem, participants):
                rows, cols = index.without(row, col)
                rebuilt = asg.settle_index(problem.without(p))
                grid = np.ix_(rows, cols)
                assert ([list(index.d_index)[i] for i in rows]
                        == list(rebuilt.d_index))
                assert ([list(index.r_index)[j] for j in cols]
                        == list(rebuilt.r_index))
                assert np.array_equal(index.has_edge[grid], rebuilt.has_edge)
                assert np.array_equal(index.s_raw[grid], rebuilt.s_raw)
                assert (index.table.at(index.eid[grid][rebuilt.has_edge])
                        == rebuilt.table.at(rebuilt.eid[rebuilt.has_edge]))
                if objective == asg.SENSING and cols.size:
                    search = asg._RiderSearch(index, rows, cols)
                    assert search.r_idx == rebuilt.order.tolist()
                    kept = set(cols.tolist())
                    assert search.order.tolist() == [
                        j for j in index.order.tolist() if j in kept]


def test_two_zeta_values_for_one_rider_are_rejected():
    """zeta belongs to the requested trip: the sensing index rejects a rider
    whose edges carry two values, so the DS solve, its removals and its
    settle raise ContractError. The welfare program never reads zeta, so
    VCG still settles the same market."""
    problem = integer_zeta_market(3, 10, 10)
    problem.objective = asg.SENSING
    solution = asg.solve(problem)
    edges = list(problem.edges)
    edges[0] = dataclasses.replace(edges[0], zeta=edges[0].zeta + 0.5)
    mixed = MatchingProblem(edges, problem.drivers, problem.riders,
                            objective=asg.SENSING)
    assert sum(e.rider == edges[0].rider for e in edges) > 1
    with pytest.raises(ContractError, match="two zeta values"):
        asg.solve_sensing_max(mixed)
    participants = solution.matched_drivers + solution.matched_riders
    with pytest.raises(ContractError, match="two zeta values"):
        asg.sensing_marginals(mixed, solution, participants)
    with pytest.raises(ContractError, match="two zeta values"):
        settle_epoch(DS, copy_of(mixed), RATES)
    settled = settle_epoch(VCG, copy_of(mixed), RATES)
    want = settle_epoch(VCG, copy_of(problem), RATES)
    assert settled.priced
    assert ([(m.driver, m.rider, m.rho_d, m.rho_r) for m in settled.priced]
            == [(m.driver, m.rider, m.rho_d, m.rho_r) for m in want.priced])


def test_sensing_marginals_reject_unknown_participant():
    problem = integer_zeta_market(0, 4, 4)
    problem.objective = asg.SENSING
    solution = asg.solve(problem)
    with pytest.raises(ContractError):
        asg.sensing_marginals(problem, solution, ["nobody"])


def test_ds_settle_prices_equal_per_removal_prices(sim_markets):
    for problem in [copy_of(p) for p in sim_markets + SEEDED]:
        settled = settle_epoch(DS, problem, RATES, floor_enabled=True)
        problem.objective = asg.SENSING
        solution = asg.solve(problem)
        marginals = {p: asg.marginal_objective(problem, p)
                     for p in solution.matched_drivers
                     + solution.matched_riders}
        want = ds_prices(solution, marginals, RATES, floor_enabled=True)
        assert settled.solution == solution
        assert settled.revenue == pytest.approx(want.revenue, abs=1e-12)
        for got_m, want_m in zip(settled.priced, want.priced, strict=True):
            for f in dataclasses.fields(got_m):
                a, b = getattr(got_m, f.name), getattr(want_m, f.name)
                if isinstance(a, float):
                    assert a == pytest.approx(b, abs=1e-12, rel=0), f.name
                else:
                    assert a == b


def count_builds(monkeypatch, cls_name):
    built = []
    cls = getattr(asg, cls_name)

    class Counted(cls):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(asg, cls_name, Counted)
    return built


def test_ds_settle_builds_one_index(monkeypatch):
    built = count_builds(monkeypatch, "_Instance")
    for problem in SEEDED:
        before = len(built)
        settled = settle_epoch(DS, copy_of(problem), RATES)
        assert settled.priced
        assert len(built) - before == 1


def test_vcg_settle_builds_one_welfare_matrix(monkeypatch):
    built = count_builds(monkeypatch, "_Instance")
    for problem in SEEDED:
        before = len(built)
        settled = settle_epoch(VCG, copy_of(problem), RATES)
        assert settled.priced
        assert len(built) - before == 1


def test_one_problem_settles_like_fresh_ones_across_mechanisms():
    for problem in SEEDED:
        shared = copy_of(problem)
        for mechanism in (VCG, DS, VCG):
            assert (settle_epoch(mechanism, shared, RATES)
                    == settle_epoch(mechanism, copy_of(problem), RATES))


# --- Lagrangian floor bound -------------------------------------------------

def floor_binding_market(seed, n_d, n_r, cost=5.0):
    """random_market (co-located drivers) with every driver's cost raised by
    `cost` and an integer zeta per rider: 3-5 for riders whose every edge
    then has negative welfare, 0-3 for the rest."""
    problem = random_market(seed, n_d, n_r, colocated=True)
    rng = np.random.default_rng(seed + 2000)
    best = {}
    for e in problem.edges:
        best[e.rider] = max(best.get(e.rider, -math.inf), e.sigma - cost)
    zeta = {r: float(rng.integers(3, 6) if v < 0.0 else rng.integers(0, 4))
            for r, v in sorted(best.items())}
    edges = [dataclasses.replace(e, P_d=e.P_d + cost, zeta=zeta[e.rider])
             for e in problem.edges]
    return MatchingProblem(edges, problem.drivers, problem.riders,
                           objective=asg.SENSING)


FLOOR_BINDING = [floor_binding_market(seed, n_d, n_r)
                 for n_d, n_r in ((10, 10), (20, 12), (30, 16), (40, 20))
                 for seed in range(3)]


def settle_values(problem):
    """(chosen, removal marginals) of a fresh sensing settle."""
    problem = MatchingProblem(problem.edges, problem.drivers, problem.riders,
                              objective=asg.SENSING)
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    participants = solution.matched_drivers + solution.matched_riders
    return solution.chosen, asg.sensing_marginals(problem, solution,
                                                  participants, index)


def test_floor_bound_only_prunes(sim_markets, monkeypatch):
    """The bound changes neither the returned matching (edges and order) nor
    a removal marginal beyond 1e-12, whether it starts after the default
    node count or at the first node."""
    binding = [p for p in FLOOR_BINDING
               if asg.settle_index(p).floor_multiplier() > 0.0]
    # The spies see this process only: keep every removal search here.
    monkeypatch.setattr(asg, "_HELPER_CELLS", math.inf)
    assert len(binding) >= 9
    calls = lsa_calls(monkeypatch)
    solves = []
    bound = asg._FloorBound

    class Counted(bound):
        def __call__(self, *args):
            solves.append(1)
            return super().__call__(*args)

    monkeypatch.setattr(asg, "_FloorBound", Counted)
    default = asg._LAGRANGE_AFTER
    used = {}
    for after in (math.inf, default, 0):
        monkeypatch.setattr(asg, "_LAGRANGE_AFTER", after)
        before = len(calls), len(solves)
        results = [settle_values(p) for p in sim_markets + binding]
        used[after] = len(calls) - before[0], len(solves) - before[1]
        if after == math.inf:
            want = results
            continue
        for (chosen, marginals), (want_chosen, want_marginals) in zip(
                results, want, strict=True):
            assert chosen == want_chosen
            assert marginals.keys() == want_marginals.keys()
            for p, v in marginals.items():
                assert abs(v - want_marginals[p]) <= 1e-12, (p, v)
    assert used[math.inf][1] == 0
    assert used[default][1] > 0 and used[0][1] > used[default][1]
    # Pruning pays for the bound's own solves.
    assert used[default][0] < used[math.inf][0], used


def test_welfare_bound_only_prunes(sim_markets, monkeypatch):
    """The walk's O(1) welfare bound (each forced column's best sigma plus
    each undecided column's positive best) prunes a node without an LSA
    only where the big-M relaxation at that status is None or below -1e-9,
    so it fails the floor there too; wherever the relaxation runs, the
    bound is at least its total. Checked at every welfare test of the
    solve and every removal, on every ds market of a default run and the
    seeded integer-zeta markets."""
    # The spies see this process only: keep every removal search here.
    monkeypatch.setattr(asg, "_HELPER_CELLS", math.inf)
    relaxation = asg._RiderSearch.relaxation
    pruned = solved = 0

    def checked(self, cur_w=math.inf):
        nonlocal pruned, solved
        node = relaxation(self, cur_w)
        if cur_w < -asg._TOL - asg._FLOOR_SLACK:
            pruned += 1
            relaxed = relaxation(self)
            assert relaxed is None or relaxed.value < -1e-9, (
                cur_w, relaxed.value)
        elif node is not None and cur_w < math.inf:
            solved += 1
            assert node.value <= cur_w + 1e-6, (node.value, cur_w)
        return node

    monkeypatch.setattr(asg._RiderSearch, "relaxation", checked)
    for problem in sim_markets + SEEDED:
        settle_values(problem)
    assert pruned > 100 and solved > 1000, (pruned, solved)


def tiny_market(seed):
    """At most 6x6, per-rider integer zeta, mixed-sign welfare."""
    rng = np.random.default_rng(seed)
    n_d, n_r = (int(v) for v in rng.integers(2, 7, 2))
    return floor_binding_market(seed, n_d, n_r,
                                cost=float(rng.uniform(0.0, 8.0)))


def test_floor_bound_solves_like_the_lsa_of_its_matrix():
    """A node with fewer columns than drivers solves the transpose of its
    matrix (the LSA would transpose a tall matrix itself); its value and
    cells equal those of the LSA on the matrix as it stands, bit for bit,
    and it is infeasible exactly when that LSA is. Random statuses on the
    seeded and floor-binding markets, most with more drivers than riders."""
    rng = np.random.default_rng(3)
    tall = infeasible = 0
    for problem in SEEDED + FLOOR_BINDING:
        inst = asg.settle_index(copy_of(problem))
        bound = asg._FloorBound(inst.s_raw, inst.has_edge, inst.zc, 0.7)
        (n_d, n_c), cols = inst.s_raw.shape, list(range(inst.s_raw.shape[1]))
        for _ in range(30):
            status = rng.integers(0, 3, n_c)
            forced = [j for j in cols if status[j] == 1]
            idx = forced + bound.opened([j for j in cols if status[j] == 0])
            if not idx:
                continue
            # weights is stored transposed: gathered columns are its rows.
            w = bound.weights[:, :max(n_d, len(idx))].take(idx, axis=0).T
            got = bound(forced, idx[len(forced):])
            tall += len(idx) < n_d
            try:
                ri, ci = linear_sum_assignment(w, maximize=True)
            except ValueError:
                assert got is None
                infeasible += 1
                continue
            keep = (ri < n_d) & ((ci < len(forced)) | (w[ri, ci] > 0.0))
            assert got.value == float(w[ri, ci].sum())
            assert np.array_equal(got.rows, ri[keep])
            assert np.array_equal(got.cols, np.asarray(idx)[ci[keep]] % n_c)
    assert tall > 300 and infeasible > 10, (tall, infeasible)


def test_floor_bound_is_valid_and_tight_against_brute_force():
    """For forced, excluded and undecided riders and several lam >= 0, the
    bound is the best sum(zeta + lam * sigma) over matchings that serve
    every forced rider and no excluded one, so it is at least the best such
    matching that meets the floor; it is None exactly when no matching
    serves the forced riders. For the same statuses the search's big-M
    relaxation is the best welfare over those matchings, None exactly when
    there is none, and its pairs are such a matching."""
    rng = np.random.default_rng(7)
    checked = infeasible = decided = relaxed_infeasible = 0
    for seed in range(40):
        problem = tiny_market(seed)
        inst = asg.settle_index(problem)
        search = asg._RiderSearch(inst)
        big = 1000.0
        for lam in (0.0, 0.05, inst.floor_multiplier(), 1.0, 4.0):
            bound = asg._FloorBound(inst.s_raw, inst.has_edge, inst.zc, lam)
            for _ in range(6):
                status = {r: int(rng.integers(0, 3)) for r in inst.r_index}
                forced = [r for r in status if status[r] == 1]
                got = bound([inst.r_index[r] for r in forced],
                            bound.opened([inst.r_index[r] for r in status
                                          if status[r] == 0]))

                def best(value, floor, status=status):
                    # Forced riders carry a bonus no other choice outweighs.
                    edges = [dataclasses.replace(
                        e, zeta=value(e) + big * (status[e.rider] == 1))
                        for e in problem.edges if status[e.rider] != 2]
                    v, _, pairs = oracle.brute_force_solve(
                        MatchingProblem(edges, problem.drivers,
                                        problem.riders, asg.SENSING),
                        floor=floor)
                    served = {r for _, r in pairs}
                    return (v - big * len(forced)
                            if served >= set(forced) else None)

                # The status as drawn, then with every undecided rider out.
                riders = list(inst.r_index)
                for view in (status, {r: v or 2 for r, v in status.items()}):
                    search.status = [view[riders[j]] for j in search.r_idx]
                    node = search.relaxation()
                    welfare = best(lambda e: e.sigma, False, view)
                    if welfare is None:
                        assert node is None
                        relaxed_infeasible += 1
                        continue
                    sig, rows, cols = node.value, node.rows, node.cols
                    assert sig == pytest.approx(welfare, abs=1e-9)
                    pairs = inst.table.at(inst.eid[rows, cols])
                    served = [e.rider for e in pairs]
                    assert len({e.driver for e in pairs}) == len(pairs)
                    assert len(set(served)) == len(served)
                    assert set(forced) <= set(served)
                    assert all(view[r] != 2 for r in served)
                    assert math.fsum(e.sigma for e in pairs) == pytest.approx(
                        sig, abs=1e-9)
                    if 0 not in view.values():
                        assert set(served) == set(forced)
                        decided += 1

                lagrangian = best(lambda e: e.zeta + lam * e.sigma, False)
                if lagrangian is None:
                    assert got is None
                    infeasible += 1
                    continue
                assert got is not None
                assert got.value == pytest.approx(lagrangian, abs=1e-9)
                cells = list(zip(got.rows.tolist(), got.cols.tolist()))
                assert len({i for i, _ in cells}) == len(cells)
                assert {inst.r_index[r] for r in forced} <= {
                    j for _, j in cells}
                assert got.served == {j for _, j in cells} - {
                    inst.r_index[r] for r in forced}
                # A matching meets the floor at sum(sigma) >= -1e-9.
                floor_best = best(lambda e: e.zeta, True)
                if floor_best is not None:
                    assert got.value + lam * 1e-9 >= floor_best - 1e-9
                checked += 1
    assert checked > 500 and infeasible > 20, (checked, infeasible)
    assert decided > 500 and relaxed_infeasible > 20, (decided,
                                                       relaxed_infeasible)


def test_floor_multiplier_minimises_the_root_bound():
    """floor_multiplier is 0 when the zeta-optimal matching meets the floor,
    and otherwise no lam on a grid gives a lower root bound."""
    feasible_at_zero = 0
    for problem in FLOOR_BINDING[:6] + SEEDED[:2]:
        inst = asg._Instance(problem.table)

        def g(lam):
            w = np.maximum(inst.z_raw + lam * inst.s_raw, 0.0)
            w[~inst.has_edge] = 0.0
            return inst.lsa_pick(w)

        lam = inst.floor_multiplier()
        if sum(e.sigma for e in g(0.0)[1]) >= 0.0:
            feasible_at_zero += 1
            assert lam == 0.0
        assert lam >= 0.0
        grid = np.linspace(0.0, 3.0, 301)
        assert g(lam)[0] <= min(g(x)[0] for x in grid) + 1e-9
        assert inst.floor_multiplier() == lam   # kept, not recomputed
    assert 0 < feasible_at_zero < 8


# --- removal searches: the row cut and the integral path ---------------------

MARKETS = (Path(__file__).resolve().parent.parent / "perfbench" / "data"
           / "markets")


def removal_values(problem):
    """Every matched participant's removal value from one fresh settle."""
    problem = MatchingProblem(problem.edges, problem.drivers, problem.riders,
                              objective=asg.SENSING)
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    participants = solution.matched_drivers + solution.matched_riders
    return asg.sensing_marginals(problem, solution, participants, index)


def top_rows_market():
    """Two riders and five drivers; each rider's two best drivers are d0 and
    d1. Removing either leaves one of them, and both riders are still served
    only through d2, each rider's third-best driver."""
    sigma = {"r0": (5.0, 4.0, 3.0, 2.0, 1.0), "r1": (5.0, 4.5, 1.0, 0.5, 0.2)}
    zeta = {"r0": 2.0, "r1": 1.0}
    edges = [CandidateEdge(f"d{i}", r, 0.5, P_d=1.0, P_r=1.0 + s, zeta=zeta[r])
             for r, row in sigma.items() for i, s in enumerate(row)]
    return MatchingProblem(edges, tuple(f"d{i}" for i in range(5)),
                           ("r0", "r1"), objective=asg.SENSING)


def test_row_cut_keeps_every_bound_and_removal_value(sim_markets,
                                                     monkeypatch):
    """Removal searches run on each rider's n_c + 1 best drivers by sigma
    (_Instance.search_rows). On the full index and on removal slices, for
    random rider statuses, the welfare relaxation and the Lagrangian bound
    equal those on every row, and are infeasible on the same statuses; every
    removal value equals the uncut search's and marginal_objective's."""
    rng = np.random.default_rng(11)
    top = top_rows_market()
    cut = compared = infeasible = 0
    for problem in [copy_of(p) for p in sim_markets] + FLOOR_BINDING + [top]:
        problem.objective = asg.SENSING
        index = asg.settle_index(problem)
        keep = index.search_rows
        if keep is None:
            continue
        cut += 1
        lam = index.floor_multiplier()
        n_d, n_c = index.s_raw.shape
        slices = [(None, np.arange(n_d), np.arange(n_c))]
        picked = list(rng.choice(problem.drivers + problem.riders, 3))
        slices += [(p, *index.without(row, col))
                   for p, row, col in asg._removals(index, problem, picked)]
        for _, rows, cols in slices:
            if not (rows.size and cols.size):
                continue
            whole = asg._RiderSearch(index, rows, cols)
            part = asg._RiderSearch(index, rows, cols, keep)
            assert part.r_idx == whole.r_idx and part.big == whole.big
            bounds = [asg._FloorBound(s.s_raw, s.has_edge, s.zc, lam)
                      for s in (whole, part)]
            for _ in range(6):
                status = rng.integers(0, 3, len(whole.r_idx)).tolist()
                whole.status[:] = part.status[:] = status
                sig = [None if n is None else n.value
                       for n in (s.relaxation() for s in (whole, part))]
                forced = [j for j, st in zip(whole.r_idx, status) if st == 1]
                undecided = [j for j, st in zip(whole.r_idx, status)
                             if st == 0]
                lag = [b(forced, b.opened(undecided)) for b in bounds]
                assert (sig[0] is None) == (sig[1] is None)
                assert (lag[0] is None) == (lag[1] is None)
                if sig[0] is None or lag[0] is None:
                    infeasible += 1
                if sig[0] is not None:
                    assert abs(sig[0] - sig[1]) <= 1e-12
                if lag[0] is not None:
                    assert abs(lag[0].value - lag[1].value) <= 1e-12
                compared += 1
        got = removal_values(problem)
        with monkeypatch.context() as m:
            m.setattr(asg._Instance, "search_rows", None)
            assert removal_values(problem) == got
        exact = all(float(e.zeta).is_integer() for e in problem.edges)
        for p, v in got.items():
            want = asg.marginal_objective(problem, p)
            assert v == want if exact else abs(v - want) <= 1e-12, (p, v)
    assert removal_values(top) == {"d0": 3.0, "d1": 3.0, "r0": 1.0,
                                   "r1": 2.0}
    assert cut >= 60 and compared > 1000 and infeasible > 50, (
        cut, compared, infeasible)


def half_zeta_market(seed, n_d, n_r, rider):
    """floor_binding_market with one rider's zeta set to 2.5."""
    problem = floor_binding_market(seed, n_d, n_r)
    edges = [dataclasses.replace(e, zeta=2.5) if e.rider == rider else e
             for e in problem.edges]
    return MatchingProblem(edges, problem.drivers, problem.riders,
                           objective=asg.SENSING)


def test_integral_path_equals_per_removal_solves(monkeypatch):
    """On an index whose every zeta is whole, removal searches hold the
    Lagrangian bound from the root, prune below best_p + 1 and take the
    held matching's branch first; their values equal marginal_objective bit
    for bit, and a seeded sample equals the MILP. One zeta of 2.5 keeps an
    index off that path: on these markets a whole-unit prune would lose a
    better rider set, which the MILP of every removal would show."""
    # The spies see this process only: keep every removal search here.
    monkeypatch.setattr(asg, "_HELPER_CELLS", math.inf)
    rng = np.random.default_rng(5)
    roots = []
    run = asg._RiderSearch.run

    def spy(self, open_node, visit, root=False):
        roots.append(root)
        return run(self, open_node, visit, root)

    monkeypatch.setattr(asg._RiderSearch, "run", spy)
    with gzip.open(MARKETS / "stress18-e00.json.gz", "rt") as fh:
        stress = asg.problem_from_json(json.load(fh))
    half = [half_zeta_market(29, 10, 8, "r0"),
            half_zeta_market(16, 30, 16, "r1")]
    for problem in [copy_of(p) for p in SEEDED] + FLOOR_BINDING + [stress]:
        problem.objective = asg.SENSING
        assert asg.settle_index(problem).zeta_integral
        values = removal_values(problem)
        for p, v in values.items():
            assert v == asg.marginal_objective(problem, p), (p, v)
        if problem is not stress:
            for p in rng.choice(sorted(values), 2, replace=False):
                assert values[p] == pytest.approx(
                    milp_sensing(problem.without(p)), abs=1e-9), p
    assert any(roots)
    roots.clear()
    for problem in half:
        assert not asg.settle_index(problem).zeta_integral
        for p, v in removal_values(problem).items():
            assert v == asg.marginal_objective(problem, p), (p, v)
            assert v == pytest.approx(milp_sensing(problem.without(p)),
                                      abs=1e-9), (p, v)
    assert roots and not any(roots)


# --- exactness against HiGHS ------------------------------------------------

def milp_sensing(problem):
    """Rider-subset MILP: binary y_r per rider, continuous edge flows; for
    integral y the bipartite rows have integral vertices, so it is exact."""
    edges = problem.edges
    zeta = {e.rider: e.zeta for e in edges}
    drivers = {d: i for i, d in enumerate(sorted({e.driver for e in edges}))}
    riders = {r: j for j, r in enumerate(sorted(zeta))}
    n, n_d, n_r = len(edges), len(drivers), len(riders)
    rows = np.concatenate([[drivers[e.driver] for e in edges],
                           [n_d + riders[e.rider] for e in edges],
                           n_d + np.arange(n_r)])
    cols = np.concatenate([np.arange(n), np.arange(n), n + np.arange(n_r)])
    vals = np.concatenate([np.ones(2 * n), -np.ones(n_r)])
    degree = coo_matrix((vals, (rows, cols)), shape=(n_d + n_r, n + n_r))
    welfare = np.concatenate([[e.sigma for e in edges], np.zeros(n_r)])
    res = milp(c=-np.concatenate([np.zeros(n), [zeta[r] for r in riders]]),
               integrality=np.concatenate([np.zeros(n), np.ones(n_r)]),
               bounds=Bounds(0.0, 1.0),
               constraints=[LinearConstraint(
                   degree, np.r_[np.full(n_d, -np.inf), np.zeros(n_r)],
                   np.r_[np.ones(n_d), np.zeros(n_r)]),
                   LinearConstraint(welfare[None, :], 0.0, np.inf)],
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return float(sum(zeta[r] for r, j in riders.items()
                     if res.x[n + j] > 0.5))


def test_solve_equals_milp_on_floor_binding_markets():
    sizes = ((10, 10), (20, 12), (30, 16), (40, 20), (50, 25), (60, 30))
    binding = 0
    for (n_d, n_r), seed in itertools.product(sizes, range(3)):
        problem = floor_binding_market(seed, n_d, n_r)
        index = asg.settle_index(problem)
        solution = asg.solve(problem, index)
        binding += index.floor_multiplier() > 0.0
        assert solution.objective_value == pytest.approx(
            milp_sensing(problem), abs=1e-9)
        # Re-check the returned edges in float: real edges, one-to-one, and
        # the welfare floor.
        edges = {e.pair: e for e in problem.edges}
        chosen = solution.chosen
        assert all(edges[e.pair] == e for e in chosen)
        assert len({e.driver for e in chosen}) == len(chosen)
        assert len({e.rider for e in chosen}) == len(chosen)
        assert math.fsum(e.sigma for e in chosen) >= -1e-9
        assert solution.objective_value == pytest.approx(
            math.fsum(e.zeta for e in chosen), abs=1e-12)
    assert binding >= 12, binding
