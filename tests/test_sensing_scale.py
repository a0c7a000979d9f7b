"""Sensing program at simulator sizes: DS removal marginals priced from one
sliced index per settle against the per-removal exact solve they replace.

The markets are every ds market of a default-scale run and seeded markets
with per-rider integer zeta and co-located drivers, where equal rider sets
and equal assignments tie exactly.
"""

import dataclasses

import numpy as np
import pytest

from senseauction import assignment as asg
from senseauction import pricing
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
    """Each removal's slice equals the index rebuilt from problem.without."""
    for problem in sim_markets[::4] + SEEDED:
        for objective in (asg.SENSING, asg.WELFARE):
            problem = MatchingProblem(problem.edges, problem.drivers,
                                      problem.riders, objective=objective)
            index = asg.settle_index(problem)
            participants = problem.drivers + problem.riders
            for p, rows, cols in asg._removals(index, problem, participants):
                rebuilt = asg.settle_index(problem.without(p))
                grid = np.ix_(rows, cols)
                assert ([list(index.d_index)[i] for i in rows]
                        == list(rebuilt.d_index))
                assert ([list(index.r_index)[j] for j in cols]
                        == list(rebuilt.r_index))
                assert np.array_equal(index.has_edge[grid], rebuilt.has_edge)
                if objective == asg.SENSING:
                    assert np.array_equal(index.s_raw[grid], rebuilt.s_raw)
                    assert np.array_equal(index.by_pair[grid],
                                          rebuilt.by_pair)
                else:
                    assert np.array_equal(index.w[grid], rebuilt.w)


def test_per_edge_zeta_takes_the_per_removal_solve(monkeypatch):
    problem = integer_zeta_market(3, 10, 10)
    edges = list(problem.edges)
    edges[0] = dataclasses.replace(edges[0], zeta=edges[0].zeta + 0.5)
    problem = MatchingProblem(edges, problem.drivers, problem.riders,
                              objective=asg.SENSING)
    solution = asg.solve(problem)
    participants = solution.matched_drivers + solution.matched_riders
    want = {p: asg.marginal_objective(problem, p) for p in participants}
    called = []
    per_removal = asg.marginal_objective
    monkeypatch.setattr(asg, "marginal_objective",
                        lambda pr, p: called.append(p) or per_removal(pr, p))
    assert asg.sensing_marginals(problem, solution, participants) == want
    assert called == list(participants)


def test_sensing_marginals_reject_unknown_participant():
    problem = integer_zeta_market(0, 4, 4)
    problem.objective = asg.SENSING
    solution = asg.solve(problem)
    with pytest.raises(ContractError):
        asg.sensing_marginals(problem, solution, ["nobody"])


def test_ds_settle_prices_equal_per_removal_prices(sim_markets):
    for problem in [copy_of(p) for p in sim_markets + SEEDED]:
        settled = settle_epoch(DS, problem, RATES, floor_enabled=True)
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
    built = count_builds(monkeypatch, "_WelfareMatrix")
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
