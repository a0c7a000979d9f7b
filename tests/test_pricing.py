"""Pivot payments, redistribution shares, and epoch settlement."""

import numpy as np
import pytest

from senseauction.assignment import (CandidateEdge, MatchingProblem, _EdgeTable,
                                     solve)
from senseauction.errors import ContractError
from senseauction.market import Rates
from senseauction.pricing import (DS, VCG, compute_marginals, ds_prices,
                                  settle_epoch, vcg_prices)

RATES = Rates(alpha=1.5, beta=2.75)


def edge(d, r, tau, P_d, P_r, zeta, h_r=1.0):
    return CandidateEdge(driver=d, rider=r, tau=tau, P_d=P_d, P_r=P_r,
                         zeta=zeta, h_r=h_r)


def problem_of(edges, objective):
    drivers = sorted({e.driver for e in edges})
    riders = sorted({e.rider for e in edges})
    return MatchingProblem(edges=list(edges), drivers=drivers, riders=riders,
                           objective=objective)


# --- pivot payments -----------------------------------------------------------

def test_pivot_prices_single_pair():
    p = problem_of([edge("d", "r", 0.5, 7.2, 13.2, zeta=1.0)], "welfare")
    sol = solve(p)
    priced = vcg_prices(sol, compute_marginals(p, sol)).priced
    assert len(priced) == 1
    m = priced[0]
    # With no competition each side's externality is the full surplus.
    assert m.rho_d == pytest.approx(6.0)
    assert m.rho_r == pytest.approx(6.0)
    assert m.q_d == pytest.approx(13.2)   # P_d + sigma
    assert m.q_r == pytest.approx(7.2)    # P_r - sigma
    assert m.u_d == pytest.approx(6.0)
    assert m.u_r == pytest.approx(6.0)


def test_pivot_prices_two_rider_competition():
    e1 = edge("d", "r1", 0.5, 18.36, 19.80, zeta=3.0)   # sigma = 1.44
    e2 = edge("d", "r2", 0.5, 7.20, 13.20, zeta=1.0)    # sigma = 6.00
    p = problem_of([e1, e2], "welfare")
    sol = solve(p)
    priced = vcg_prices(sol, compute_marginals(p, sol)).priced
    m = priced[0]
    assert m.rider == "r2"
    assert m.rho_d == pytest.approx(6.0)     # without d nothing matches
    assert m.rho_r == pytest.approx(4.56)    # without r2, r1 yields 1.44
    deficit = sum(x.q_r - x.q_d for x in priced)
    assert deficit == pytest.approx(-4.56)


def test_pivot_deficit_never_positive():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_priced_problem(rng, "welfare")
        sol = solve(p)
        priced = vcg_prices(sol, compute_marginals(p, sol)).priced
        revenue = sum(m.q_r - m.q_d for m in priced)
        assert revenue <= 1e-9
        for m in priced:
            assert m.rho_d >= -1e-9 and m.rho_r >= -1e-9
            assert m.u_d >= -1e-9 and m.u_r >= -1e-9


def test_pivot_prices_require_all_marginals():
    p = problem_of([edge("d", "r", 0.5, 1.0, 3.0, zeta=1.0)], "welfare")
    sol = solve(p)
    with pytest.raises(ContractError):
        vcg_prices(sol, {})


# --- redistribution shares ------------------------------------------------------

def test_share_prices_single_pair_split_surplus():
    p = problem_of([edge("d", "r", 0.5, 7.2, 13.2, zeta=2.0)], "sensing")
    sol = solve(p)
    marg = compute_marginals(p, sol)
    priced = ds_prices(sol, marg, RATES, floor_enabled=False).priced
    m = priced[0]
    # Both removals zero out the sensing value, so the shares are equal.
    assert m.share_d == pytest.approx(0.5)
    assert m.share_r == pytest.approx(0.5)
    assert m.u_d == pytest.approx(3.0)
    assert m.u_r == pytest.approx(3.0)


def test_share_prices_budget_balance_without_floor():
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = random_priced_problem(rng, "sensing")
        sol = solve(p)
        priced = ds_prices(sol, compute_marginals(p, sol), RATES,
                           floor_enabled=False).priced
        if not priced:
            continue
        revenue = sum(m.q_r - m.q_d for m in priced)
        assert abs(revenue) <= 1e-6
        assert sum(m.share_d + m.share_r for m in priced) == pytest.approx(1.0)
        for m in priced:
            assert m.u_d >= -1e-9 and m.u_r >= -1e-9


def test_share_prices_floor_clips_rider_payment():
    # One pair with a huge redistribution would push q_r below the trip's
    # variable cost; the floor keeps q_r at alpha * h_r.
    e1 = edge("d1", "r1", 0.5, 2.0, 20.0, zeta=5.0, h_r=4.0)
    e2 = edge("d2", "r2", 0.5, 2.0, 4.0, zeta=0.1, h_r=1.0)
    p = problem_of([e1, e2], "sensing")
    sol = solve(p)
    priced = ds_prices(sol, compute_marginals(p, sol), RATES,
                       floor_enabled=True).priced
    by_r = {m.rider: m for m in priced}
    for m in priced:
        assert m.q_r >= RATES.alpha * m.h_r - 1e-9
    revenue = sum(m.q_r - m.q_d for m in priced)
    assert revenue >= -1e-9
    assert by_r["r1"].q_r >= RATES.alpha * 4.0 - 1e-9


def test_share_prices_reject_floor_violation():
    sol_p = problem_of([edge("d", "r", 0.5, 10.0, 4.0, zeta=3.0)], "sensing")
    # Force a matching whose welfare is negative by bypassing the solver.
    from senseauction.assignment import MatchingSolution
    forced = MatchingSolution(chosen=tuple(sol_p.edges),
                              objective_value=3.0, welfare_total=-6.0)
    with pytest.raises(ContractError):
        ds_prices(forced, {"d": 0.0, "r": 0.0}, RATES, floor_enabled=True)


# --- settlement ------------------------------------------------------------------

def random_priced_problem(rng, objective):
    drivers = [f"d{i}" for i in range(rng.integers(1, 6))]
    riders = [f"r{j}" for j in range(rng.integers(1, 6))]
    zeta = {r: float(rng.uniform(0, 3)) for r in riders}
    edges = []
    for d in drivers:
        for r in riders:
            if rng.random() < 0.6:
                h = float(rng.uniform(1, 8))
                edges.append(edge(d, r, float(rng.uniform(0.05, 2.0)),
                                  float(rng.uniform(0, 10)),
                                  float(rng.uniform(0, 10)), zeta[r], h_r=h))
    return MatchingProblem(edges=edges, drivers=drivers, riders=riders,
                           objective=objective)


def test_settle_epoch_empty_problem():
    p = MatchingProblem(edges=[], drivers=[], riders=[])
    s = settle_epoch(VCG, p, RATES)
    assert s.priced == () or list(s.priced) == []
    assert s.revenue == 0.0


def test_settle_epoch_consistency_both_mechanisms():
    rng = np.random.default_rng(31)
    p = random_priced_problem(rng, "welfare")
    for mech in (VCG, DS):
        s = settle_epoch(mech, p, RATES)
        assert s.mechanism == mech
        assert s.revenue == pytest.approx(
            sum(m.q_r - m.q_d for m in s.priced), abs=1e-9)
        assert s.welfare_total == pytest.approx(
            sum(m.sigma for m in s.priced), abs=1e-9)
        assert s.sensing_total == pytest.approx(
            sum(m.zeta for m in s.priced), abs=1e-9)


def test_settle_epoch_leaves_the_problem_objective_alone():
    rng = np.random.default_rng(37)
    for objective in ("welfare", "sensing"):
        p = random_priced_problem(rng, objective)
        for mech in (VCG, DS):
            settled = settle_epoch(mech, p, RATES)
            assert settled.mechanism == mech
            assert p.objective == objective


def test_settle_epoch_does_not_validate_the_problem_again(monkeypatch):
    p = random_priced_problem(np.random.default_rng(41), "welfare")
    checks = []
    # A problem's (driver, rider) pairs are checked once, where its edge
    # table is built from records.
    monkeypatch.setattr(_EdgeTable, "of_records",
                        lambda *args, **kwargs: checks.append(args))
    for mech in (VCG, DS):
        settle_epoch(mech, p, RATES)
    assert checks == []


def test_settle_epoch_rejects_unknown_mechanism():
    p = MatchingProblem(edges=[], drivers=[], riders=[])
    with pytest.raises(ContractError):
        settle_epoch("auction", p, RATES)
