"""Payments and charges for a solved matching.

The welfare mechanism pays pivot bonuses (each participant receives the
welfare change caused by their presence), which runs a deficit. The sensing
mechanism redistributes the matched set's total welfare in proportion to each
participant's marginal contribution to the sensing objective, which is budget
balanced; an optional per-trip charge floor converts excess rider bonuses into
platform revenue.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .assignment import (SENSING, WELFARE, MatchingProblem, MatchingSolution,
                         QueuedMarginals, sensing_marginals, settle_index,
                         solve, welfare_marginals)
from .errors import ContractError
from .market import Rates, participant_utilities

_TOL = 1e-9

VCG = "vcg"
DS = "ds"


@dataclass(frozen=True)
class PricedMatch:
    driver: str
    rider: str
    P_d: float
    P_r: float
    sigma: float
    zeta: float
    tau: float
    h_r: float
    rho_d: float
    rho_r: float
    q_d: float
    q_r: float
    share_d: float = 0.0
    share_r: float = 0.0

    @property
    def u_d(self) -> float:
        return participant_utilities(self.q_d, self.q_r, self.P_d, self.P_r)[0]

    @property
    def u_r(self) -> float:
        return participant_utilities(self.q_d, self.q_r, self.P_d, self.P_r)[1]


@dataclass(frozen=True)
class EpochSettlement:
    mechanism: str
    solution: MatchingSolution
    priced: tuple[PricedMatch, ...]
    revenue: float          # sum of charges minus sum of payments
    welfare_total: float
    sensing_total: float


def compute_marginals(problem: MatchingProblem, solution: MatchingSolution,
                      index=None, queue: bool = False):
    """The optimum with each matched participant removed in turn.

    `solution` is the problem's optimum and `index` its settle_index (built
    here when not given); every removal is priced from that one index. With
    `queue`, a sensing settle may return a QueuedMarginals instead of the
    dict (see assignment.sensing_marginals).
    """
    participants = solution.matched_drivers + solution.matched_riders
    if problem.objective == WELFARE:
        return welfare_marginals(problem, participants, index)
    if problem.objective == SENSING:
        return sensing_marginals(problem, solution, participants, index,
                                 queue)
    raise ContractError(f"unknown objective {problem.objective!r}")


def vcg_prices(solution: MatchingSolution,
               marginals: dict[str, float]) -> EpochSettlement:
    """Pivot pricing: bonus = welfare loss the market would suffer without you."""
    v_star = solution.objective_value
    priced = []
    for e in solution.chosen:
        for p in (e.driver, e.rider):
            if p not in marginals:
                raise ContractError(f"missing marginal for matched participant {p!r}")
        rho_d = v_star - marginals[e.driver]
        rho_r = v_star - marginals[e.rider]
        priced.append(PricedMatch(
            driver=e.driver, rider=e.rider, P_d=e.P_d, P_r=e.P_r,
            sigma=e.sigma, zeta=e.zeta, tau=e.tau, h_r=e.h_r,
            rho_d=rho_d, rho_r=rho_r,
            q_d=e.P_d + rho_d, q_r=e.P_r - rho_r))
    revenue = sum(m.q_r for m in priced) - sum(m.q_d for m in priced)
    return EpochSettlement(mechanism=VCG, solution=solution,
                           priced=tuple(priced), revenue=revenue,
                           welfare_total=solution.welfare_total,
                           sensing_total=sum(e.zeta for e in solution.chosen))


def ds_prices(solution: MatchingSolution, sensing_marginals: dict[str, float],
              rates: Rates, floor_enabled: bool = True) -> EpochSettlement:
    """Distribute the matched welfare by sensing-contribution shares."""
    u_star = solution.objective_value
    v_total = solution.welfare_total
    if solution.chosen and v_total < -_TOL:
        raise ContractError("sensing solution violates the welfare floor")

    participants = solution.matched_drivers + solution.matched_riders
    deltas = {}
    for p in participants:
        if p not in sensing_marginals:
            raise ContractError(f"missing marginal for matched participant {p!r}")
        deltas[p] = u_star - sensing_marginals[p]
    total_delta = sum(deltas.values())
    if participants and total_delta <= _TOL:
        # Removals never changed the optimum; split the welfare evenly.
        shares = {p: 1.0 / len(participants) for p in participants}
    else:
        shares = {p: deltas[p] / total_delta for p in participants}

    priced = []
    revenue = 0.0
    for e in solution.chosen:
        share_d, share_r = shares[e.driver], shares[e.rider]
        rho_d = v_total * share_d
        rho_r = v_total * share_r
        q_r = e.P_r - rho_r
        if floor_enabled:
            floor = rates.alpha * e.h_r
            if q_r < floor:
                revenue += floor - q_r   # clipped bonus accrues to the platform
                q_r = floor
        priced.append(PricedMatch(
            driver=e.driver, rider=e.rider, P_d=e.P_d, P_r=e.P_r,
            sigma=e.sigma, zeta=e.zeta, tau=e.tau, h_r=e.h_r,
            rho_d=rho_d, rho_r=rho_r, q_d=e.P_d + rho_d, q_r=q_r,
            share_d=share_d, share_r=share_r))
    return EpochSettlement(mechanism=DS, solution=solution,
                           priced=tuple(priced), revenue=revenue,
                           welfare_total=v_total, sensing_total=u_star)


class PendingSettlement:
    """A DS settle whose removal marginals are still in the removal helper's
    queue: its solution is final, its prices are not. settle() waits for
    the marginals and prices them; cancel() drops them."""

    def __init__(self, solution: MatchingSolution, marginals: QueuedMarginals,
                 rates: Rates, floor_enabled: bool):
        self.solution, self.marginals = solution, marginals
        self.rates, self.floor_enabled = rates, floor_enabled

    def settle(self) -> EpochSettlement:
        return ds_prices(self.solution, self.marginals.result(), self.rates,
                         floor_enabled=self.floor_enabled)

    def cancel(self) -> None:
        self.marginals.cancel()


def settle_epoch(mechanism: str, problem: MatchingProblem, rates: Rates,
                 floor_enabled: bool = True, queue: bool = False):
    """Solve, compute removal marginals, and price one epoch's market.

    The solve and the removal marginals share one settle_index, built here.
    They see a copy of the problem under the mechanism's objective; the
    caller's problem is left as it was. With `queue` (run_scenario's
    settles), a DS settle whose removals the removal helper's queue takes
    returns a PendingSettlement; every other settle an EpochSettlement.
    """
    if mechanism not in (VCG, DS):
        raise ContractError(f"unknown mechanism {mechanism!r}")
    # A shallow copy: replace() would run the problem's validation again.
    problem = copy.copy(problem)
    problem.objective = WELFARE if mechanism == VCG else SENSING
    index = settle_index(problem)
    solution = solve(problem, index)
    marginals = compute_marginals(problem, solution, index, queue)
    if mechanism == VCG:
        return vcg_prices(solution, marginals)
    if isinstance(marginals, QueuedMarginals):
        return PendingSettlement(solution, marginals, rates, floor_enabled)
    return ds_prices(solution, marginals, rates, floor_enabled=floor_enabled)
