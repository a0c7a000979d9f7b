"""Randomized property harness for the mechanism guarantees.

Generates small random markets, checks the solvers against the exhaustive
oracle, and verifies the pricing guarantees: budget balance, individual
rationality, share normalization, group incentive compatibility, the
over/under-reporting utility lemmas, and envy-freeness. Used by the
`check` CLI command and by the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pricing
from .assignment import (CandidateEdge, MatchingProblem, MatchingSolution,
                         solve_sensing_max, solve_welfare_max)
from .market import Rates, driver_valuation, rider_valuation
from .oracle import brute_force_solve

TOL = 1e-9


class PropertyViolation(AssertionError):
    def __init__(self, prop: str, detail: str, replay: dict | None = None):
        super().__init__(f"{prop}: {detail}")
        self.prop = prop
        self.replay = replay or {}


@dataclass
class RandomInstance:
    """A small random epoch market with truthful rates kept on the side."""
    rates: Rates
    b_true: dict[str, float]
    delta_true: dict[str, float]
    h: dict[str, float]
    f: dict[str, float]
    tau: dict[tuple[str, str], float]
    zeta: dict[str, float]      # per rider: the requested trip's sensing gain

    @property
    def tau_min_d(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (d, _), t in self.tau.items():
            out[d] = min(out.get(d, np.inf), t)
        return out

    @property
    def tau_min_r(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, r), t in self.tau.items():
            out[r] = min(out.get(r, np.inf), t)
        return out

    def problem(self, objective: str = "sensing",
                b: dict[str, float] | None = None,
                delta: dict[str, float] | None = None) -> MatchingProblem:
        """Build the candidate-edge problem from (possibly misreported) rates."""
        b = b or self.b_true
        delta = delta or self.delta_true
        tmd, tmr = self.tau_min_d, self.tau_min_r
        edges = []
        for (d, r), t in sorted(self.tau.items()):
            P_d = driver_valuation(self.rates, self.h[r], b[d], t, tmd[d],
                                   self.f[r])
            P_r = rider_valuation(self.rates, self.h[r], delta[r], t, tmr[r])
            edges.append(CandidateEdge(driver=d, rider=r, tau=t, P_d=P_d,
                                       P_r=P_r, zeta=self.zeta[r],
                                       h_r=self.h[r]))
        return MatchingProblem(edges=edges,
                               drivers=tuple(sorted(self.b_true)),
                               riders=tuple(sorted(self.delta_true)),
                               objective=objective)

    def replay_doc(self) -> dict:
        return {
            "b_true": self.b_true, "delta_true": self.delta_true,
            "h": self.h, "f": self.f,
            "tau": {f"{d}|{r}": t for (d, r), t in self.tau.items()},
            "zeta": dict(self.zeta),
        }


def random_instance(rng: np.random.Generator, max_drivers: int = 8,
                    max_riders: int = 8, edge_prob: float = 0.6) -> RandomInstance:
    n_d = int(rng.integers(1, max_drivers + 1))
    n_r = int(rng.integers(1, max_riders + 1))
    drivers = [f"d{i}" for i in range(n_d)]
    riders = [f"r{i}" for i in range(n_r)]
    tau = {}
    zeta = {r: float(rng.uniform(0.01, 3.0)) for r in riders}
    for d in drivers:
        for r in riders:
            if rng.random() < edge_prob:
                tau[(d, r)] = float(rng.uniform(0.05, 2.0))
    return RandomInstance(
        rates=Rates(alpha=1.5, beta=2.75),
        b_true={d: float(rng.uniform(1.0, 2.0)) for d in drivers},
        delta_true={r: float(rng.uniform(1.0, 2.0)) for r in riders},
        h={r: float(rng.uniform(1.0, 10.0)) for r in riders},
        f={r: (0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 8.0)))
           for r in riders},
        tau=tau, zeta=zeta)


def check_exactness(inst: RandomInstance) -> None:
    """Solver objectives must equal exhaustive enumeration (AE)."""
    wp = inst.problem("welfare")
    ws = solve_welfare_max(wp)
    w_val, _, w_pairs = brute_force_solve(wp, "welfare")
    if abs(ws.objective_value - w_val) > TOL:
        raise PropertyViolation("AE-welfare",
                                f"solver {ws.objective_value} != oracle {w_val}",
                                inst.replay_doc())
    got = sorted(e.pair for e in ws.chosen)
    if got != list(w_pairs):
        raise PropertyViolation("AE-welfare-pairs",
                                f"solver {got} != oracle {list(w_pairs)}",
                                inst.replay_doc())
    w_unfiltered, _, _ = brute_force_solve(wp, "welfare", drop_negative=False)
    if abs(w_val - w_unfiltered) > TOL:
        raise PropertyViolation("AE-welfare-filter",
                                "negative-edge filter changed the optimum",
                                inst.replay_doc())
    sp = inst.problem("sensing")
    ss = solve_sensing_max(sp)
    s_val, s_welfare, _ = brute_force_solve(sp, "sensing", floor=True)
    if abs(ss.objective_value - s_val) > TOL:
        raise PropertyViolation("AE-sensing",
                                f"solver {ss.objective_value} != oracle {s_val}",
                                inst.replay_doc())
    if ss.chosen and ss.welfare_total < -TOL:
        raise PropertyViolation("welfare-floor",
                                f"matched welfare {ss.welfare_total} < 0",
                                inst.replay_doc())
    # Floor off, same edges: plain sensing-weight matching.
    s_free, _, _ = brute_force_solve(sp, "sensing", floor=False)
    free = _solve_sensing_no_floor(sp)
    if abs(free - s_free) > TOL:
        raise PropertyViolation("AE-sensing-nofloor",
                                f"solver {free} != oracle {s_free}",
                                inst.replay_doc())
    _check_feasible(ws, wp)
    _check_feasible(ss, sp)


def _solve_sensing_no_floor(problem: MatchingProblem) -> float:
    # Without the floor the sensing program is one LSA on max(zeta, 0).
    from .assignment import _canonical_sum, _Instance, _lsa_pick
    inst = _Instance(problem.edges)
    _, chosen = _lsa_pick(np.maximum(inst.z_raw, 0.0), inst.by_pair)
    return _canonical_sum(chosen, "zeta")


def _check_feasible(solution: MatchingSolution, problem: MatchingProblem) -> None:
    valid = {e.pair for e in problem.edges}
    drivers = [e.driver for e in solution.chosen]
    riders = [e.rider for e in solution.chosen]
    if len(set(drivers)) != len(drivers) or len(set(riders)) != len(riders):
        raise PropertyViolation("feasibility", "participant matched twice")
    if any(e.pair not in valid for e in solution.chosen):
        raise PropertyViolation("feasibility", "chosen edge not in problem")


def check_settlement_properties(inst: RandomInstance) -> None:
    """BB/WBB, IR, deficit sign, bonus signs, share normalization."""
    wp = inst.problem("welfare")
    vcg = pricing.settle_epoch(pricing.VCG, wp, inst.rates)
    if vcg.revenue > TOL:
        raise PropertyViolation("VCG-deficit", f"revenue {vcg.revenue} > 0",
                                inst.replay_doc())
    for m in vcg.priced:
        if m.rho_d < -TOL or m.rho_r < -TOL:
            raise PropertyViolation("VCG-bonus", "negative pivot bonus",
                                    inst.replay_doc())
        _check_ir(m, inst, floor=False)

    sp = inst.problem("sensing")
    ds = pricing.settle_epoch(pricing.DS, sp, inst.rates, floor_enabled=False)
    if abs(ds.revenue) > TOL:
        raise PropertyViolation("DS-BB", f"|revenue| = {abs(ds.revenue)}",
                                inst.replay_doc())
    share_sum = sum(m.share_d + m.share_r for m in ds.priced)
    if ds.priced and abs(share_sum - 1.0) > TOL:
        raise PropertyViolation("DS-shares", f"shares sum to {share_sum}",
                                inst.replay_doc())
    for m in ds.priced:
        _check_ir(m, inst, floor=False)

    ds_floor = pricing.settle_epoch(pricing.DS, sp, inst.rates,
                                    floor_enabled=True)
    if ds_floor.revenue < -TOL:
        raise PropertyViolation("DS-WBB", f"revenue {ds_floor.revenue} < 0",
                                inst.replay_doc())
    for m in ds_floor.priced:
        if m.q_d < m.P_d - TOL or m.rho_r < -TOL:
            raise PropertyViolation("DS-IR-floor", "driver paid below valuation",
                                    inst.replay_doc())


def _check_ir(m: pricing.PricedMatch, inst: RandomInstance, floor: bool) -> None:
    if m.q_d < m.P_d - TOL:
        raise PropertyViolation("IR-driver", f"q_d {m.q_d} < P_d {m.P_d}",
                                inst.replay_doc())
    if not floor and m.q_r > m.P_r + TOL:
        raise PropertyViolation("IR-rider", f"q_r {m.q_r} > P_r {m.P_r}",
                                inst.replay_doc())


def reprice_fixed_matching(inst: RandomInstance,
                           settlement: pricing.EpochSettlement,
                           b: dict[str, float], delta: dict[str, float],
                           floor_enabled: bool = False):
    """Reprice the settled matching under different reports, matching held fixed.

    Sensing gains are bid-independent, so the original removal marginals (and
    hence the shares) remain valid. Returns the new settlement or None when
    the perturbed matched set violates the welfare floor.
    """
    tmd, tmr = inst.tau_min_d, inst.tau_min_r
    new_edges = []
    for e in settlement.solution.chosen:
        t = inst.tau[e.pair]
        new_edges.append(replace(
            e,
            P_d=driver_valuation(inst.rates, inst.h[e.rider], b[e.driver], t,
                                 tmd[e.driver], inst.f[e.rider]),
            P_r=rider_valuation(inst.rates, inst.h[e.rider], delta[e.rider], t,
                                tmr[e.rider])))
    welfare = sum(e.sigma for e in new_edges)
    if welfare < -TOL:
        return None
    new_solution = MatchingSolution(
        chosen=tuple(new_edges),
        objective_value=settlement.solution.objective_value,
        welfare_total=welfare)
    shares = {m.driver: m.share_d for m in settlement.priced}
    shares.update({m.rider: m.share_r for m in settlement.priced})
    # Rebuild marginals consistent with the frozen shares: any positive
    # scale of the shares gives them back, so take them verbatim.
    u_star = settlement.solution.objective_value
    marginals = {p: u_star - s for p, s in shares.items()}
    return pricing.ds_prices(new_solution, marginals, inst.rates,
                             floor_enabled=floor_enabled)


def check_group_ic(inst: RandomInstance, rng: np.random.Generator,
                   retries: int = 50) -> bool:
    """Total matched utility is invariant to misreporting (floor disabled).

    Returns False when no perturbation kept the matched welfare non-negative
    (the trial is then inconclusive, not a failure).
    """
    sp = inst.problem("sensing")
    truthful = pricing.settle_epoch(pricing.DS, sp, inst.rates,
                                    floor_enabled=False)
    if not truthful.priced:
        return False
    v_bar = truthful.welfare_total
    for _ in range(retries):
        b = dict(inst.b_true)
        delta = dict(inst.delta_true)
        for m in truthful.priced:
            b[m.driver] += float(rng.uniform(-0.3, 0.5))
            delta[m.rider] += float(rng.uniform(-0.3, 0.5))
        repriced = reprice_fixed_matching(inst, truthful, b, delta)
        if repriced is None:
            continue
        total = 0.0
        for m in repriced.priced:
            true_pd = _true_pd(inst, m)
            true_pr = _true_pr(inst, m)
            total += (m.q_d - true_pd) + (true_pr - m.q_r)
        if abs(total - v_bar) > TOL:
            raise PropertyViolation(
                "G-IC", f"total utility {total} != truthful welfare {v_bar}",
                inst.replay_doc())
        return True
    return False


def _true_pd(inst: RandomInstance, m: pricing.PricedMatch) -> float:
    t = inst.tau[(m.driver, m.rider)]
    return driver_valuation(inst.rates, inst.h[m.rider],
                            inst.b_true[m.driver], t,
                            inst.tau_min_d[m.driver], inst.f[m.rider])


def _true_pr(inst: RandomInstance, m: pricing.PricedMatch) -> float:
    t = inst.tau[(m.driver, m.rider)]
    return rider_valuation(inst.rates, inst.h[m.rider],
                           inst.delta_true[m.rider], t,
                           inst.tau_min_r[m.rider])


def check_reporting_lemmas(inst: RandomInstance,
                           rng: np.random.Generator) -> bool:
    """Matched utility moves with the report when there is extra pick-up.

    sign(u - u_truthful) must equal sign(report - truth) for the perturbed
    matched participant; everyone else reports truthfully. Returns False when
    the instance has no usable matched participant or no feasible perturbation.
    """
    sp = inst.problem("sensing")
    truthful = pricing.settle_epoch(pricing.DS, sp, inst.rates,
                                    floor_enabled=False)
    tmd, tmr = inst.tau_min_d, inst.tau_min_r
    for m in truthful.priced:
        t = inst.tau[(m.driver, m.rider)]
        for side, slack in (("driver", t - tmd[m.driver]),
                            ("rider", t - tmr[m.rider])):
            if slack <= 1e-6:
                continue
            eps = float(rng.uniform(-0.3, 0.5))
            if abs(eps) < 1e-3:
                eps = 0.1
            b = dict(inst.b_true)
            delta = dict(inst.delta_true)
            if side == "driver":
                b[m.driver] += eps
            else:
                delta[m.rider] += eps
            repriced = reprice_fixed_matching(inst, truthful, b, delta)
            if repriced is None:
                continue
            new = next(x for x in repriced.priced if x.driver == m.driver)
            if side == "driver":
                du = (new.q_d - _true_pd(inst, new)) - (m.q_d - m.P_d)
            else:
                du = (_true_pr(inst, new) - new.q_r) - (m.P_r - m.q_r)
            if du * eps < -TOL:
                raise PropertyViolation(
                    "reporting-lemma",
                    f"{side} utility moved {du} against report change {eps}",
                    inst.replay_doc())
            return True
    return False


def check_envy_free(inst: RandomInstance) -> bool:
    """Duplicated riders (and drivers) receive equal utilities when both match."""
    did_check = False
    for clone_side in ("rider", "driver"):
        clone = _with_clone(inst, clone_side)
        if clone is None:
            continue
        inst2, orig_id, clone_id = clone
        sp = inst2.problem("sensing")
        ds = pricing.settle_epoch(pricing.DS, sp, inst2.rates,
                                  floor_enabled=False)
        utils = {}
        for m in ds.priced:
            utils[m.driver] = m.u_d
            utils[m.rider] = m.u_r
        if orig_id in utils and clone_id in utils:
            did_check = True
            if abs(utils[orig_id] - utils[clone_id]) > TOL:
                raise PropertyViolation(
                    "envy-free",
                    f"duplicate {clone_side}s got {utils[orig_id]} vs "
                    f"{utils[clone_id]}", inst2.replay_doc())
    return did_check


def _with_clone(inst: RandomInstance, side: str):
    if side == "rider":
        riders = sorted(inst.delta_true)
        if not riders:
            return None
        r0 = riders[0]
        rc = r0 + "_twin"
        tau = dict(inst.tau)
        for (d, r), t in inst.tau.items():
            if r == r0:
                tau[(d, rc)] = t
        if not any(r == r0 for (_, r) in inst.tau):
            return None
        inst2 = RandomInstance(
            rates=inst.rates, b_true=dict(inst.b_true),
            delta_true={**inst.delta_true, rc: inst.delta_true[r0]},
            h={**inst.h, rc: inst.h[r0]}, f={**inst.f, rc: inst.f[r0]},
            tau=tau, zeta={**inst.zeta, rc: inst.zeta[r0]})
        return inst2, r0, rc
    drivers = sorted(inst.b_true)
    if not drivers:
        return None
    d0 = drivers[0]
    dc = d0 + "_twin"
    tau = dict(inst.tau)
    for (d, r), t in inst.tau.items():
        if d == d0:
            tau[(dc, r)] = t
    if not any(d == d0 for (d, _) in inst.tau):
        return None
    inst2 = RandomInstance(
        rates=inst.rates, b_true={**inst.b_true, dc: inst.b_true[d0]},
        delta_true=dict(inst.delta_true), h=dict(inst.h), f=dict(inst.f),
        tau=tau, zeta=dict(inst.zeta))
    return inst2, d0, dc


ALL_CHECKS = ("exactness", "settlement", "group_ic", "reporting", "envy_free")


def run_property_suite(trials: int, max_drivers: int = 6, max_riders: int = 6,
                       seed: int = 0, progress=None) -> dict:
    """Run all property checks over random instances; returns per-check counts.

    Raises PropertyViolation (with a replayable instance attached) on the
    first failure.
    """
    rng = np.random.default_rng(seed)
    counts = {name: 0 for name in ALL_CHECKS}
    for i in range(trials):
        inst = random_instance(rng, max_drivers, max_riders)
        check_exactness(inst)
        counts["exactness"] += 1
        check_settlement_properties(inst)
        counts["settlement"] += 1
        if check_group_ic(inst, rng):
            counts["group_ic"] += 1
        if check_reporting_lemmas(inst, rng):
            counts["reporting"] += 1
        if check_envy_free(inst):
            counts["envy_free"] += 1
        if progress:
            progress(i + 1, trials)
    return counts
