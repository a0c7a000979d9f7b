"""Candidate-edge construction and exact solvers for the two matching programs.

Both programs assign drivers to riders one-to-one. The welfare program
maximizes total social welfare; the sensing program maximizes total sensing
gain subject to the matched set's total welfare being non-negative. Solutions
are fully deterministic: ties are resolved by a total ordering (welfare, then
lower total pick-up distance, then lexicographic edge list).

Which path runs:

- Welfare: one linear_sum_assignment (LSA) on max(sigma, 0) over the edges
  with sigma >= 0 gives the optimum and a pick, the only incumbent of
  _welfare_tie_break: an edge branch-and-bound over the welfare face
  (_welfare_face), bounded by the face's duals (_FaceBound) with no LSA.
  chosen is the winner's order, observable in the event log: driver id for
  the pick, (-sigma, tau, pair) for a branch-and-bound leaf.
- One index per settle (settle_index): an _Instance over the sigma >= 0
  edges (welfare) or all edges (sensing), shared by the solve and all
  removals.
- VCG removal marginals (welfare_marginals): each removal is one LSA on the
  welfare index with the participant's row or column, and every row and
  column left without an edge, dropped.
- Sensing: zeta is the gain of the requested trip, one value per rider. The
  sensing index maps each rider to it once, on first use, and raises
  ContractError when one rider's edges carry two values. The sensing total
  depends only on which riders are served, so pass 1
  (_optimal_primary_riders), every DS removal and pass 2 (_pass2_riders,
  with pass 1's matching as its only incumbent) each walk rider subsets on
  one _RiderSearch: one rider order, one zeta bound and one big-M welfare
  relaxation (relaxed_sigma), also behind pass 2's tie-break of each rider
  set (best_for_set). chosen is the winner's order: driver id for pass 1's
  matching, rider id for a best_for_set result.
- DS removal marginals (sensing_marginals): each removal is a pass-1 search
  over a slice of the settle's _Instance, with rows and columns dropped as
  for VCG, so it sees exactly the arrays a rebuilt reduced index would
  hold. It starts from an incumbent, the optimal rider set R* for a driver
  removal and R* less the rider for a rider removal, kept only if it meets
  the welfare floor, and ends once it reaches the full optimum U* (within
  1e-12). That is exact: removing a participant only deletes feasible
  matchings, so no removal's optimum exceeds U*. Most driver removals cost
  one LSA.
- Floor bound (_FloorBound): the zeta bound, prefix sums, cannot see the
  welfare floor. Lagrangian relaxation of the floor can: for lam >= 0,
  sum(zeta) <= max over matchings of sum(zeta + lam * sigma) for every
  matching that meets it, and at a node that maximum is one LSA (forced
  riders must be served, excluded ones cannot). lam is computed once per
  settle, on first use, by breakpoint iteration on the root bound
  (_Instance.floor_multiplier, a few LSAs) and kept on the settle's
  _Instance, never on the problem; the solve, pass 2 and every removal
  share it. A search turns the bound on after _LAGRANGE_AFTER nodes. A
  child whose parent's Lagrangian matching still fits it inherits the bound
  without an LSA, and an inner node whose held matching has welfare >=
  _FLOOR_SLACK skips relaxed_sigma, which it would pass for sure.
- Prune-only rule: the bound removes only subtrees in which the search
  without it would accept no leaf (pass 1) or tie-break no rider set
  (pass 2), with slack for the floor's 1e-9 tolerance and the big-M
  relaxation's rounding. So the full solve reaches the same pass-1 seed,
  visits the same pass-2 leaves in the same order and returns the same
  matching. Only a removal search, which needs just the value, also takes a
  node's Lagrangian matching as its incumbent when its welfare is >= -1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import market, sensing as sensing_mod
from .errors import ContractError
from .gridworld import GridWorld, ProspectModel, opportunity_cost

_TOL = 1e-9
_PRUNE_TOL = 1e-12
# A rider-subset search turns its Lagrangian floor bound on after this many
# nodes. Measured in LSA calls per settle: from 8 down, searches too short to
# repay the multiplier and the bound's own solves add 3-10% on 8x8 markets;
# from 32 up, the bound starts late on 150-driver ds markets (stress18-vcg-e10:
# 329 LSAs at 16, 399 at 32, 419 without the bound).
_LAGRANGE_AFTER = 16
# Welfare margin between the Lagrangian tests and the big-M welfare
# relaxation (relaxed_sigma) they must agree with. That relaxation rounds
# each forced term at ulp(big), about 2e-9 on 150-driver markets (big ~1e7),
# so its totals and its LSA's choice can be off by ~1e-7 there. A prune
# grants leaves lam * 1e-4 more bound than the floor allows, and a node
# skips relaxed_sigma only when a matching it holds has welfare >= 1e-4.
_FLOOR_SLACK = 1e-4

WELFARE = "welfare"
SENSING = "sensing"


@dataclass(frozen=True)
class CandidateEdge:
    driver: str
    rider: str
    tau: float          # pick-up distance, km
    P_d: float
    P_r: float
    zeta: float         # sensing gain of the requested trip
    h_r: float = 0.0    # trip length, needed for the charge floor

    @property
    def sigma(self) -> float:
        return self.P_r - self.P_d

    @property
    def pair(self) -> tuple[str, str]:
        return self.driver, self.rider


@dataclass
class MatchingProblem:
    edges: list[CandidateEdge]
    drivers: tuple[str, ...]
    riders: tuple[str, ...]
    objective: str = WELFARE

    def __post_init__(self):
        pairs = [e.pair for e in self.edges]
        if len(pairs) != len(set(pairs)):
            raise ContractError("duplicate (driver, rider) edge")

    def without(self, participant: str) -> "MatchingProblem":
        """Copy of the problem with all edges incident to a participant removed."""
        return MatchingProblem(
            edges=[e for e in self.edges
                   if e.driver != participant and e.rider != participant],
            drivers=tuple(d for d in self.drivers if d != participant),
            riders=tuple(r for r in self.riders if r != participant),
            objective=self.objective)


@dataclass(frozen=True)
class MatchingSolution:
    chosen: tuple[CandidateEdge, ...]
    objective_value: float
    welfare_total: float

    @property
    def matched_drivers(self) -> tuple[str, ...]:
        return tuple(e.driver for e in self.chosen)

    @property
    def matched_riders(self) -> tuple[str, ...]:
        return tuple(e.rider for e in self.chosen)


def build_candidates(drivers, riders, world: GridWorld, rates: market.Rates,
                     prospect_model: ProspectModel,
                     coverage: sensing_mod.CoverageState,
                     sensing_params: sensing_mod.SensingParams,
                     radius: float) -> MatchingProblem:
    """Assemble one decision epoch's candidate edges.

    An edge exists for every (driver, rider) pair within the search radius.
    Minimum pick-up distances are taken over each participant's in-radius
    counterparts; sensing gains are frozen against the current coverage and
    never include the pick-up leg.
    """
    taus: dict[tuple[str, str], float] = {}
    for d in drivers:
        for r in riders:
            t = math.dist(d.location, r.origin)
            if t <= radius + _TOL:
                taus[(d.id, r.id)] = t
    tau_min_d = {}
    tau_min_r = {}
    for (did, rid), t in taus.items():
        tau_min_d[did] = min(tau_min_d.get(did, math.inf), t)
        tau_min_r[rid] = min(tau_min_r.get(rid, math.inf), t)

    rider_info = {}
    for r in riders:
        if r.id not in tau_min_r:
            continue
        dest_cell = world.cell_of(r.dest)
        f = opportunity_cost(prospect_model, prospect_model.prospects[dest_cell])
        zeta = sensing_mod.marginal_gain(sensing_params, coverage, r.route.cells)
        rider_info[r.id] = (r, f, zeta)

    edges = []
    for d in drivers:
        for r in riders:
            t = taus.get((d.id, r.id))
            if t is None:
                continue
            rr, f, zeta = rider_info[r.id]
            P_d = market.driver_valuation(rates, rr.route.length, d.b_reported,
                                          t, tau_min_d[d.id], f)
            P_r = market.rider_valuation(rates, rr.route.length,
                                         rr.delta_reported, t, tau_min_r[r.id])
            edges.append(CandidateEdge(driver=d.id, rider=r.id, tau=t,
                                       P_d=P_d, P_r=P_r, zeta=zeta,
                                       h_r=rr.route.length))
    return MatchingProblem(edges=edges, drivers=tuple(d.id for d in drivers),
                           riders=tuple(r.id for r in riders))


def solve_welfare_max(problem: MatchingProblem,
                      index: _Instance | None = None) -> MatchingSolution:
    """Exact welfare-maximizing matching; negative-welfare edges never help.

    One assignment solve gives the optimum and a pick, and
    _welfare_tie_break searches the welfare face from it. `index` is the
    settle_index, built when not given.
    """
    m = _welfare_index(problem.edges) if index is None else index
    chosen = _welfare_tie_break(problem, m, _lsa_pick(m.s_raw, m.by_pair)[1])
    value = _canonical_sum(chosen, "sigma")
    return MatchingSolution(chosen=chosen, objective_value=value,
                            welfare_total=value)


def solve_sensing_max(problem: MatchingProblem,
                      inst: _Instance | None = None) -> MatchingSolution:
    """Exact sensing-maximizing matching with a non-negative total-welfare floor.

    Pass 1 (_optimal_primary_riders) finds the optimal sensing total and
    pass 2 (_pass2_riders) the tie-break-optimal matching attaining it.
    `inst` is the problem's settle_index, built here when not given.
    """
    inst = _Instance(problem.edges) if inst is None else inst
    p_star, seed = _optimal_primary_riders(_RiderSearch(inst))
    chosen = _pass2_riders(inst, p_star, seed)
    return MatchingSolution(chosen=chosen,
                            objective_value=_canonical_sum(chosen, "zeta"),
                            welfare_total=_canonical_sum(chosen, "sigma"))


def settle_index(problem: MatchingProblem):
    """The _Instance one settle builds once and shares between its solve and
    its removal marginals: the welfare index, or the sensing one.

    Built per settle and passed down, never kept on the problem, so a
    problem object can be settled again under either objective.
    """
    if problem.objective == WELFARE:
        return _welfare_index(problem.edges)
    if problem.objective == SENSING:
        return _Instance(problem.edges)
    raise ContractError(f"unknown objective {problem.objective!r}")


def solve(problem: MatchingProblem, index=None) -> MatchingSolution:
    """Solve under the problem's objective; `index` is its settle_index."""
    if problem.objective == WELFARE:
        return solve_welfare_max(problem, index)
    if problem.objective == SENSING:
        return solve_sensing_max(problem, index)
    raise ContractError(f"unknown objective {problem.objective!r}")


def marginal_objective(problem: MatchingProblem, remove: str) -> float:
    """Optimal objective after removing one participant's edges.

    A per-removal reference for tests: settles price removals with
    welfare_marginals and sensing_marginals, and tests compare those against
    this. It rebuilds the reduced problem's index: the welfare value is one
    LSA on the reduced welfare index, the sensing value pass 1 of the exact
    search on a reduced sensing index, with no slicing and no warm start.
    """
    if remove not in problem.drivers and remove not in problem.riders:
        raise ContractError(f"participant {remove!r} not in problem")
    reduced = problem.without(remove)
    if reduced.objective == WELFARE:
        m = _welfare_index(reduced.edges)
        return _canonical_sum(_lsa_pick(m.s_raw, m.by_pair)[1], "sigma")
    if reduced.objective == SENSING:
        search = _RiderSearch(_Instance(reduced.edges))
        return _optimal_primary_riders(search)[0]
    raise ContractError(f"unknown objective {reduced.objective!r}")


def _removals(index, problem: MatchingProblem, participants):
    """Yield (participant, rows, cols) for each removal.

    rows and cols select, in order, the rows and columns of `index` that an
    index rebuilt from problem.without(participant) would hold: the
    participant's row or column goes, and so does every column or row whose
    only edges it held (found from per-row and per-column edge counts).
    Driver and rider ids are distinct.
    """
    known = set(problem.drivers) | set(problem.riders)
    has_edge = index.has_edge
    n_row, n_col = has_edge.sum(axis=1), has_edge.sum(axis=0)
    all_rows, all_cols = np.arange(n_row.size), np.arange(n_col.size)
    for p in participants:
        if p not in known:
            raise ContractError(f"participant {p!r} not in problem")
        rows, cols = all_rows, all_cols
        if p in index.d_index:
            i = index.d_index[p]
            rows = np.delete(all_rows, i)
            cols = np.flatnonzero(n_col > has_edge[i])
        elif p in index.r_index:
            j = index.r_index[p]
            rows = np.flatnonzero(n_row > has_edge[:, j])
            cols = np.delete(all_cols, j)
        yield p, rows, cols


def welfare_marginals(problem: MatchingProblem, participants,
                      index: _Instance | None = None) -> dict[str, float]:
    """marginal_objective under the welfare objective, for many removals.

    The welfare index (the settle index, built here when not given) is
    shared by all removals. Each removal drops rows and columns as
    _removals says, so the assignment solve sees the same matrix that a
    rebuilt reduced problem would index, and picks the same matching. Its
    value is kept in the index's `removed`, so a removal that the welfare
    face and the settle's pricing both ask for is solved once.
    """
    m = _welfare_index(problem.edges) if index is None else index
    new = [p for p in participants if p not in m.removed]
    for p, rows, cols in _removals(m, problem, new):
        grid = np.ix_(rows, cols)
        m.removed[p] = _canonical_sum(
            _lsa_pick(m.s_raw[grid], m.by_pair[grid])[1], "sigma")
    return {p: m.removed[p] for p in participants}


def sensing_marginals(problem: MatchingProblem, solution: MatchingSolution,
                      participants,
                      inst: _Instance | None = None) -> dict[str, float]:
    """marginal_objective under the sensing objective, for many removals.

    `solution` must be the sensing optimum of `problem` and `inst` its
    settle index (built here when not given). Each removal is a slice of
    that index, searched from a warm start with an early exit (see the
    module docstring).
    """
    index = _Instance(problem.edges) if inst is None else inst
    optimal_set = frozenset(solution.matched_riders)
    out = {}
    for p, rows, cols in _removals(index, problem, participants):
        if not (rows.size and cols.size):
            out[p] = 0.0
            continue
        out[p], _ = _optimal_primary_riders(
            _RiderSearch(index, rows, cols), incumbent=optimal_set - {p},
            target=solution.objective_value)
    return out


def _welfare_index(edges) -> _Instance:
    """The welfare program's _Instance, over the edges with sigma >= 0."""
    return _Instance([e for e in edges if e.sigma >= 0.0])


def _lsa_pick(w: np.ndarray, by_pair: np.ndarray) -> tuple[float, tuple]:
    """One LSA optimum of w: its value and its positive-weight edges, in row
    order, with no solve when w is empty. by_pair holds the edge at each
    cell of w."""
    if not w.size:
        return 0.0, ()
    ri, ci = linear_sum_assignment(w, maximize=True)
    keep = w[ri, ci] > 0.0
    return float(w[ri, ci].sum()), tuple(by_pair[ri[keep], ci[keep]])


def _welfare_tie_break(problem: MatchingProblem, m: _Instance,
                       pick) -> tuple[CandidateEdge, ...]:
    """Tie-break-optimal maximum-welfare matching of the welfare index m.

    `pick`, one LSA optimum in driver id order, is the only incumbent, and
    its total the optimum p*. An edge branch-and-bound over _welfare_face,
    bounded by _FaceBound, takes a leaf only when _better ranks it above the
    incumbent. chosen keeps the winner's order.
    """
    p_star = _canonical_sum(pick, "sigma")
    best_key, best_chosen = _solution_key(pick, "sigma"), pick
    face, u, v = _welfare_face(problem, m, pick)
    bound = _FaceBound(m, face, u, v)
    ends, n_edges = bound.ends, len(face)
    free_d, free_r = ([True] * n for n in m.s_raw.shape)
    stack: list[CandidateEdge] = []

    def recurse(idx, cur_v, cur_t):
        nonlocal best_key, best_chosen
        while idx < n_edges:
            i, j = ends[idx]
            if free_d[i] and free_r[j]:
                break
            idx += 1
        if idx == n_edges:
            if cur_v < p_star - _TOL:
                return
            key = _solution_key(stack, "sigma")
            if _better(key, best_key):
                best_key, best_chosen = key, tuple(stack)
            return
        ub_v = cur_v + bound(free_d, free_r, idx)
        if ub_v < best_key[1] - _PRUNE_TOL:
            return
        if ub_v <= best_key[1] + _PRUNE_TOL and cur_t > best_key[2] + _PRUNE_TOL:
            return
        e = face[idx]
        free_d[i] = free_r[j] = False
        stack.append(e)
        recurse(idx + 1, cur_v + e.sigma, cur_t + e.tau)
        stack.pop()
        free_d[i] = free_r[j] = True
        recurse(idx + 1, cur_v, cur_t)

    recurse(0, 0.0, 0.0)
    return best_chosen


def _welfare_face(problem: MatchingProblem, m: _Instance, pick):
    """The sigma > 0 edges of m with reduced cost <= 1e-6, in (-sigma, tau,
    pair) order, and the duals u (rows) and v (columns) that price them.

    Each driver of the LSA pick earns its marginal contribution V - V_-d
    (welfare_marginals), its rider the rest of the edge, every other vertex
    0: the drivers' optimal point of the assignment game's core, which is an
    optimal dual of its LP (Shapley and Shubik 1971; Leonard 1983). By
    complementary slackness every optimal matching lies on these edges.
    """
    value = _canonical_sum(pick, "sigma")
    removed = welfare_marginals(problem, [e.driver for e in pick], m)
    u, v = np.zeros(m.s_raw.shape[0]), np.zeros(m.s_raw.shape[1])
    for e in pick:
        i, j = m.d_index[e.driver], m.r_index[e.rider]
        u[i] = value - removed[e.driver]
        v[j] = e.sigma - u[i]
    keep = (m.s_raw > 0.0) & (u[:, None] + v[None, :] - m.s_raw <= 1e-6)
    face = sorted(m.by_pair[keep], key=lambda e: (-e.sigma, e.tau, e.pair))
    return face, u, v


class _FaceBound:
    """What the undecided face edges (index >= idx, both ends free) can still
    add at a node of _welfare_tie_break. By weak duality a matching of k of
    them adds at most max(u, 0) and max(v, 0) summed over the vertices they
    can join, plus k times the face's most negative reduced cost, which
    rounding leaves; math.fsum adds no rounding of its own."""

    def __init__(self, m: _Instance, face, u, v):
        self.ends = [(m.d_index[e.driver], m.r_index[e.rider]) for e in face]
        self.u, self.v = np.maximum(u, 0.0).tolist(), np.maximum(v, 0.0).tolist()
        self.slack = max([0.0] + [-math.fsum((u[i], v[j], -e.sigma))
                                  for (i, j), e in zip(self.ends, face)])

    def __call__(self, free_d, free_r, idx) -> float:
        rows, cols = set(), set()
        for i, j in self.ends[idx:]:
            if free_d[i] and free_r[j]:
                rows.add(i)
                cols.add(j)
        return math.fsum([self.u[i] for i in rows] + [self.v[j] for j in cols]
                         + [self.slack] * min(len(rows), len(cols)))


def _canonical_sum(chosen, attr: str) -> float:
    # Fixed summation order so identical edge sets yield bit-identical totals.
    return float(sum(getattr(e, attr) for e in sorted(chosen, key=lambda e: e.pair)))


def _solution_key(chosen, primary: str):
    ordered = sorted(chosen, key=lambda e: e.pair)
    tau_total = float(sum(e.tau for e in ordered))
    welfare = float(sum(e.sigma for e in ordered))
    value = welfare if primary == "sigma" else float(sum(e.zeta for e in ordered))
    return value, welfare, tau_total, tuple(e.pair for e in ordered)


def _better(a, b) -> bool:
    """Order over solution keys (value, welfare, tau_total, pairs).

    Float totals of distinct edge sets can differ by ~1e-15 even when they
    are mathematically tied, so equality is taken within _PRUNE_TOL.
    """
    if abs(a[0] - b[0]) > _PRUNE_TOL:
        return a[0] > b[0]
    if abs(a[1] - b[1]) > _PRUNE_TOL:
        return a[1] > b[1]
    if abs(a[2] - b[2]) > _PRUNE_TOL:
        return a[2] < b[2]
    # Prefer the lexicographically smaller pair list; a strict prefix wins.
    return a[3] < b[3]


class _Instance:
    """One settle's index, shared by its solve and all removals.

    Rows and columns are drivers and riders in id order. s_raw holds each
    edge's sigma (0 off the edges), has_edge the edges, by_pair their
    objects. The sensing program's zr (each rider's zeta) and z_raw (each
    edge's) are built on first use: a rider with two zeta values raises
    ContractError there, and the welfare program never reads them.
    removed holds the welfare_marginals values solved so far, by
    participant.
    """

    def __init__(self, edges):
        self.edges = edges
        self.d_index = {d: i for i, d in
                        enumerate(sorted({e.driver for e in edges}))}
        self.r_index = {r: i for i, r in
                        enumerate(sorted({e.rider for e in edges}))}
        shape = len(self.d_index), len(self.r_index)
        self.s_raw = np.zeros(shape)
        self.has_edge = np.zeros(shape, dtype=bool)
        # Pair lookup as an array, so a removal can slice it like the rest.
        self.by_pair = np.empty(shape, dtype=object)
        for e in edges:
            i, j = self.d_index[e.driver], self.r_index[e.rider]
            self.s_raw[i, j] = e.sigma
            self.has_edge[i, j] = True
            self.by_pair[i, j] = e
        self._floor_lam: float | None = None
        self.removed: dict[str, float] = {}

    @cached_property
    def zr(self) -> dict[str, float]:
        zr: dict[str, float] = {}
        for e in self.edges:
            if zr.setdefault(e.rider, e.zeta) != e.zeta:
                raise ContractError(f"rider {e.rider!r} has two zeta values")
        return zr

    @cached_property
    def z_raw(self) -> np.ndarray:
        zeta = np.array([self.zr[r] for r in self.r_index])
        return np.where(self.has_edge, zeta, 0.0)

    def floor_multiplier(self) -> float:
        """The multiplier of the sensing program's welfare floor.

        The lam >= 0 minimising g(lam) = max over matchings of
        sum(zeta + lam * sigma), the Lagrangian bound on the sensing total
        of any matching that meets the floor. Computed on first use and kept,
        so the solve, pass 2 and every removal of a settle share one lam;
        removals search slices of this index, and any lam >= 0 bounds them.

        g is convex and piecewise linear, and each LSA returns one of its
        lines: a matching's sensing and welfare totals. Breakpoint (Newton)
        iteration intersects the lowest known line of negative slope with
        the lowest of non-negative slope (at first the empty matching's) and
        solves there, until the solve finds no higher line.
        """
        if self._floor_lam is None:

            def line(lam):
                # 0 off the edges, where z_raw and s_raw are 0.
                w = np.maximum(self.z_raw + lam * self.s_raw, 0.0)
                pick = _lsa_pick(w, self.by_pair)[1]
                return (_canonical_sum(pick, "zeta"),
                        _canonical_sum(pick, "sigma"))

            a_lo, b_lo = line(0.0)
            a_hi = b_hi = lam = 0.0
            # Each pass finds a line of g not seen before, so this ends; the
            # cap only guards against rounding, since any lam >= 0 is valid.
            for _ in range(64 if b_lo < 0.0 else 0):
                lam = max((a_hi - a_lo) / (b_lo - b_hi), 0.0)
                a, b = line(lam)
                top = a_lo + lam * b_lo
                if a + lam * b <= top + _PRUNE_TOL * (1.0 + abs(top)):
                    break
                if b < 0.0:
                    a_lo, b_lo = a, b
                else:
                    a_hi, b_hi = a, b
            self._floor_lam = lam
        return self._floor_lam


@dataclass(frozen=True)
class _Relaxed:
    """One Lagrangian node solve: its value, the riders its matching serves
    beyond the forced ones, the matching's cells and its welfare."""
    value: float
    served: frozenset
    rows: np.ndarray
    cols: np.ndarray
    sigma: float


class _FloorBound:
    """Lagrangian bound on the sensing total below a rider-subset node.

    For lam >= 0, any matching M with sum(sigma) >= 0 has sum(zeta) <=
    sum(zeta + lam * sigma) over M. Over the matchings that serve the node's
    forced riders and none of its excluded ones, that maximum is one LSA,
    because the assignment polytope is integral: forced columns carry
    zeta + lam * sigma and -inf on missing edges; an undecided column may
    also stay unserved, so it carries max(zeta + lam * sigma, 0) and 0 on
    missing edges, and zero-weight dummy rows (-inf under forced columns)
    make up any shortfall of drivers. An infeasible LSA (ValueError) means
    no matching serves the forced riders.

    `slack` covers what the prune tests must grant: lam * _FLOOR_SLACK of
    welfare tolerance, and the rounding of a sum of up to n weights.
    """

    def __init__(self, s_raw, has_edge, r_index, zr, lam: float):
        self.lam = lam
        self.s_raw = s_raw
        zeta = np.zeros(has_edge.shape[1])
        for r, j in r_index.items():
            zeta[j] = zr[r]
        w = zeta[None, :] + lam * s_raw
        # [forced?, column, row], so a node's matrix is one gather.
        self.by_status = np.stack((np.where(has_edge, np.maximum(w, 0.0), 0.0).T,
                                   np.where(has_edge, w, -np.inf).T))
        # An undecided column that no edge gives a positive weight is never
        # served, so it is left out of every solve.
        self.useful = self.by_status[0].max(axis=1, initial=0.0) > 0.0
        scale = float(np.abs(w[has_edge]).max(initial=0.0))
        self.slack = (lam * _FLOOR_SLACK
                      + 1e-12 * (1.0 + has_edge.shape[1] * scale))

    def __call__(self, forced_cols, open_cols) -> _Relaxed | None:
        n_f = len(forced_cols)
        cols = forced_cols + [j for j in open_cols if self.useful[j]]
        n_d, n_c = self.s_raw.shape[0], len(cols)
        if n_c == 0:
            return _Relaxed(0.0, frozenset(), np.empty(0, int),
                            np.empty(0, int), 0.0)
        w = self.by_status[[1] * n_f + [0] * (n_c - n_f), cols].T
        if n_d < n_c:
            pad = np.zeros((n_c - n_d, n_c))
            pad[:, :n_f] = -np.inf
            w = np.vstack((w, pad))
        try:
            ri, ci = linear_sum_assignment(w, maximize=True)
        except ValueError:
            return None
        picked = w[ri, ci]
        keep = (ri < n_d) & ((ci < n_f) | (picked > 0.0))
        rows, ci = ri[keep], ci[keep]
        cols = np.asarray(cols)[ci]
        return _Relaxed(float(picked.sum()),
                        frozenset(cols[ci >= n_f].tolist()),
                        rows, cols, float(self.s_raw[rows, cols].sum()))


class _RiderSearch:
    """One rider-subset search of the sensing program, over an _Instance's
    arrays or over their slice at a removal's rows and cols.

    The sensing total depends only on which riders are matched, so the
    search decides riders one by one in (-zeta, id) order (r_idx holds their
    columns), 'in' before 'out'. zeta_bound is the prefix-sum bound on what
    the undecided riders can add. relaxed_sigma is the big-M welfare
    relaxation at the current status (0 undecided, 1 in, 2 out), and
    best_for_set tie-breaks one fixed rider set.
    """

    def __init__(self, inst: _Instance, rows=None, cols=None):
        grid, self.r_index = (slice(None), slice(None)), inst.r_index
        if rows is not None:
            grid, riders = np.ix_(rows, cols), list(inst.r_index)
            self.r_index = {riders[j]: c for c, j in enumerate(cols)}
        self.s_raw, self.has_edge, self.by_pair = (
            inst.s_raw[grid], inst.has_edge[grid], inst.by_pair[grid])
        self.zr = zr = inst.zr
        self.floor_lam = inst.floor_multiplier
        self.riders = sorted(self.r_index, key=lambda r: (-zr[r], r))
        self.zeta = [zr[r] for r in self.riders]
        self.r_idx = [self.r_index[r] for r in self.riders]
        self.suffix = suffix = [0.0] * (len(self.riders) + 1)
        for k in range(len(self.riders) - 1, -1, -1):
            suffix[k] = suffix[k + 1] + max(self.zeta[k], 0.0)
        self.big = 1000.0 * (1.0 + float(np.abs(self.s_raw).sum()))
        self.required_edge = np.where(self.has_edge, self.s_raw + self.big,
                                      -self.big)
        self.optional_edge = np.where(self.has_edge,
                                      np.maximum(self.s_raw, 0.0), 0.0)
        self.status = [0] * len(self.riders)
        self.nodes = 0
        self.lag = None

    def zeta_bound(self, k, n_in, cur_p):
        # Riders come in descending zeta: the suffix's top is its prefix.
        take = min(self.s_raw.shape[0] - n_in, len(self.riders) - k)
        return cur_p + (self.suffix[k] - self.suffix[k + take])

    def _relax(self, w, n_req):
        """The welfare relaxation's one sum: (total, rows, cols) of one LSA
        on w, n_req of whose columns are required (required_edge). total is
        None when a required column is left unmatched or matched on a
        missing edge, which shows up as a missing +big term."""
        ri, ci = linear_sum_assignment(w, maximize=True)
        total = float(w[ri, ci].sum())
        if total < n_req * self.big - self.big / 2:
            return None, ri, ci
        return total - n_req * self.big, ri, ci

    def relaxed_sigma(self, with_pairs=False):
        """Max welfare with 'in' riders forced, undecided ones optional and
        'out' ones removed, or None when no matching serves the 'in' riders;
        it bounds the welfare of every completion. With `with_pairs`, also
        the matching: the LSA's positive-weight cells, in row order."""
        cols = [(st, j) for st, j in zip(self.status, self.r_idx) if st != 2]
        if not cols:
            return 0.0, ()
        w = np.empty((self.s_raw.shape[0], len(cols)))
        for c, (st, j) in enumerate(cols):
            w[:, c] = (self.optional_edge, self.required_edge)[st][:, j]
        total, ri, ci = self._relax(w, self.status.count(1))
        if total is None or not with_pairs:
            return total, ()
        keep = w[ri, ci] > 0.0
        js = np.array([j for _, j in cols])
        return total, tuple(self.by_pair[ri[keep], js[ci[keep]]])

    def run(self, open_node, visit):
        """Walk the rider subsets depth first.

        open_node(k, n_in, cur_p) is a node's zeta test, before it counts.
        After _LAGRANGE_AFTER counted nodes the search holds a _FloorBound,
        and each node a Lagrangian matching `held`: its parent's when that
        still fits (served riders stay in, unserved ones out), else one
        solve, and no matching prunes the node. visit(k, cur_p, held, fresh)
        then runs the node's floor tests and, at k == len(riders), its leaf;
        it returns False to prune.
        """
        n_d, n = self.s_raw.shape[0], len(self.riders)
        status, r_idx = self.status, self.r_idx

        def recurse(k, n_in, cur_p, held):
            if not open_node(k, n_in, cur_p):
                return
            self.nodes += 1
            if self.nodes > _LAGRANGE_AFTER and self.lag is None:
                self.lag = _FloorBound(self.s_raw, self.has_edge, self.r_index,
                                       self.zr, self.floor_lam())
            fresh = self.lag is not None and held is None
            if fresh:
                held = self.lag([j for j, st in zip(r_idx, status) if st == 1],
                                r_idx[k:])
                if held is None:
                    return
            if not visit(k, cur_p, held, fresh) or k == n:
                return
            served = held is not None and r_idx[k] in held.served
            if n_in < n_d:
                status[k] = 1
                recurse(k + 1, n_in + 1, cur_p + self.zeta[k],
                        held if served else None)
            status[k] = 2
            recurse(k + 1, n_in, cur_p, None if served else held)
            status[k] = 0

        recurse(0, 0, 0.0, None)

    def best_for_set(self, cols: list, best_key, best_chosen):
        """Tie-break-optimal matching covering exactly the given rider
        columns, if _better ranks it above best_key.

        With the matched rider set fixed, the required-assignment relaxation
        is a tight welfare bound, so the search only walks the genuine
        welfare/travel-time tie region.
        """
        free_d = np.ones(self.s_raw.shape[0], dtype=bool)
        chosen: list[CandidateEdge] = []
        col_arr = np.asarray(cols, dtype=int)

        def rest_bound(k):
            sub_cols = col_arr[k:]
            if sub_cols.size == 0:
                return 0.0
            rows = np.flatnonzero(free_d)
            if rows.size < sub_cols.size:
                return None
            return self._relax(self.required_edge[rows[:, None], sub_cols],
                               sub_cols.size)[0]

        def recurse(k, cur_v, cur_t):
            nonlocal best_key, best_chosen
            rest = rest_bound(k)
            if rest is None:
                return
            ub_v = cur_v + rest
            if ub_v < -_TOL:
                return
            if ub_v < best_key[1] - _PRUNE_TOL:
                return
            if (ub_v <= best_key[1] + _PRUNE_TOL
                    and cur_t > best_key[2] + _PRUNE_TOL):
                return
            if k == len(cols):
                key = _solution_key(tuple(chosen), "zeta")
                if _better(key, best_key):
                    best_key, best_chosen = key, tuple(chosen)
                return
            j = cols[k]
            for i in np.flatnonzero(self.has_edge[:, j]):
                if not free_d[i]:
                    continue
                e = self.by_pair[i, j]
                free_d[i] = False
                chosen.append(e)
                recurse(k + 1, cur_v + e.sigma, cur_t + e.tau)
                chosen.pop()
                free_d[i] = True

        recurse(0, 0.0, 0.0)
        return best_key, best_chosen


def _optimal_primary_riders(search: _RiderSearch, incumbent=frozenset(),
                            target=math.inf):
    """Pass 1 of the sensing program: the best sensing total, and a matching
    attaining it, over the matchings that meet the welfare floor.

    A removal search passes a rider set known to be good as `incumbent`
    (tried first and kept only if it meets the floor) and the full market's
    optimum as `target`; the search ends once its best value reaches
    target - _PRUNE_TOL. Its Lagrangian tests prune only where the zeta
    bound would let no leaf beat best_p either, so the full solve returns
    the same matching; a removal search, which needs only the value, also
    takes a node's Lagrangian matching as its incumbent when that matching
    meets the floor.
    """
    s = search
    best_p = 0.0
    best_chosen: tuple[CandidateEdge, ...] = ()
    if incumbent:
        # The leaf test of visit, on the incumbent's rider set.
        s.status[:] = [1 if r in incumbent else 2 for r in s.riders]
        sig, pairs = s.relaxed_sigma(with_pairs=True)
        cur_p = 0.0
        for z, st in zip(s.zeta, s.status):
            if st == 1:
                cur_p += z
        if sig is not None and sig >= -_TOL and cur_p > best_p:
            best_p, best_chosen = cur_p, pairs
        s.status[:] = [0] * len(s.status)
    stop = target - _PRUNE_TOL

    def open_node(k, n_in, cur_p):
        return (best_p < stop
                and s.zeta_bound(k, n_in, cur_p) > best_p + _PRUNE_TOL)

    def visit(k, cur_p, held, fresh):
        nonlocal best_p, best_chosen
        if held is not None:
            if fresh and target < math.inf and held.sigma >= -_TOL:
                pairs = tuple(s.by_pair[held.rows, held.cols])
                p_held = _canonical_sum(pairs, "zeta")
                if p_held > best_p:
                    best_p, best_chosen = p_held, pairs
                    if best_p >= stop:
                        return False
            if held.value + s.lag.slack <= best_p + _PRUNE_TOL:
                return False
        leaf = k == len(s.riders)
        # A held matching with welfare >= _FLOOR_SLACK passes this test for
        # sure, so an inner node need not run it.
        if leaf or held is None or held.sigma < _FLOOR_SLACK:
            sig, pairs = s.relaxed_sigma(with_pairs=leaf)
            if sig is None or sig < -_TOL:
                return False
        if leaf and cur_p > best_p:
            # No rider is undecided, so `pairs` serves exactly the 'in' ones.
            best_p, best_chosen = cur_p, pairs
        return True

    s.run(open_node, visit)
    return _canonical_sum(best_chosen, "zeta"), best_chosen


def _pass2_riders(inst: _Instance, p_star: float, seed):
    """Pass 2 of the sensing program: the tie-break-optimal matching among
    those with sensing total p_star that meet the floor.

    Pass 1's `seed` is the only incumbent. The search walks the rider sets
    that can still attain p_star, prunes those whose welfare relaxation
    fails the floor or falls below the best key's welfare, and tie-breaks
    each leaf's set with best_for_set. Its Lagrangian test: a leaf it
    tie-breaks holds zeta of at least p_star and, if it can still win,
    welfare of at least the best key's, so a subtree whose bound falls below
    p_star + lam * that welfare (less the slack) holds none. The leaves
    visited, and their order, are those of the search without the bound.
    """
    if p_star <= _PRUNE_TOL and not seed:
        # zeta is never negative, so every optimal matching serves only
        # riders with zeta 0; the maximum-welfare one of those meets the floor.
        zero = [e for e in inst.edges if inst.zr[e.rider] == 0.0]
        return solve_welfare_max(MatchingProblem(
            zero, tuple(inst.d_index), tuple(inst.r_index))).chosen
    s = _RiderSearch(inst)
    best_key, best_chosen = _solution_key(seed, "zeta"), seed

    def open_node(k, n_in, cur_p):
        return s.zeta_bound(k, n_in, cur_p) >= p_star - _PRUNE_TOL

    def visit(k, cur_p, held, fresh):
        nonlocal best_key, best_chosen
        if held is not None and (held.value + s.lag.slack
                                 < p_star - _TOL + s.lag.lam * best_key[1]):
            return False
        # As in pass 1, a held matching with enough welfare passes both
        # welfare tests for sure.
        if held is None or held.sigma < max(best_key[1], 0.0) + _FLOOR_SLACK:
            sig, _ = s.relaxed_sigma()
            if sig is None or sig < -_TOL or sig < best_key[1] - _PRUNE_TOL:
                return False
        if k == len(s.riders):
            cols = [j for j, st in zip(s.r_idx, s.status) if st == 1]
            best_key, best_chosen = s.best_for_set(sorted(cols), best_key,
                                                   best_chosen)
        return True

    s.run(open_node, visit)
    return best_chosen


def problem_to_json(problem: MatchingProblem) -> str:
    doc = {
        "objective": problem.objective,
        "drivers": list(problem.drivers),
        "riders": list(problem.riders),
        "edges": [{"d": e.driver, "r": e.rider, "tau": e.tau, "P_d": e.P_d,
                   "P_r": e.P_r, "zeta": e.zeta, "h": e.h_r}
                  for e in problem.edges],
    }
    return json.dumps(doc, indent=2)


def _is_existing_path(source) -> bool:
    try:
        return Path(str(source)).exists()
    except OSError:
        return False


def problem_from_json(source) -> MatchingProblem:
    if isinstance(source, (str, Path)) and _is_existing_path(source):
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    edges = [CandidateEdge(driver=e["d"], rider=e["r"], tau=float(e["tau"]),
                           P_d=float(e["P_d"]), P_r=float(e["P_r"]),
                           zeta=float(e["zeta"]), h_r=float(e.get("h", 0.0)))
             for e in doc["edges"]]
    drivers = tuple(doc.get("drivers") or sorted({e.driver for e in edges}))
    riders = tuple(doc.get("riders") or sorted({e.rider for e in edges}))
    return MatchingProblem(edges=edges, drivers=drivers, riders=riders,
                           objective=doc.get("objective", WELFARE))
