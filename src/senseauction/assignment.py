"""Candidate-edge construction and exact solvers for the two matching programs.

Both programs assign drivers to riders one-to-one. The welfare program
maximizes total social welfare; the sensing program maximizes total sensing
gain subject to the matched set's total welfare being non-negative. Solutions
are fully deterministic: ties are resolved by a total ordering (welfare, then
lower total pick-up distance, then lexicographic edge list).

Which path runs:

- Welfare: one linear_sum_assignment (LSA) on max(sigma, 0) over the edges
  with sigma >= 0. Its matching is returned, in driver id order, when a
  uniqueness certificate holds: zeroing any chosen edge's weight lowers the
  LSA optimum by more than 1e-9, and no sigma >= 0 edge joins a driver and a
  rider both left unmatched. Then no other matching comes within 1e-9 of the
  optimum, and since the tie-break compares totals within 1e-12 it would
  return the same edges. Otherwise (an exact tie, common when co-located
  drivers have identical welfare and pick-up distance and only the driver id
  decides) the exact two-pass branch-and-bound runs unchanged, because the
  order of its result is observable in the event log.
- One index per settle (settle_index): the welfare matrix or the sensing
  _Instance is built once and shared by the solve and all removals.
- VCG removal marginals (welfare_marginals): each removal is one LSA on the
  welfare matrix with the participant's row or column, and every row and
  column left without an edge, dropped.
- Sensing: the exact two-pass branch-and-bound solves the market.
- DS removal marginals (sensing_marginals): each removal is a slice of the
  settle's _Instance, with rows and columns dropped as for VCG, so the
  rider-subset search sees exactly the arrays a rebuilt reduced index would
  hold. The search starts from an incumbent, the optimal rider set R* for a
  driver removal and R* less the rider for a rider removal, kept only if it
  meets the welfare floor, and ends once it reaches the full optimum U*
  (within 1e-12). That is exact: removing a participant only deletes
  feasible matchings, so no removal's optimum exceeds U*. Most driver
  removals cost one LSA. Markets with per-edge zeta, which only the
  property harness draws, re-solve each removal with marginal_objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from . import market, sensing as sensing_mod
from .errors import ContractError
from .gridworld import GridWorld, ProspectModel, opportunity_cost, route

_TOL = 1e-9
_PRUNE_TOL = 1e-12

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
                      matrix: _WelfareMatrix | None = None) -> MatchingSolution:
    """Exact welfare-maximizing matching; negative-welfare edges never help.

    One assignment solve settles a market whose optimum is certified unique
    (see _certified_welfare_pick); ties go to the exact tie-break search.
    `matrix` is the problem's settle_index, built here when not given.
    """
    m = _WelfareMatrix(problem.edges) if matrix is None else matrix
    chosen = _certified_welfare_pick(m.edges, m)
    if chosen is None:
        chosen = _lex_search(m.edges, primary="sigma", floor=False)
    value = _canonical_sum(chosen, "sigma")
    return MatchingSolution(chosen=chosen, objective_value=value,
                            welfare_total=value)


def solve_sensing_max(problem: MatchingProblem,
                      inst: _Instance | None = None) -> MatchingSolution:
    """Exact sensing-maximizing matching with a non-negative total-welfare floor.

    `inst` is the problem's settle_index, built here when not given.
    """
    chosen = _lex_search(problem.edges, primary="zeta", floor=True, inst=inst)
    return MatchingSolution(chosen=chosen,
                            objective_value=_canonical_sum(chosen, "zeta"),
                            welfare_total=_canonical_sum(chosen, "sigma"))


def settle_index(problem: MatchingProblem):
    """The index one settle builds once and shares between its solve and its
    removal marginals: the welfare matrix, or the sensing _Instance.

    Built per settle and passed down, never kept on the problem, so a
    problem object can be settled again under either objective.
    """
    if problem.objective == WELFARE:
        return _WelfareMatrix(problem.edges)
    if problem.objective == SENSING:
        return _Instance(problem.edges, "zeta")
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

    Only the optimal value is needed for pricing, so this skips the
    tie-break pass of the full solver.
    """
    if remove not in problem.drivers and remove not in problem.riders:
        raise ContractError(f"participant {remove!r} not in problem")
    reduced = problem.without(remove)
    if reduced.objective == WELFARE:
        edges = [e for e in reduced.edges if e.sigma >= 0.0]
        primary, floor = "sigma", False
    elif reduced.objective == SENSING:
        edges, primary, floor = reduced.edges, "zeta", True
    else:
        raise ContractError(f"unknown objective {reduced.objective!r}")
    if not edges:
        return 0.0
    _, chosen = _optimal_primary(_Instance(edges, primary), floor)
    return _canonical_sum(chosen, primary)


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
                      matrix: _WelfareMatrix | None = None) -> dict[str, float]:
    """marginal_objective under the welfare objective, for many removals.

    The welfare matrix (the settle index, built here when not given) is
    shared by all removals. Each removal drops rows and columns as
    _removals says, so the assignment solve sees the same matrix that a
    rebuilt reduced problem would index, and picks the same matching.
    """
    m = _WelfareMatrix(problem.edges) if matrix is None else matrix
    return {p: _canonical_sum(m.pick(rows, cols), "sigma")
            for p, rows, cols in _removals(m, problem, participants)}


def sensing_marginals(problem: MatchingProblem, solution: MatchingSolution,
                      participants,
                      inst: _Instance | None = None) -> dict[str, float]:
    """marginal_objective under the sensing objective, for many removals.

    `solution` must be the sensing optimum of `problem` and `inst` its
    settle index (built here when not given). With per-rider zeta each
    removal is a slice of that index, searched from a warm start with an
    early exit (see the module docstring); per-edge zeta takes
    marginal_objective.
    """
    index = _Instance(problem.edges, "zeta") if inst is None else inst
    zr = _per_rider_values(index.edges, "zeta")
    if zr is None:
        return {p: marginal_objective(problem, p) for p in participants}
    riders = list(index.r_index)
    optimal_set = frozenset(solution.matched_riders)
    out = {}
    for p, rows, cols in _removals(index, problem, participants):
        if not (rows.size and cols.size):
            out[p] = 0.0
            continue
        grid = np.ix_(rows, cols)
        out[p], _ = _optimal_primary_riders(
            index.s_raw[grid], index.has_edge[grid], index.by_pair[grid],
            {riders[j]: c for c, j in enumerate(cols)}, zr,
            incumbent=optimal_set - {p}, target=solution.objective_value)
    return out


class _WelfareMatrix:
    """max(sigma, 0) over edges with sigma >= 0, rows and columns in id order.

    The same matrix _Instance builds for the welfare objective, without the
    search's index structures. Edges with sigma < 0 are left out.
    """

    def __init__(self, edges):
        self.edges = edges = [e for e in edges if e.sigma >= 0.0]
        self.d_index = {d: i for i, d in
                        enumerate(sorted({e.driver for e in edges}))}
        self.r_index = {r: j for j, r in
                        enumerate(sorted({e.rider for e in edges}))}
        self.w = np.zeros((len(self.d_index), len(self.r_index)))
        self.has_edge = np.zeros(self.w.shape, dtype=bool)
        self.at = {}
        for e in edges:
            i, j = self.d_index[e.driver], self.r_index[e.rider]
            self.w[i, j] = max(e.sigma, 0.0)
            self.has_edge[i, j] = True
            self.at[(i, j)] = e

    def pick(self, rows, cols) -> tuple[CandidateEdge, ...]:
        """Positive-weight edges of one LSA optimum on the given submatrix."""
        if not (len(rows) and len(cols)):
            return ()
        sub = self.w[np.ix_(rows, cols)]
        ri, ci = linear_sum_assignment(sub, maximize=True)
        return tuple(self.at[(rows[i], cols[j])]
                     for i, j in zip(ri, ci) if sub[i, j] > 0.0)


def _certified_welfare_pick(edges, matrix: _WelfareMatrix | None = None
                            ) -> tuple[CandidateEdge, ...] | None:
    """The LSA welfare optimum when no other matching comes within _TOL.

    Certificate: zeroing any chosen edge's weight costs the optimum more than
    _TOL, and no edge joins a driver and a rider both left unmatched. A
    matching that drops a chosen edge is then worse by more than _TOL, and
    one that keeps them all cannot add an edge. The tie-break compares
    totals within _PRUNE_TOL < _TOL, so it would pick this same edge set, in
    the same (driver id) order. Returns None when the certificate fails.
    `matrix` is the _WelfareMatrix of `edges`, built here when not given.
    """
    if not edges:
        return ()
    m = _WelfareMatrix(edges) if matrix is None else matrix
    w = m.w
    rows, cols = linear_sum_assignment(w, maximize=True)
    picked = [(i, j) for i, j in zip(rows, cols) if w[i, j] > 0.0]
    free_d = np.ones(w.shape[0], dtype=bool)
    free_r = np.ones(w.shape[1], dtype=bool)
    for i, j in picked:
        free_d[i] = free_r[j] = False
    if m.has_edge[np.ix_(free_d, free_r)].any():
        return None
    value = float(w[rows, cols].sum())
    for i, j in picked:
        weight, w[i, j] = w[i, j], 0.0
        ri, ci = linear_sum_assignment(w, maximize=True)
        without = float(w[ri, ci].sum())
        w[i, j] = weight
        if value - without <= _TOL:
            return None
    return tuple(m.at[p] for p in picked)


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
    """Index structures shared by all nodes of one branch-and-bound search."""

    def __init__(self, edges, primary: str):
        self.edges = sorted(
            edges, key=lambda e: (-getattr(e, primary), e.tau, e.pair))
        self.primary = primary
        self.d_index = {d: i for i, d in
                        enumerate(sorted({e.driver for e in self.edges}))}
        self.r_index = {r: i for i, r in
                        enumerate(sorted({e.rider for e in self.edges}))}
        n_d, n_r = len(self.d_index), len(self.r_index)
        self.pw = np.zeros((n_d, n_r))
        self.sw = np.zeros((n_d, n_r))
        self.p_raw = np.zeros((n_d, n_r))
        self.s_raw = np.zeros((n_d, n_r))
        self.has_edge = np.zeros((n_d, n_r), dtype=bool)
        # Pair lookup as an array, so a removal can slice it like the rest.
        self.by_pair = np.empty((n_d, n_r), dtype=object)
        for e in self.edges:
            i, j = self.d_index[e.driver], self.r_index[e.rider]
            self.pw[i, j] = max(getattr(e, primary), 0.0)
            self.sw[i, j] = max(e.sigma, 0.0)
            self.p_raw[i, j] = getattr(e, primary)
            self.s_raw[i, j] = e.sigma
            self.has_edge[i, j] = True
            self.by_pair[i, j] = e
        if primary == "sigma":
            # Sharing one array lets the bound memo serve both objectives.
            self.pw = self.sw
            self.p_raw = self.s_raw
        self._memo: dict = {}

    def lagrange_weights(self, obj: np.ndarray, cons: np.ndarray,
                         lam: float) -> np.ndarray:
        """Edge weights max(obj + lam * cons, 0) for a dual bound."""
        w = np.maximum(obj + lam * cons, 0.0)
        w[~self.has_edge] = 0.0
        return w

    def bound(self, weights: np.ndarray, free_d: np.ndarray,
              free_r: np.ndarray) -> float:
        """Max-weight optional matching value over the still-free vertices."""
        key = (id(weights), free_d.tobytes(), free_r.tobytes())
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        rows = np.flatnonzero(free_d)
        cols = np.flatnonzero(free_r)
        sub = weights[rows[:, None], cols] if rows.size and cols.size else None
        if sub is None or sub.max() <= 0.0:
            value = 0.0
        else:
            ri, ci = linear_sum_assignment(sub, maximize=True)
            value = float(sub[ri, ci].sum())
        self._memo[key] = value
        return value

    def bound_pairs(self, weights: np.ndarray, free_d: np.ndarray,
                    free_r: np.ndarray) -> tuple[float, tuple]:
        """Like bound(), but also returns one optimal matching's edges."""
        rows = np.flatnonzero(free_d)
        cols = np.flatnonzero(free_r)
        sub = weights[rows[:, None], cols] if rows.size and cols.size else None
        if sub is None or sub.max() <= 0.0:
            return 0.0, ()
        ri, ci = linear_sum_assignment(sub, maximize=True)
        value = float(sub[ri, ci].sum())
        picked = tuple(self.by_pair[(rows[i], cols[j])]
                       for i, j in zip(ri, ci) if sub[i, j] > 0.0)
        return value, picked


def _lex_search(edges, primary: str, floor: bool,
                inst: _Instance | None = None) -> tuple[CandidateEdge, ...]:
    """Exact two-pass branch-and-bound over edge inclusion.

    Pass 1 finds the optimal primary value (welfare floor respected) with
    aggressive pruning; pass 2 optimizes the tie-break key (total welfare,
    lower total pick-up distance, lexicographic edge list) among solutions
    attaining it. Upper bounds come from unconstrained maximum-weight
    matchings over the still-free vertices. `inst` is the _Instance of
    `edges`, built here when not given.
    """
    if not edges:
        return ()
    if inst is None:
        inst = _Instance(edges, primary)
    p_star, seed = _optimal_primary(inst, floor)
    return _best_at_optimum(inst, floor, p_star, seed)


def _per_rider_values(edges, attr: str):
    """Map rider -> value when every edge of a rider carries the same value."""
    values: dict = {}
    for e in edges:
        v = getattr(e, attr)
        if values.setdefault(e.rider, v) != v:
            return None
    return values


def _optimal_primary_riders(s_raw, has_edge, by_pair, r_index, zr,
                            incumbent=frozenset(), target=math.inf):
    """Pass 1 specialised to per-rider primary values with the welfare floor.

    The primary total depends only on which riders are matched, so branch
    over rider subsets: zeta bounds come from prefix sums, floor feasibility
    from a max-welfare assignment that is forced to match the chosen riders.
    s_raw, has_edge and by_pair are an _Instance's arrays, or slices of
    them; r_index maps each rider to its column and zr gives its zeta.

    A removal search passes a rider set known to be good as `incumbent`
    (routed first and kept only if it meets the floor) and the full
    market's optimum as `target`; the search ends once its best value
    reaches target - _PRUNE_TOL.
    """
    n_d = s_raw.shape[0]
    riders = sorted(r_index, key=lambda r: (-zr[r], r))
    r_idx = [r_index[r] for r in riders]
    suffix = np.zeros(len(riders) + 1)
    for k in range(len(riders) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + max(zr[riders[k]], 0.0)
    big = 1000.0 * (1.0 + float(np.abs(s_raw).sum()))
    required_edge = np.where(has_edge, s_raw + big, -big)
    optional_edge = np.where(has_edge, np.maximum(s_raw, 0.0), 0.0)

    def relaxed_sigma(status):
        # Max welfare with 'in' riders forced, 'undecided' optional and
        # 'out' riders removed; upper-bounds the welfare of any completion.
        cols = [(k, j) for k, j in enumerate(r_idx) if status[k] != 2]
        if not cols:
            return 0.0, ()
        w = np.empty((n_d, len(cols)))
        required = []
        for c, (k, j) in enumerate(cols):
            if status[k] == 1:
                w[:, c] = required_edge[:, j]
                required.append(c)
            else:
                w[:, c] = optional_edge[:, j]
        ri, ci = linear_sum_assignment(w, maximize=True)
        got = dict(zip(ci, ri))
        required_set = set(required)
        if any(c not in got for c in required):
            return None, ()
        total = 0.0
        pairs = []
        for c, i in got.items():
            j = cols[c][1]
            if c in required_set:
                if w[i, c] <= -big / 2:
                    return None, ()
                total += w[i, c] - big
                pairs.append(by_pair[i, j])
            elif w[i, c] > 0.0:
                total += w[i, c]
                pairs.append(by_pair[i, j])
        return total, tuple(pairs)

    best_p = 0.0
    best_chosen: tuple[CandidateEdge, ...] = ()
    if incumbent:
        # The leaf test of recurse, on the incumbent's rider set.
        status = [1 if r in incumbent else 2 for r in riders]
        sig, pairs = relaxed_sigma(status)
        cur_p = 0.0
        for r, st in zip(riders, status):
            if st == 1:
                cur_p += zr[r]
        if sig is not None and sig >= -_TOL and cur_p > best_p:
            best_p, best_chosen = cur_p, pairs
    status = [0] * len(riders)
    stop = target - _PRUNE_TOL

    def recurse(k, n_in, cur_p):
        nonlocal best_p, best_chosen
        if best_p >= stop:
            return
        cap = n_d - n_in
        remaining = len(riders) - k
        take = min(cap, remaining)
        # riders are sorted by descending zeta, so the top `take` of the
        # suffix is its prefix
        ub = cur_p + (suffix[k] - suffix[k + take])
        if ub <= best_p + _PRUNE_TOL:
            return
        sig, pairs = relaxed_sigma(status)
        if sig is None or sig < -_TOL:
            return
        if k == len(riders):
            # All riders decided; `pairs` matches exactly the 'in' riders
            # plus welfare-positive optional edges of none (no undecided).
            if cur_p > best_p:
                best_p, best_chosen = cur_p, pairs
            return
        if n_in < n_d:
            status[k] = 1
            recurse(k + 1, n_in + 1, cur_p + zr[riders[k]])
        status[k] = 2
        recurse(k + 1, n_in, cur_p)
        status[k] = 0

    recurse(0, 0, 0.0)
    return _canonical_sum(best_chosen, "zeta"), best_chosen


def _best_for_set(inst: _Instance, cols: list, floor: bool,
                  best_key, best_chosen):
    """Tie-break-optimal matching covering exactly the given rider columns.

    With the matched rider set fixed, the required-assignment relaxation is
    a tight welfare bound, so the remaining search only walks the genuine
    welfare/travel-time tie region.
    """
    n_d = len(inst.d_index)
    big = 1000.0 * (1.0 + float(np.abs(inst.s_raw).sum()))
    free_d = np.ones(n_d, dtype=bool)
    chosen: list[CandidateEdge] = []
    col_arr = np.asarray(cols, dtype=int)

    def rest_bound(k):
        sub_cols = col_arr[k:]
        if sub_cols.size == 0:
            return 0.0
        rows = np.flatnonzero(free_d)
        if rows.size < sub_cols.size:
            return None
        w = np.where(inst.has_edge[rows[:, None], sub_cols],
                     inst.s_raw[rows[:, None], sub_cols] + big, -big)
        ri, ci = linear_sum_assignment(w, maximize=True)
        total = float(w[ri, ci].sum())
        if total < (sub_cols.size - 0.5) * big:
            return None
        return total - sub_cols.size * big

    def recurse(k, cur_v, cur_t):
        nonlocal best_key, best_chosen
        rest = rest_bound(k)
        if rest is None:
            return
        ub_v = cur_v + rest
        if floor and ub_v < -_TOL:
            return
        if ub_v < best_key[1] - _PRUNE_TOL:
            return
        if ub_v <= best_key[1] + _PRUNE_TOL and cur_t > best_key[2] + _PRUNE_TOL:
            return
        if k == len(cols):
            key = _solution_key(tuple(chosen), inst.primary)
            if _better(key, best_key):
                best_key, best_chosen = key, tuple(chosen)
            return
        j = cols[k]
        for i in np.flatnonzero(inst.has_edge[:, j]):
            if not free_d[i]:
                continue
            e = inst.by_pair[i, j]
            free_d[i] = False
            chosen.append(e)
            recurse(k + 1, cur_v + e.sigma, cur_t + e.tau)
            chosen.pop()
            free_d[i] = True

    recurse(0, 0.0, 0.0)
    return best_key, best_chosen


def _pass2_riders(inst: _Instance, zr: dict, p_star: float, floor: bool,
                  best_key, best_chosen):
    """Pass 2 specialised to per-rider primary values.

    The primary total depends only on which riders are matched, so the
    search enumerates rider subsets attaining the optimum (relaxed required
    assignments pruning infeasible or lower-welfare branches) and tie-breaks
    each candidate set with _best_for_set.
    """
    n_d = len(inst.d_index)
    riders = sorted(zr, key=lambda r: (-zr[r], r))
    r_idx = [inst.r_index[r] for r in riders]
    suffix = np.zeros(len(riders) + 1)
    for k in range(len(riders) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + max(zr[riders[k]], 0.0)
    big = 1000.0 * (1.0 + float(np.abs(inst.s_raw).sum()))
    required_edge = np.where(inst.has_edge, inst.s_raw + big, -big)
    optional_edge = np.where(inst.has_edge, np.maximum(inst.s_raw, 0.0), 0.0)
    status = [0] * len(riders)

    def relaxed_sigma(k):
        cols = [(m, j) for m, j in enumerate(r_idx) if status[m] != 2]
        if not cols:
            return 0.0
        w = np.empty((n_d, len(cols)))
        n_req = 0
        for c, (m, j) in enumerate(cols):
            if status[m] == 1:
                w[:, c] = required_edge[:, j]
                n_req += 1
            else:
                w[:, c] = optional_edge[:, j]
        ri, ci = linear_sum_assignment(w, maximize=True)
        total = float(w[ri, ci].sum())
        # A required column left unmatched or matched on a missing edge
        # shows up as a missing +big term: the relaxation is infeasible.
        if total < n_req * big - big / 2:
            return None
        return total - n_req * big

    def recurse(k, n_in, cur_p):
        nonlocal best_key, best_chosen
        take = min(n_d - n_in, len(riders) - k)
        if cur_p + (suffix[k] - suffix[k + take]) < p_star - _PRUNE_TOL:
            return
        sig = relaxed_sigma(k)
        if sig is None or (floor and sig < -_TOL):
            return
        if sig < best_key[1] - _PRUNE_TOL:
            return
        if k == len(riders):
            cols = [r_idx[m] for m in range(len(riders)) if status[m] == 1]
            best_key, best_chosen = _best_for_set(inst, sorted(cols), floor,
                                                  best_key, best_chosen)
            return
        if n_in < n_d:
            status[k] = 1
            recurse(k + 1, n_in + 1, cur_p + zr[riders[k]])
        status[k] = 2
        recurse(k + 1, n_in, cur_p)
        status[k] = 0

    recurse(0, 0, 0.0)
    return best_chosen


def _optimal_primary(inst: _Instance, floor: bool):
    """Pass 1: maximum primary objective and one solution attaining it."""
    if floor and inst.primary == "zeta":
        zr = _per_rider_values(inst.edges, "zeta")
        if zr is not None:
            return _optimal_primary_riders(inst.s_raw, inst.has_edge,
                                           inst.by_pair, inst.r_index, zr)
    n_d, n_r = len(inst.d_index), len(inst.r_index)
    free_d = np.ones(n_d, dtype=bool)
    free_r = np.ones(n_r, dtype=bool)
    best_p = 0.0                       # empty matching is always feasible
    best_chosen: tuple[CandidateEdge, ...] = ()
    seed = _lsa_solution(inst)
    if seed is not None:
        seed_p = sum(getattr(e, inst.primary) for e in seed)
        if (not floor or sum(e.sigma for e in seed) >= -_TOL) and seed_p > best_p:
            best_p, best_chosen = seed_p, tuple(seed)

    edge_list = inst.edges
    n_edges = len(edge_list)
    stack: list[CandidateEdge] = []
    dual_tried = not floor
    nodes = 0

    def ensure_dual():
        # When the welfare floor binds, the primary bound alone cannot see
        # it and the search wanders the infeasible region. Folding sigma
        # into the weights with a small multiplier steers the assignment
        # toward floor-feasible matchings; the smallest feasible multiplier
        # yields the strongest incumbent. Computed lazily so cheap instances
        # never pay for it.
        nonlocal dual_tried, best_p, best_chosen
        dual_tried = True
        full_d = np.ones(n_d, dtype=bool)
        full_r = np.ones(n_r, dtype=bool)

        def feasible_pick(m):
            w = inst.lagrange_weights(inst.p_raw, inst.s_raw, m)
            _, pick = inst.bound_pairs(w, full_d, full_r)
            if pick and sum(e.sigma for e in pick) >= -_TOL:
                return pick
            return None

        lo, hi, pick_hi = 0.0, 1.0 / 256.0, None
        for _ in range(24):
            pick_hi = feasible_pick(hi)
            if pick_hi is not None:
                break
            lo, hi = hi, hi * 4.0
        if pick_hi is None:
            return
        for _ in range(20):
            mid = (lo + hi) / 2.0
            pick_mid = feasible_pick(mid)
            if pick_mid is not None:
                hi, pick_hi = mid, pick_mid
            else:
                lo = mid
        pick_p = _canonical_sum(pick_hi, inst.primary)
        if pick_p > best_p:
            best_p, best_chosen = pick_p, pick_hi

    def recurse(idx, cur_p, cur_v, free_d, free_r):
        nonlocal best_p, best_chosen, nodes
        nodes += 1
        if nodes == 512 and not dual_tried:
            ensure_dual()
        while idx < n_edges:
            e = edge_list[idx]
            if free_d[inst.d_index[e.driver]] and free_r[inst.r_index[e.rider]]:
                break
            idx += 1
        if idx == n_edges:
            if cur_p > best_p and (not floor or cur_v >= -_TOL):
                best_p, best_chosen = cur_p, tuple(stack)
            return
        if cur_p + inst.bound(inst.pw, free_d, free_r) <= best_p + _PRUNE_TOL:
            return
        if floor and cur_v + inst.bound(inst.sw, free_d, free_r) < -_TOL:
            return
        e = edge_list[idx]
        i, j = inst.d_index[e.driver], inst.r_index[e.rider]
        free_d[i] = free_r[j] = False
        stack.append(e)
        recurse(idx + 1, cur_p + getattr(e, inst.primary), cur_v + e.sigma,
                free_d, free_r)
        stack.pop()
        free_d[i] = free_r[j] = True
        recurse(idx + 1, cur_p, cur_v, free_d, free_r)

    recurse(0, 0.0, 0.0, free_d, free_r)
    # Report the optimum in canonical summation order so pass 2 and incumbent
    # candidates compare against it without summation-order noise.
    return _canonical_sum(best_chosen, inst.primary), best_chosen


def _dual_multiplier(inst: _Instance, obj: np.ndarray, cons: np.ndarray,
                     target: float, cons_attr: str):
    """Approximate minimizer of a Lagrangian matching bound.

    g(lam) = LSA(max(obj + lam*cons, 0)) - lam*target is convex piecewise
    linear in lam and upper-bounds the objective total of any one-to-one
    matching whose constraint total reaches `target`. Any lam >= 0 is a valid
    bound, so a short ternary search for a near-minimizer is enough.
    """
    full_d = np.ones(len(inst.d_index), dtype=bool)
    full_r = np.ones(len(inst.r_index), dtype=bool)

    def sigma_of(e):
        return e.sigma

    attr_get = sigma_of if cons_attr == "sigma" else (
        lambda e: getattr(e, cons_attr))

    def evaluate(lam):
        w = inst.lagrange_weights(obj, cons, lam)
        val, pick = inst.bound_pairs(w, full_d, full_r)
        grad = sum(attr_get(e) for e in pick) - target
        return val - lam * target, grad, w

    hi = 1.0
    for _ in range(24):
        _, grad, _ = evaluate(hi)
        if grad >= 0.0:
            break
        hi *= 4.0
    lo = 0.0
    for _ in range(36):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if evaluate(m1)[0] <= evaluate(m2)[0]:
            hi = m2
        else:
            lo = m1
    lam = (lo + hi) / 2.0
    g, _, w = evaluate(lam)
    g0, _, _ = evaluate(0.0)
    if lam <= 0.0 or g >= g0 - _PRUNE_TOL:
        return 0.0, None
    return lam, w


def _welfare_face(inst: _Instance, tol: float = 1e-6):
    """Edges that can appear in some maximum-welfare matching.

    Solves the assignment LP relaxation and keeps edges with (near-)zero
    reduced cost; complementary slackness puts every optimal matching inside
    that subgraph, so tie-breaking never needs the remaining edges.
    """
    cand = [e for e in inst.edges
            if inst.sw[inst.d_index[e.driver], inst.r_index[e.rider]] > 0.0]
    if not cand:
        return None
    n_d, n_r = len(inst.d_index), len(inst.r_index)
    n_e = len(cand)
    rows = np.array([inst.d_index[e.driver] for e in cand])
    cols = np.array([inst.r_index[e.rider] for e in cand])
    w = np.array([inst.sw[i, j] for i, j in zip(rows, cols)])
    data = np.ones(2 * n_e)
    a_rows = np.concatenate([rows, n_d + cols])
    a_cols = np.concatenate([np.arange(n_e), np.arange(n_e)])
    a_ub = coo_matrix((data, (a_rows, a_cols)), shape=(n_d + n_r, n_e))
    res = linprog(-w, A_ub=a_ub, b_ub=np.ones(n_d + n_r),
                  bounds=(0.0, 1.0), method="highs")
    if not res.success:
        return None
    duals = -np.asarray(res.ineqlin.marginals)
    reduced = duals[rows] + duals[n_d + cols] - w
    keep = reduced <= tol
    if not keep.any():
        return None
    edges = [e for e, k in zip(cand, keep) if k]
    mask = np.zeros_like(inst.sw)
    for e in edges:
        i, j = inst.d_index[e.driver], inst.r_index[e.rider]
        mask[i, j] = inst.sw[i, j]
    return edges, mask


def _best_at_optimum(inst: _Instance, floor: bool, p_star: float,
                     seed: tuple[CandidateEdge, ...]):
    """Pass 2: tie-break-optimal solution among primary-optimal matchings."""
    n_d, n_r = len(inst.d_index), len(inst.r_index)
    free_d = np.ones(n_d, dtype=bool)
    free_r = np.ones(n_r, dtype=bool)
    best_key = _solution_key(seed, inst.primary)
    best_chosen = seed
    if p_star <= _PRUNE_TOL and not seed:
        return ()
    # Root incumbent: the unconstrained welfare-optimal matching, when it also
    # attains the primary optimum, is the welfare upper bound made feasible —
    # it prices every lower-welfare subtree out of the search immediately.
    # A small travel-time penalty steers the assignment toward the low-tau
    # corner of the welfare-tie region; the incumbent is only kept when it
    # still attains the primary optimum, so the bias cannot hurt exactness.
    tau_m = np.zeros_like(inst.sw)
    for e in inst.edges:
        tau_m[inst.d_index[e.driver], inst.r_index[e.rider]] = e.tau
    for weights in (inst.sw, np.maximum(inst.sw - 1e-7 * tau_m, 0.0)):
        ub0, sw_pick = inst.bound_pairs(weights, free_d, free_r)
        if sw_pick:
            pick_p = sum(getattr(e, inst.primary) for e in sw_pick)
            pick_v = sum(e.sigma for e in sw_pick)
            if pick_p >= p_star - _TOL and (not floor or pick_v >= -_TOL):
                key = _solution_key(sw_pick, inst.primary)
                if _better(key, best_key):
                    best_key, best_chosen = key, sw_pick
    # Per-rider primary values make the primary total a function of the
    # matched rider set alone; the rider-subset search is then exact and far
    # cheaper than branching on edges.
    if inst.primary == "zeta":
        zr = _per_rider_values(inst.edges, "zeta")
        if zr is not None:
            return _pass2_riders(inst, zr, p_star, floor, best_key,
                                 best_chosen)
    lam, lwm = 0.0, None
    dual_tried = False
    nodes = 0

    def ensure_dual():
        # The Lagrangian bound for the side constraint pays off only on large
        # tie regions; compute it lazily once the plain search proves slow.
        nonlocal lam, lwm, dual_tried, best_key, best_chosen
        dual_tried = True
        if inst.primary == "sigma":
            return
        lam, lwm = _dual_multiplier(inst, inst.s_raw, inst.p_raw, p_star,
                                    inst.primary)
        if lwm is None:
            return
        full_d = np.ones(n_d, dtype=bool)
        full_r = np.ones(n_r, dtype=bool)
        _, lag_pick = inst.bound_pairs(lwm, full_d, full_r)
        if lag_pick:
            pick_p = sum(getattr(e, inst.primary) for e in lag_pick)
            pick_v = sum(e.sigma for e in lag_pick)
            if pick_p >= p_star - _TOL and (not floor or pick_v >= -_TOL):
                key = _solution_key(lag_pick, inst.primary)
                if _better(key, best_key):
                    best_key, best_chosen = key, lag_pick

    edge_list = inst.edges
    pw_b, sw_b = inst.pw, inst.sw
    if inst.primary == "sigma" and not floor:
        face = _welfare_face(inst)
        if face is not None:
            edge_list, sw_b = face
            pw_b = sw_b
    n_edges = len(edge_list)
    stack: list[CandidateEdge] = []

    def recurse(idx, cur_p, cur_v, cur_t, free_d, free_r):
        nonlocal best_key, best_chosen, nodes
        nodes += 1
        if nodes == 512 and not dual_tried:
            ensure_dual()
        while idx < n_edges:
            e = edge_list[idx]
            if free_d[inst.d_index[e.driver]] and free_r[inst.r_index[e.rider]]:
                break
            idx += 1
        if idx == n_edges:
            if cur_p < p_star - _TOL or (floor and cur_v < -_TOL):
                return
            key = _solution_key(stack, inst.primary)
            if _better(key, best_key):
                best_key, best_chosen = key, tuple(stack)
            return
        if cur_p + inst.bound(pw_b, free_d, free_r) < p_star - _TOL:
            return
        ub_v = cur_v + inst.bound(sw_b, free_d, free_r)
        if floor and ub_v < -_TOL:
            return
        if ub_v < best_key[1] - _PRUNE_TOL:
            return
        if ub_v <= best_key[1] + _PRUNE_TOL and cur_t > best_key[2] + _PRUNE_TOL:
            return
        if lwm is not None:
            ub_l = cur_v + lam * (cur_p - p_star) + inst.bound(lwm, free_d,
                                                               free_r)
            if ub_l < best_key[1] - _PRUNE_TOL:
                return
            if (ub_l <= best_key[1] + _PRUNE_TOL
                    and cur_t > best_key[2] + _PRUNE_TOL):
                return
        e = edge_list[idx]
        i, j = inst.d_index[e.driver], inst.r_index[e.rider]
        free_d[i] = free_r[j] = False
        stack.append(e)
        recurse(idx + 1, cur_p + getattr(e, inst.primary), cur_v + e.sigma,
                cur_t + e.tau, free_d, free_r)
        stack.pop()
        free_d[i] = free_r[j] = True
        recurse(idx + 1, cur_p, cur_v, cur_t, free_d, free_r)

    recurse(0, 0.0, 0.0, 0.0, free_d, free_r)
    return best_chosen


def _lsa_solution(inst: _Instance):
    if inst.pw.size == 0:
        return None
    rows, cols = linear_sum_assignment(inst.pw, maximize=True)
    return [inst.by_pair[i, j] for i, j in zip(rows, cols)
            if inst.has_edge[i, j] and inst.pw[i, j] > 0.0]


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
