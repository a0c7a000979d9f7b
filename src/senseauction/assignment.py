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
  Every optimal matching is tight under every optimal dual, so the face is
  the sigma > 0 edges tight under both of the core's extreme points
  (_Instance.core, _core_point); the bound reads the drivers' best point
  over the live edges (undecided, both ends free) the walk carries. A face
  that is the pick alone holds no other leaf, so it is not walked. chosen
  is the winner's order, observable in the event log: driver id for the
  pick, (-sigma, tau, pair) for a branch-and-bound leaf.
- Columnar market: a MatchingProblem holds its edges as an _EdgeTable,
  one array per field over the edges, with the drivers and riders that have
  an edge in id order. build_candidates fills it directly; a problem built
  from a list of CandidateEdge (tests, properties, oracle, JSON) derives it
  once. `edges`, the list view, is made on first read.
- One index per settle (settle_index): an _Instance scattered from the
  table's arrays, over the sigma >= 0 edges (welfare; rows and columns left
  without an edge are dropped) or all edges (sensing), shared by the solve
  and all removals. Its eid array names each cell's edge, and a
  CandidateEdge is made only for the cells a settle reads: the pick, the
  welfare face, incumbents and the chosen matching.
- VCG removal marginals (welfare_marginals): read from the pick's two core
  points (_Instance.core) with no solve, so a VCG settle runs one LSA.
- Sensing: zeta is the gain of the requested trip, one value per rider. The
  sensing index maps each column to it once (zc), on first use, and raises
  ContractError when one rider's edges carry two values. The sensing total
  depends only on which riders are served, so pass 1
  (_optimal_primary_riders), every DS removal and pass 2 (_pass2_riders,
  with pass 1's matching as its only incumbent) each walk rider subsets on
  one _RiderSearch: one rider order, one zeta bound and one big-M welfare
  relaxation (_RiderSearch.relaxation), also behind pass 2's tie-break of
  each rider set (best_for_set). The order is _Instance.order, the columns
  by descending zeta and then column, which is id order; a search names
  riders by column only. Pass 2 walks pass 1's search again and solves its
  own welfare relaxations. Both tie-breaks, the welfare face's and pass
  2's, keep their best matching in one _Incumbent, which applies the order
  (welfare, then tau, then pair list, within _PRUNE_TOL). chosen is the
  winner's order: driver id for pass 1's matching, column order (rider id)
  for a best_for_set result.
- DS removal marginals (sensing_marginals): each removal is a pass-1 search
  over a slice of the settle's _Instance (_removals), so it sees exactly
  the arrays a rebuilt reduced index would hold. It starts from an
  incumbent, the index columns of the optimal rider set R* for a driver
  removal and of R* less the rider for a rider removal, kept only if it
  meets the welfare floor, and ends once it reaches the full optimum U*
  (within 1e-12). That is exact: removing a participant only deletes
  feasible matchings, so no removal's optimum exceeds U*. Most driver
  removals cost one LSA: one whose incumbent meets the floor and reaches
  U* ends at that test and builds none of the walk's state, which is made
  on first read.
- Where removals run (_removal_helper): in the settle's process, unless
  the settle has at least 2 removals, the process may run on at least 2
  CPUs (os.sched_getaffinity), the fork start method exists (and, to fork,
  the process has no other thread) and the settle's claim records fit in
  one atomic pipe write (select.PIPE_BUF bytes). Then the removals go to
  the removal helper (_RemovalHelper): one daemon process, forked on first
  use and kept, that ignores SIGINT and exits when its message pipe ends.
  A settle that waits for its values (pricing.settle_epoch called directly:
  markets, properties, check, tests) also needs a sensing index of at least
  _HELPER_CELLS drivers x riders cells, the measured break-even of the
  hand-off (about 400). A settle of run_scenario (sensing_marginals with
  queue) needs no size: it returns at once as a QueuedMarginals, and the
  simulator commits the epoch from the solution, which no price feeds, and
  goes on: the EpochOutcome step_epoch returns then holds a
  pricing.PendingSettlement, and gets its EpochSettlement from
  run_scenario's drain (SimulationState.settle_pending), before each
  interval's KPIs. After any error run_scenario drops what is queued, so
  nothing it returns holds a pending settlement.
- The queue: per settle, the settle's process writes one fixed-size record
  (settle number, removal position) per removal to a claim pipe in one
  write, then sends one message: the index's lazy fields (removal_state:
  has_edge, zc, order, zeta_integral, col_best, search_rows, and lam where
  a search already made it) with each removal's row or column. Records and
  messages keep their order, so the queue is a FIFO of settles. Both
  processes take records with one non-blocking read each and call the one
  removal function (_removal_value), so every value is bit-identical to the
  in-process loop's, and no claim waits on the other process. The helper
  takes records until the pipe is empty or a record names a later settle,
  and replies once per message, with the settle number and its values. The
  settle's process takes the replies that have come, without waiting, at
  every hand-off; when it needs a settle's values it claims every record
  left, its own and later settles', and waits for that settle's reply only
  if the helper took some of them. A settle stays in the queue until its
  reply, and the queue holds at most _QUEUE_RECORDS records and
  _QUEUE_BYTES of messages, below what the claim pipe and the message
  socket hold. So neither process can block on the other: a settle that
  finds no room, and a queue whose helper is stopped, have their removals
  computed by the settle's process. A removal that raises is kept as None
  and computed again when its settle's values are read, so the earliest
  settle's error is the one raised, with its own type.
- A broken helper costs only speed: a helper that dies or whose pipe fails
  is closed (with what is queued), what it took and did not return is
  computed in-process (so errors keep their types), and the next settle
  forks a new one; anything raised while the settle's process hands off or
  waits (a removal's error, an interrupt, a signal handler's exception)
  kills and joins the helper before it propagates. A process that
  multiprocessing started (a `compare --jobs` worker, a daemonic pool
  worker) runs its removals in-process; a plain fork of the helper's owner
  does not use the owner's helper (the owner pid differs). Module
  attributes are the helper's copy from its fork: a test that patches the
  search must keep its removals in-process (_HELPER_CELLS = inf for a
  settle that waits, one CPU in os.sched_getaffinity for run_scenario).
- Row cut (_Instance.search_rows), once per settle when there are more
  than n_c + 1 drivers for n_c riders: removal searches keep only the
  rows among some rider's n_c + 1 best drivers by sigma (ties to the lower
  row). zeta is one value per rider, so within a column every weight the
  search uses ranks rows as sigma does (zeta + lam * sigma,
  max(zeta + lam * sigma, 0), max(sigma, 0), sigma + big; a missing edge
  ranks last). A matching serves at most n_c columns, so it can move each
  column onto a free row among that column's top n_c without losing
  weight, and the extra row covers a driver removal that deletes one of
  them. The bounds and big still count every row, and the solve keeps all
  rows: in a tie an LSA may pick another matching, which would reorder
  the float sums that pass 2 compares.
- Floor bound (_FloorBound): the zeta bound, prefix sums, cannot see the
  welfare floor. Lagrangian relaxation of the floor can: for lam >= 0,
  sum(zeta) <= max over matchings of sum(zeta + lam * sigma) for every
  matching that meets it, and at a node that maximum is one LSA (forced
  riders must be served, excluded ones cannot). lam is computed once per
  settle, on first use, by breakpoint iteration on the root bound
  (_Instance.floor_multiplier, a few LSAs) and kept on the settle's
  _Instance, never on the problem; the solve, pass 2 and every removal
  share it. A search turns the bound on after _LAGRANGE_AFTER nodes. A
  child whose parent's Lagrangian matching still fits it (the riders it
  serves stay in, the others out) inherits the bound without an LSA, and
  an inner node whose held matching has welfare >= _FLOOR_SLACK skips the
  welfare relaxation, which it would pass for sure. A node builds only what
  it reads (_NodeSolve): its value is tested first, and where that prunes
  the held matching's zeta total cannot beat best_p.
- Welfare bound (welfare_steps): beside cur_p the walk carries an O(1)
  bound on the welfare relaxation (forced columns' best sigma plus
  undecided ones' positive best); below -_TOL - _FLOOR_SLACK a node
  prunes without that LSA, which would fail the floor too.
- Inherited welfare test: in pass 1 and every removal, the relaxation's
  matching passes to a child by the same rule, when its welfare is >=
  _FLOOR_SLACK, and that child runs no welfare LSA. The matching still
  fits the child, so the child's optimum is at least its welfare, which
  leaves the big-M rounding (~1e-7) far from the -1e-9 test.
- Integral path (_Instance.zeta_integral, once per index): when every
  zeta is a whole number, every feasible sensing total is an integer, so a
  subtree can beat best_p only by a whole unit and pass 1 prunes when the
  Lagrangian bound is below best_p + 1. A removal search there also holds
  the bound from the root and takes first the branch its held matching
  takes. Such an index is a run's first epoch, before any cell is covered.
  Other indexes keep _LAGRANGE_AFTER and 'in' before 'out'.
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
import multiprocessing
import os
import pickle
import select
import signal
import struct
import threading
from dataclasses import dataclass
from itertools import compress
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
# 329 LSAs at 16, 399 at 32, 419 without the bound). Removal searches on an
# integral index hold it from the root instead; inf turns it off everywhere.
_LAGRANGE_AFTER = 16
# Welfare margin between the Lagrangian tests and the walk's welfare bound
# and the big-M welfare relaxation they must agree with. That relaxation
# rounds each forced term at ulp(big), about 2e-9 on 150-driver markets (big
# ~1e7), so its totals and its LSA's choice can be off by ~1e-7 there. A
# prune grants leaves lam * 1e-4 more bound than the floor allows, a node
# skips the relaxation only when a matching it holds has welfare >= 1e-4,
# and the welfare bound prunes only below -1e-9 - 1e-4.
_FLOOR_SLACK = 1e-4
# A DS settle that waits for its (at least two) removals shares them with the
# removal helper (_RemovalHelper) when its sensing index has at least this
# many cells, drivers x riders; run_scenario's settles, which do not wait,
# share them at any size. Measured on a 2-core host over the 432 DS settles of the
# sim-default cells (scenario 3, fleets 20 and 60, seeds 0-2): a hand-off
# costs about 50 us (two trivial removals take 58 us shared, 24 us
# in-process), plus up to 90 us for the floor multiplier where no search had
# needed it. Shared removals beat in-process ones in the median from about
# 300-400 cells (0.4 ms of in-process removal work), and from 500 cells take
# about 0.7 of its time.
_HELPER_CELLS = 400
# The removal helper's queue holds at most this many claim records (32 KiB,
# half of a Linux pipe's default 64 KiB) and this many message bytes, each
# message counted with _SEND_COST more for the socket's own accounting of a
# send. Linux's default socket send buffer (208 KiB) took 44 messages of
# 4 KB and 278 of 100 bytes before a send blocked. Over the six ds cells of
# sim-default (a median message 2.5 KB, 9 removals) the queue held at most
# 11 settles and 60 KB on a 2-core host, and no settle found it full.
_QUEUE_RECORDS = 2048
_QUEUE_BYTES = 128 * 1024
_SEND_COST = 1024

WELFARE = "welfare"
SENSING = "sensing"


class _lazy:
    """functools.cached_property without the lock Python 3.11 takes at each
    first read, which costs more than most search-node fields."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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


class _EdgeTable:
    """A market's candidate edges as columns, in edge order.

    Edge k joins driver d_ids[di[k]] to rider r_ids[ri[k]]; tau, P_d, P_r,
    zeta and h are its fields, and sigma = P_r - P_d, the same float
    CandidateEdge.sigma computes. d_ids and r_ids are the participants with
    an edge, in id order, which is the sensing index's row and column order.
    An edge's CandidateEdge is made on first read (at) and kept, so a settle
    makes objects only for the cells it reads.
    """

    def __init__(self, d_ids, r_ids, di, ri, tau, P_d, P_r, zeta, h,
                 made=None):
        """di and ri index any id sequences d_ids and r_ids; the table keeps
        the ids they use, in id order, and renumbers them."""
        self.d_ids, self.di = _id_order(d_ids, di)
        self.r_ids, self.ri = _id_order(r_ids, ri)
        self.tau, self.P_d, self.P_r, self.zeta, self.h = tau, P_d, P_r, zeta, h
        self.sigma = P_r - P_d
        self.made = [None] * di.size if made is None else made

    @classmethod
    def of_records(cls, records, made=None) -> "_EdgeTable":
        """From (driver, rider, tau, P_d, P_r, zeta, h) rows; ContractError
        when a (driver, rider) pair repeats."""
        d_pos: dict = {}
        r_pos: dict = {}
        di, ri, values = [], [], []
        for d, r, *fields in records:
            di.append(d_pos.setdefault(d, len(d_pos)))
            ri.append(r_pos.setdefault(r, len(r_pos)))
            values.append(fields)
        di, ri = np.array(di, dtype=np.intp), np.array(ri, dtype=np.intp)
        if np.unique(di * len(r_pos) + ri).size != di.size:
            raise ContractError("duplicate (driver, rider) edge")
        columns = np.array(values, dtype=float).reshape(-1, 5).T
        return cls(tuple(d_pos), tuple(r_pos), di, ri, *columns, made=made)

    def edge(self, k) -> CandidateEdge:
        e = self.made[k]
        if e is None:
            e = self.made[k] = CandidateEdge(
                self.d_ids[self.di.item(k)], self.r_ids[self.ri.item(k)],
                self.tau.item(k), self.P_d.item(k), self.P_r.item(k),
                self.zeta.item(k), self.h.item(k))
        return e

    def at(self, ids: np.ndarray) -> tuple[CandidateEdge, ...]:
        """The edges with the given ids, in order."""
        return tuple(map(self.edge, ids.tolist()))


class MatchingProblem:
    """One epoch's market: candidate edges between drivers and riders.

    The edges are held as an _EdgeTable. A problem built from a list of
    CandidateEdge derives the table from it once; build_candidates hands
    its own over (of_table), and `edges`, the list view, is then made on
    first read.
    """

    def __init__(self, edges, drivers, riders, objective: str = WELFARE,
                 tau_min: dict[str, float] | None = None):
        made = list(edges)
        self.table = _EdgeTable.of_records(
            ((e.driver, e.rider, e.tau, e.P_d, e.P_r, e.zeta, e.h_r)
             for e in made), made=made)
        self._edges = edges
        self.drivers, self.riders, self.objective = drivers, riders, objective
        # Each participant's least in-radius pick-up distance (inf without an
        # edge), as build_candidates priced the edges with it; empty for a
        # problem built from edges alone.
        self.tau_min = {} if tau_min is None else tau_min

    @classmethod
    def of_table(cls, table: _EdgeTable, drivers, riders,
                 objective: str = WELFARE,
                 tau_min: dict[str, float] | None = None) -> "MatchingProblem":
        problem = cls.__new__(cls)
        problem.table, problem._edges = table, None
        problem.drivers, problem.riders = drivers, riders
        problem.objective = objective
        problem.tau_min = {} if tau_min is None else tau_min
        return problem

    @property
    def edges(self) -> list[CandidateEdge]:
        if self._edges is None:
            self._edges = list(self.table.at(np.arange(self.table.di.size)))
        return self._edges

    def __copy__(self) -> "MatchingProblem":
        # copy.copy's generic path (__reduce_ex__) costs a few us a settle.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

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
    counterparts and kept on the problem (tau_min); sensing gains are
    frozen against the current coverage and never include the pick-up leg.
    """
    # numpy's hypot can differ from math.dist by an ulp, so it only
    # prefilters, with a margin; tau is math.dist, tested as before.
    driver_ids, rider_ids = [d.id for d in drivers], [r.id for r in riders]
    locs, origins = [d.location for d in drivers], [r.origin for r in riders]
    gaps = (np.array(origins).reshape(1, -1, 2)
            - np.array(locs).reshape(-1, 1, 2))
    di, ri = np.nonzero(np.hypot(gaps[..., 0], gaps[..., 1]) <= radius + 2 * _TOL)
    tau = np.array([math.dist(locs[i], origins[j])
                    for i, j in zip(di.tolist(), ri.tolist())], dtype=float)
    keep = tau <= radius + _TOL
    di, ri, tau = di[keep], ri[keep], tau[keep]
    tau_min_d = np.full(len(drivers), np.inf)
    tau_min_r = np.full(len(riders), np.inf)
    np.minimum.at(tau_min_d, di, tau)
    np.minimum.at(tau_min_r, ri, tau)

    h = [r.route.length for r in riders]
    f, zeta = np.zeros(len(riders)), [0.0] * len(riders)
    served = np.flatnonzero(tau_min_r < math.inf)
    dest_cells = world.cells_of([riders[j].dest for j in served])
    for j, cell in zip(served.tolist(), dest_cells.tolist()):
        f[j] = opportunity_cost(prospect_model, prospect_model.prospects[cell])
        zeta[j] = sensing_mod.marginal_gain(sensing_params, coverage,
                                            riders[j].route.cells)

    h_e = np.array(h)[ri]
    b = np.array([d.b_reported for d in drivers])
    delta = np.array([r.delta_reported for r in riders])
    P_d = market.driver_valuation(rates, h_e, b[di], tau, tau_min_d[di], f[ri])
    P_r = market.rider_valuation(rates, h_e, delta[ri], tau, tau_min_r[ri])
    # nonzero yields each (driver, rider) pair once, so no pair repeats.
    drivers, riders = tuple(driver_ids), tuple(rider_ids)
    table = _EdgeTable(drivers, riders, di, ri, tau, P_d, P_r,
                       np.array(zeta)[ri], h_e)
    return MatchingProblem.of_table(
        table, drivers, riders,
        tau_min=dict(zip(driver_ids + rider_ids,
                         tau_min_d.tolist() + tau_min_r.tolist())))


def solve_welfare_max(problem: MatchingProblem,
                      index: _Instance | None = None) -> MatchingSolution:
    """Exact welfare-maximizing matching; negative-welfare edges never help.

    One assignment solve gives the optimum and a pick, and
    _welfare_tie_break searches the welfare face from it. `index` is the
    settle_index, built when not given.
    """
    m = _welfare_index(problem) if index is None else index
    chosen = _welfare_tie_break(m)
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
    inst = _Instance(problem.table) if inst is None else inst
    search = _RiderSearch(inst)
    p_star, (rows, cols) = _optimal_primary_riders(search)
    chosen = _pass2_riders(search, p_star, inst.table.at(inst.eid[rows, cols]))
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
        return _welfare_index(problem)
    if problem.objective == SENSING:
        return _Instance(problem.table)
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
        m = _welfare_index(reduced)
        return _canonical_sum(m.lsa_pick(m.s_raw)[1], "sigma")
    if reduced.objective == SENSING:
        search = _RiderSearch(_Instance(reduced.table))
        return _optimal_primary_riders(search)[0]
    raise ContractError(f"unknown objective {reduced.objective!r}")


def _removals(index, problem: MatchingProblem, participants):
    """Yield (participant, row, col) for each removal: the removed driver's
    row of `index` or rider's column, the other None, and both None for a
    participant with no edge in the index (_Instance.without slices it).
    Driver and rider ids are distinct."""
    known = set(problem.drivers) | set(problem.riders)
    for p in participants:
        if p not in known:
            raise ContractError(f"participant {p!r} not in problem")
        yield p, index.d_index.get(p), index.r_index.get(p)


def welfare_marginals(problem: MatchingProblem, participants,
                      index: _Instance | None = None) -> dict[str, float]:
    """marginal_objective under the welfare objective, for many removals.

    V - V_-p is p's payoff at its side's best core point (_Instance.core of
    the welfare index, built here when not given), so no removal is solved.
    A participant with no sigma >= 0 edge gets V_-p = V.
    """
    m = _welfare_index(problem) if index is None else index
    pick, u_max, _, v_max = m.core
    value = _canonical_sum(pick, "sigma")
    pay = dict(zip([*m.d_index, *m.r_index], u_max.tolist() + v_max.tolist()))
    if unknown := set(participants) - set(problem.drivers + problem.riders):
        raise ContractError(f"participant {unknown.pop()!r} not in problem")
    return {p: value - pay.get(p, 0.0) for p in participants}


def sensing_marginals(problem: MatchingProblem, solution: MatchingSolution,
                      participants, inst: _Instance | None = None,
                      queue: bool = False):
    """marginal_objective under the sensing objective, for many removals.

    `solution` must be the sensing optimum of `problem` and `inst` its
    settle index (built here when not given). Each removal is a slice of
    that index, searched from a warm start with an early exit, here or
    shared with the removal helper (see the module docstring). With
    `queue`, a settle the helper's queue takes returns at once as a
    QueuedMarginals, whose result() is the dict.
    """
    index = _Instance(problem.table) if inst is None else inst
    optimal = frozenset(index.r_index[r] for r in solution.matched_riders)
    target = solution.objective_value
    cuts = list(_removals(index, problem, participants))
    helper = _removal_helper(index, len(cuts), queue)
    if helper is not None and (
            queued := helper.hand_off(index, optimal, target, cuts)):
        return queued if queue else queued.result()
    return {p: _removal_value(index, optimal, target, i, j)
            for p, i, j in cuts}


def _removal_value(index: _Instance, optimal: frozenset, target: float,
                   i, j) -> float:
    """The sensing optimum of `index` without row i's driver or column j's
    rider: pass 1 over the slice (_Instance.without), from the optimal rider
    set `optimal` (less the rider) with the early exit at `target`, the
    settle's optimum. The one removal function of both the settle's process
    and the removal helper."""
    rows, cols = index.without(i, j)
    if not (rows.size and cols.size):
        return 0.0
    return _optimal_primary_riders(
        _RiderSearch(index, rows, cols, index.search_rows),
        incumbent=optimal - {j}, target=target)[0]


def _removal_helper(index: _Instance, n_removals: int, queue: bool = False):
    """This process's _RemovalHelper when a settle of n_removals removals
    over `index` goes to it, forked on first use and again after it died;
    else None. A queued settle needs 2 removals, a settle that waits also
    _HELPER_CELLS cells. A process that multiprocessing started (a `compare
    --jobs` worker, a daemonic pool worker) never uses one, and a plain
    fork does not use the helper it inherits (its owner pid differs)."""
    global _helper
    if n_removals < 2 or not queue and index.s_raw.size < _HELPER_CELLS:
        return None
    if (multiprocessing.parent_process() is not None
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            # A larger write is not atomic.
            or n_removals * _RemovalHelper.record.size > select.PIPE_BUF):
        return None
    if _helper is not None and _helper.owner != os.getpid():
        _helper = None
    if _helper is not None and not _helper.proc.is_alive():
        _helper.close()
    if _helper is None:
        if threading.active_count() > 1:
            # fork copies only this thread: a lock another one holds would
            # stay held in the helper.
            return None
        _helper = _RemovalHelper()
    return _helper


def _claim(claims: int):
    """The next (settle number, removal position) record of the claim pipe,
    or None once it is empty. One os.read of one record: the read end never
    blocks, and each write holds whole records."""
    try:
        return _RemovalHelper.record.unpack(
            os.read(claims, _RemovalHelper.record.size))
    except BlockingIOError:
        return None


class QueuedMarginals:
    """One DS settle's removals in the removal helper's queue, from its
    hand-off until the helper's reply (see the module docstring). result()
    waits for them; cancel() drops the queue with its helper."""

    def __init__(self, helper, number: int, index: _Instance,
                 optimal: frozenset, target: float, cuts: list, size: int):
        self.helper, self.number, self.size = helper, number, size
        self.index, self.optimal, self.target = index, optimal, target
        self.cuts = cuts
        self.done: dict[int, float] = {}

    def compute(self, k: int) -> float:
        _, i, j = self.cuts[k]
        return _removal_value(self.index, self.optimal, self.target, i, j)

    def result(self) -> dict[str, float]:
        """Each removal's value by participant. What raised (None in done),
        or what a failed helper took and did not return, is computed here,
        so an error keeps its type."""
        self.helper.wait(self)
        return {p: self.compute(k) if (v := self.done.get(k)) is None else v
                for k, (p, _, _) in enumerate(self.cuts)}

    def cancel(self) -> None:
        if self.number in self.helper.queue:
            self.helper.close()


class _RemovalHelper:
    """The removal helper: one daemon process, forked from the settle's
    process, that shares DS settles' removals with it through the claim
    pipe's records and one message per settle, and replies once per
    message (see the module docstring). `queue` holds the settles handed
    off and not yet replied to, in order. A helper that fails, or whose
    pipe fails, is closed, and the next settle forks a new one; what it
    took and did not return is computed in-process. Anything else raised
    while this process hands off or waits (an error of the settle's own
    removals, an interrupt, a signal handler's exception) closes the helper
    before it propagates. Forked, not spawned: the helper starts from this
    process's loaded modules, with no import or start-up cost.
    """

    record = struct.Struct("qq")    # settle number, removal position

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.owner, self.settle = os.getpid(), 0
        self.queue: dict[int, QueuedMarginals] = {}
        self.claims, self.records = os.pipe()
        os.set_blocking(self.claims, False)
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_helper_main, daemon=True,
                                args=(child, self.conn, self.claims))
        self.proc.start()
        child.close()

    def close(self) -> None:
        global _helper
        if _helper is self:
            _helper = None
        self.queue.clear()
        # SIGKILL, not SIGTERM: a stopped helper would not act on SIGTERM.
        self.proc.kill()
        self.proc.join()
        self.conn.close()
        os.close(self.claims)
        os.close(self.records)

    def hand_off(self, index: _Instance, optimal: frozenset, target: float,
                 cuts: list) -> QueuedMarginals | None:
        """Queue one settle's removals `cuts` ((participant, row, col)), or
        None, and nothing sent, when the queue has no room for them: an
        empty queue takes any settle. Takes the replies that have come,
        without waiting."""
        try:
            self.take_replies(block=False)
            message = pickle.dumps(
                (self.settle + 1, index.removal_state(), optimal, target,
                 [(i, j) for _, i, j in cuts]),
                protocol=pickle.HIGHEST_PROTOCOL)
            size = len(message) + _SEND_COST
            ahead = self.queue.values()
            if ahead and (
                    sum(len(q.cuts) for q in ahead) + len(cuts)
                    > _QUEUE_RECORDS
                    or sum(q.size for q in ahead) + size > _QUEUE_BYTES):
                return None
            self.settle += 1
            queued = QueuedMarginals(self, self.settle, index, optimal,
                                     target, cuts, size)
            self.queue[self.settle] = queued
            os.write(self.records, b"".join(
                self.record.pack(self.settle, k) for k in range(len(cuts))))
            self.conn.send_bytes(message)
            return queued
        except (EOFError, OSError):
            self.close()
        except BaseException:
            self.close()
            raise
        return None

    def wait(self, queued: QueuedMarginals) -> None:
        """Claim every record left and take replies until `queued` has all
        its values or its reply. A removal that raises is kept as None, for
        its settle's result() to raise in settle order."""
        try:
            while (queued.number in self.queue
                   and len(queued.done) < len(queued.cuts)):
                while (claim := _claim(self.claims)) is not None:
                    number, k = claim
                    owner = self.queue[number]
                    try:
                        owner.done[k] = owner.compute(k)
                    except Exception:
                        owner.done[k] = None
                if len(queued.done) < len(queued.cuts):
                    # The helper took the rest.
                    self.take_replies(block=True)
        except (EOFError, OSError):
            self.close()
        except BaseException:
            self.close()
            raise

    def take_replies(self, block: bool) -> None:
        """Take the replies that have come, after waiting for one if
        `block`. A reply's settle leaves the queue with the helper's
        values."""
        while block or self.conn.poll():
            number, done = self.conn.recv()
            self.queue.pop(number).done.update(done)
            block = False


def _helper_main(conn, owners_end, claims: int) -> None:
    """The removal helper's loop: one settle per message, until the message
    pipe ends. It takes the settle's records, the pipe's first, until the
    pipe is empty or a record names a later settle, and then replies with
    the settle number and its values. A removal that raises goes as None:
    the settle's process computes it again and raises."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The fork copied the settle's process's end: closed, the pipe ends when
    # that process does.
    owners_end.close()
    ahead = None    # a record taken of a later settle
    try:
        while True:
            settle, state, optimal, target, cuts = conn.recv()
            index, done = None, {}
            while (claim := ahead or _claim(claims)) is not None:
                ahead = None
                number, k = claim
                if number != settle:
                    ahead = claim
                    break
                if index is None:
                    index = _Instance.of_removal_state(state)
                try:
                    done[k] = _removal_value(index, optimal, target, *cuts[k])
                except Exception:
                    done[k] = None
            conn.send((settle, done))
    except (EOFError, OSError):
        return


_helper: _RemovalHelper | None = None


def _welfare_index(problem: MatchingProblem) -> _Instance:
    """The welfare program's _Instance, over the edges with sigma >= 0."""
    table = problem.table
    return _Instance(table, table.sigma >= 0.0)


def _id_order(ids, pos: np.ndarray):
    """The ids that pos uses, in id order, and pos renumbered into them."""
    used = np.bincount(pos, minlength=len(ids)).tolist()
    keep = sorted(compress(range(len(ids)), used), key=ids.__getitem__)
    place = np.empty(len(ids), dtype=np.intp)
    place[np.array(keep, dtype=np.intp)] = np.arange(len(keep))
    return tuple(map(ids.__getitem__, keep)), place[pos]


def _drop_unused(ids: tuple, pos: np.ndarray):
    """The ids that pos uses, in their order, and pos renumbered into them."""
    used = np.bincount(pos, minlength=len(ids))
    if np.count_nonzero(used) == used.size:
        return ids, pos
    kept = used.nonzero()[0]
    return tuple(map(ids.__getitem__, kept.tolist())), kept.searchsorted(pos)


def _lsa_cells(w: np.ndarray):
    """One LSA optimum of w: its value and its positive-weight cells (rows,
    cols), in row order, with no solve when w is empty."""
    if not w.size:
        return 0.0, np.empty(0, np.intp), np.empty(0, np.intp)
    ri, ci = linear_sum_assignment(w, maximize=True)
    keep = w[ri, ci] > 0.0
    return float(w[ri, ci].sum()), ri[keep], ci[keep]


def _row_sum(values: np.ndarray) -> float:
    """_canonical_sum of a matching's values given in row order. Rows are
    drivers in id order, so that is the order of its pairs."""
    return float(sum(values.tolist()))


def _welfare_tie_break(m: _Instance) -> tuple[CandidateEdge, ...]:
    """Tie-break-optimal maximum-welfare matching of the welfare index m.

    The LSA pick of m.core, in driver id order, is the only incumbent, and
    its total the optimum p*. An edge branch-and-bound over _welfare_face,
    bounded by _FaceBound, takes a leaf only when _better ranks it above the
    incumbent. chosen keeps the winner's order.
    """
    pick, u, v, _ = m.core
    face = _welfare_face(m)
    if len(face) == len(pick) and all(e.sigma > 1e-6 for e in pick):
        # The face is the pick (or empty): every other leaf drops a pick
        # edge, so it falls more than _TOL below p*.
        return pick
    p_star = _canonical_sum(pick, "sigma")
    best = _Incumbent(pick, "sigma")
    bound = _FaceBound(m, face, u, v)
    ends = bound.ends
    stack: list[CandidateEdge] = []

    def recurse(live, cur_v, cur_t):
        # live: the undecided face edges whose ends are both free, in order.
        if not live:
            if cur_v >= p_star - _TOL:
                best.offer(stack)
            return
        if not best.beats(cur_v + bound(live), cur_t):
            return
        e, rest = face[live[0]], live[1:]
        i, j = ends[live[0]]
        stack.append(e)
        recurse([k for k in rest if ends[k][0] != i and ends[k][1] != j],
                cur_v + e.sigma, cur_t + e.tau)
        stack.pop()
        recurse(rest, cur_v, cur_t)

    recurse(list(range(len(face))), 0.0, 0.0)
    return best.chosen


def _welfare_face(m: _Instance):
    """The sigma > 0 edges of m with reduced cost <= 1e-6 under both of the
    core's extreme points, (u_max, v_min) and (u_min = sigma - v_max on the
    pick, v_max), in (-sigma, tau, pair) order: every optimal matching lies
    on them. The pick does, so only a larger face takes the second test."""
    pick, u, v, v_max = m.core
    fi, fj = ((m.s_raw > 0.0)
              & (u[:, None] + v[None, :] - m.s_raw <= 1e-6)).nonzero()
    if fi.size > len(pick):
        rows, cols = m.pick_cells
        u_min = np.zeros_like(u)
        u_min[rows] = m.s_raw[rows, cols] - v_max[cols]
        tight = u_min[fi] + v_max[fj] - m.s_raw[fi, fj] <= 1e-6
        fi, fj = fi[tight], fj[tight]
    return sorted(m.table.at(m.eid[fi, fj]),
                  key=lambda e: (-e.sigma, e.tau, e.pair))


def _core_point(w: np.ndarray, rows, cols):
    """The rows' best point (u, v) of the core of the assignment game on w, an
    optimal dual with u_i = V - V_-i (Shapley and Shubik 1971; Leonard 1983),
    from an optimal matching rows[k] -> cols[k]. v is the least v >= 0 with
    u + v >= w, where u = w - v on the matching and 0 off it: the longest
    paths of the matching's exchange graph, by Bellman-Ford from v = 0. An
    optimal matching leaves no positive cycle, so it ends within one pass per
    column and one more; the cap stops a cycle that rounding makes positive.
    """
    u, v = np.zeros(w.shape[0]), np.zeros(w.shape[1])
    matched = w[rows, cols]
    for _ in range(w.shape[1] + 1):
        u[rows] = matched - v[cols]
        v, last = (w - u[:, None]).max(axis=0, initial=0.0), v
        if (v == last).all():
            break
    return u, v


class _FaceBound:
    """What the live face edges (undecided, both ends free) can still add
    at a node of _welfare_tie_break. By weak duality a matching of k of
    them adds at most max(u, 0) and max(v, 0) summed over the vertices they
    can join, plus k times the face's most negative reduced cost, which
    rounding leaves; math.fsum adds no rounding of its own."""

    def __init__(self, m: _Instance, face, u, v):
        self.ends = [(m.d_index[e.driver], m.r_index[e.rider]) for e in face]
        self.u, self.v = np.maximum(u, 0.0).tolist(), np.maximum(v, 0.0).tolist()
        self.slack = max([0.0] + [-math.fsum((u[i], v[j], -e.sigma))
                                  for (i, j), e in zip(self.ends, face)])

    def __call__(self, live) -> float:
        """live: the positions in the face of the live edges."""
        ends = self.ends
        rows = {ends[k][0] for k in live}
        cols = {ends[k][1] for k in live}
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


class _Incumbent:
    """A tie-break search's best matching so far and its solution key, the
    one place that applies the order of _better to a search."""

    def __init__(self, chosen, primary: str):
        self.primary = primary
        self.key, self.chosen = _solution_key(chosen, primary), tuple(chosen)

    def beats(self, ub_v, cur_t=-math.inf) -> bool:
        """Whether a completion with welfare at most ub_v and total tau at
        least cur_t (unknown by default) can still beat the incumbent:
        higher welfare, or equal welfare and no more tau, within
        _PRUNE_TOL."""
        welfare, tau = self.key[1], self.key[2]
        if ub_v < welfare - _PRUNE_TOL:
            return False
        return ub_v > welfare + _PRUNE_TOL or cur_t <= tau + _PRUNE_TOL

    def offer(self, chosen) -> None:
        """Take chosen, in its order, when _better ranks it above."""
        key = _solution_key(chosen, self.primary)
        if _better(key, self.key):
            self.key, self.chosen = key, tuple(chosen)


class _Instance:
    """One settle's index, shared by its solve and all removals.

    Rows and columns are the drivers and riders with an edge among `keep`
    (all the table's edges when None), in id order; the welfare index keeps
    the sigma >= 0 edges. It is built from the table's columns by one
    scatter each: s_raw holds each edge's sigma (0 off the edges), has_edge
    the edges and eid their ids in the table (-1 off the edges), which
    CandidateEdge objects come from (table.at). The sensing program's zc
    (each column's zeta) and z_raw are built on first use: a rider with two
    zeta values raises ContractError there, and the welfare program never
    reads them; its core (the pick and both core points) is built on first
    use too. So are what the sensing searches share: the column order,
    zeta_integral and the removal searches' search_rows. The searches name
    riders only by column.
    """

    def __init__(self, table: _EdgeTable, keep=None):
        self.table = table
        d_ids, r_ids = table.d_ids, table.r_ids
        if keep is None:
            ids = np.arange(table.di.size)
            rows, cols, sigma = table.di, table.ri, table.sigma
        else:
            ids = keep.nonzero()[0]
            d_ids, rows = _drop_unused(d_ids, table.di[ids])
            r_ids, cols = _drop_unused(r_ids, table.ri[ids])
            sigma = table.sigma[ids]
        self.ids, self.edge_cols = ids, cols
        self.d_index = dict(zip(d_ids, range(len(d_ids))))
        self.r_index = dict(zip(r_ids, range(len(r_ids))))
        shape = len(d_ids), len(r_ids)
        self.s_raw = np.zeros(shape)
        self.s_raw[rows, cols] = sigma
        self.eid = np.full(shape, -1, dtype=np.intp)
        self.eid[rows, cols] = ids
        self._floor_lam: float | None = None

    @_lazy
    def has_edge(self) -> np.ndarray:
        # The welfare program never reads it.
        return self.eid >= 0

    def lsa_pick(self, w: np.ndarray) -> tuple[float, tuple]:
        """One LSA optimum of w, over this index's cells: its value and its
        positive-weight edges, in row order."""
        value, rows, cols = _lsa_cells(w)
        return value, self.table.at(self.eid[rows, cols])

    @_lazy
    def zc(self) -> np.ndarray:
        """Each column's zeta."""
        zeta, col = self.table.zeta[self.ids], self.edge_cols
        zc = np.zeros(len(self.r_index))
        zc[col] = zeta
        if np.count_nonzero(two := zc[col] != zeta):
            rider = list(self.r_index)[col[two.argmax()]]
            raise ContractError(f"rider {rider!r} has two zeta values")
        return zc

    @_lazy
    def order(self) -> np.ndarray:
        """The columns in the searches' (-zeta, id) order: columns are in id
        order, so a stable sort on -zeta alone gives it."""
        return np.argsort(-self.zc, kind="stable")

    @_lazy
    def zeta_integral(self) -> bool:
        """Every rider's zeta is a whole number, and so is every sum of them
        in float: a feasible sensing total is then an integer."""
        zeta = self.zc.tolist()
        return (all(z.is_integer() for z in zeta)
                and sum(map(abs, zeta)) < 2.0 ** 52)

    @_lazy
    def search_rows(self) -> np.ndarray | None:
        """The rows a removal search keeps, as a mask, or None for all of
        them: each column's n_c + 1 best edges by sigma, for n_c columns.
        Cut only when there are more than n_c + 1 rows (see the module
        docstring for why it is exact)."""
        n_d, n_c = self.s_raw.shape
        if n_d <= n_c + 1:
            return None
        # Ties go to the lower row, as they tend to in the LSA on all rows.
        key = np.where(self.has_edge, -self.s_raw, np.inf)
        top = np.argsort(key, axis=0, kind="stable")[:n_c + 1]
        keep = np.zeros(n_d, dtype=bool)
        keep[top[self.has_edge[top, np.arange(n_c)]]] = True
        return None if keep.all() else keep

    @_lazy
    def edge_counts(self):
        """Each row's and each column's number of edges."""
        return self.has_edge.sum(axis=1), self.has_edge.sum(axis=0)

    def without(self, i, j):
        """(rows, cols): the rows and columns, in order, that an index
        rebuilt without row i's driver or column j's rider (None for
        neither) would hold. That participant's row or column goes, and so
        does every column or row whose only edges it held."""
        n_row, n_col = self.edge_counts
        rows, cols = np.arange(n_row.size), np.arange(n_col.size)
        if i is not None:
            cols = (n_col > self.has_edge[i]).nonzero()[0]
            rows = rows[rows != i]
        elif j is not None:
            rows = (n_row > self.has_edge[:, j]).nonzero()[0]
            cols = cols[cols != j]
        return rows, cols

    def removal_state(self) -> dict:
        """What a removal search reads of this index, each lazy field
        computed here first: the removal helper rebuilds the index from it
        (of_removal_state), so its searches read the same values. The floor
        multiplier goes as it stands, None where no search needed it yet;
        the helper then computes it on first use from the same arrays."""
        return {name: getattr(self, name) for name in (
            "s_raw", "has_edge", "zc", "order", "zeta_integral", "col_best",
            "search_rows", "_floor_lam")}

    @classmethod
    def of_removal_state(cls, state: dict) -> "_Instance":
        """The index of removal_state, without its table and ids."""
        index = cls.__new__(cls)
        index.__dict__.update(state)
        return index

    @_lazy
    def col_best(self) -> np.ndarray:
        """Each column's best sigma: a slice's is at most this."""
        return np.where(self.has_edge, self.s_raw, -np.inf).max(axis=0)

    @_lazy
    def z_raw(self) -> np.ndarray:
        return np.where(self.has_edge, self.zc, 0.0)

    @_lazy
    def pick_cells(self):
        """The welfare program's LSA pick as cells (rows, cols)."""
        return _lsa_cells(self.s_raw)[1:]

    @_lazy
    def core(self):
        """The welfare program's LSA pick, the drivers' core point (u_max,
        v_min) and the riders' v_max (_core_point)."""
        rows, cols = self.pick_cells
        pick = self.table.at(self.eid[rows, cols])
        u_max, v_min = _core_point(self.s_raw, rows, cols)
        return pick, u_max, v_min, _core_point(self.s_raw.T, cols, rows)[0]

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
                _, rows, cols = _lsa_cells(w)
                return _row_sum(self.zc[cols]), _row_sum(self.s_raw[rows, cols])

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


class _NodeSolve:
    """One LSA at a search node, over the gathered columns idx (j, or j + n_c
    so that idx % n_c names it), the first n_f of them forced; no LSA when
    idx is empty. value, its total, is read at every node; the matching's
    cells (rows, cols) in row order, the columns it serves beyond the forced
    ones, its welfare and, given each column's zeta, its sensing total are
    made on first read."""

    def __init__(self, value, s_raw, picked=None, ri=None, ci=None, idx=(),
                 n_f=0, zeta=None):
        self.value, self._s_raw, self._n_f = value, s_raw, n_f
        self._lsa, self._zeta = (picked, ri, ci, idx), zeta

    @_lazy
    def cells(self):
        """(rows, cols), and each cell's place among idx."""
        picked, ri, ci, idx = self._lsa
        if picked is None:
            return (np.empty(0, np.intp),) * 3
        n_d, n_c = self._s_raw.shape
        keep = picked > 0.0
        if self._n_f:
            keep |= ci < self._n_f
        if len(idx) > n_d:
            keep[n_d:] = False      # a square matrix's pad rows come last
        ci = ci[keep]
        return ri[keep], np.asarray(idx, dtype=np.intp)[ci] % n_c, ci

    rows = property(lambda self: self.cells[0])
    cols = property(lambda self: self.cells[1])

    @_lazy
    def served(self) -> frozenset:
        _, cols, place = self.cells
        return frozenset(cols[place >= self._n_f].tolist())

    @_lazy
    def sigma(self) -> float:
        return float(self._s_raw[self.rows, self.cols].sum())

    @_lazy
    def zeta(self) -> float:
        return _row_sum(self._zeta[self.cols])


class _FloorBound:
    """Lagrangian bound on the sensing total below a rider-subset node.

    For lam >= 0, any matching M with sum(sigma) >= 0 has sum(zeta) <=
    sum(zeta + lam * sigma) over M. Over the matchings that serve the node's
    forced riders and none of its excluded ones, that maximum is one LSA,
    because the assignment polytope is integral: forced columns carry
    zeta + lam * sigma and -inf on missing edges; an undecided column may
    also stay unserved, so it carries max(zeta + lam * sigma, 0) and 0 on
    missing edges, and zero-weight pad rows (-inf under forced columns)
    make up any shortfall of drivers. An infeasible LSA (ValueError) means
    no matching serves the forced riders.

    `slack` covers what the prune tests must grant: lam * _FLOOR_SLACK of
    welfare tolerance, and the rounding of a sum of up to n weights.
    """

    def __init__(self, s_raw, has_edge, zeta, lam: float):
        """zeta holds each column's zeta."""
        self.lam = lam
        self.s_raw = s_raw
        n_d, n_c = has_edge.shape
        self.zeta = zeta
        w = zeta[None, :] + lam * s_raw
        # Transposed: forced columns, then undecided ones (gathered as
        # j + n_c), each over the drivers and then the pad rows, so a node's
        # matrix is one gather of rows.
        self.weights = np.zeros((2 * n_c, max(n_d, n_c)))
        self.weights[:n_c] = -np.inf
        self.weights[:n_c, :n_d] = np.where(has_edge, w, -np.inf).T
        self.weights[n_c:, :n_d] = np.where(has_edge, np.maximum(w, 0.0), 0.0).T
        # An undecided column that no edge gives a positive weight is never
        # served, so it is left out of every solve.
        self.useful = (self.weights[n_c:].max(axis=1, initial=0.0)
                       > 0.0).tolist()
        scale = float(np.abs(w[has_edge]).max(initial=0.0))
        self.slack = (lam * _FLOOR_SLACK
                      + 1e-12 * (1.0 + n_c * scale))

    def opened(self, cols) -> list:
        """The gather indices of the useful columns among the undecided
        cols, in their order."""
        n_c, useful = len(self.useful), self.useful
        return [j + n_c for j in cols if useful[j]]

    def __call__(self, forced_cols: list, open_idx: list) -> _NodeSolve | None:
        """The bound with forced_cols served and the columns of open_idx
        (opened()) undecided; every other column is excluded."""
        idx = forced_cols + open_idx
        if not idx:
            return _NodeSolve(0.0, self.s_raw, zeta=self.zeta)
        n_d = self.s_raw.shape[0]
        wt = self.weights[:, :max(n_d, len(idx))].take(idx, axis=0)
        try:
            if len(idx) < n_d:
                # The LSA solves a tall matrix as its transpose, so handing
                # it that transpose gives the same matching without the
                # copy; it is put back in row order.
                ci, ri = linear_sum_assignment(wt, maximize=True)
                order = ri.argsort()
                ri, ci = ri[order], ci[order]
            else:
                ri, ci = linear_sum_assignment(wt.T, maximize=True)
        except ValueError:
            return None
        picked = wt[ci, ri]
        return _NodeSolve(float(picked.sum()), self.s_raw, picked, ri, ci, idx,
                          len(forced_cols), self.zeta)


class _RiderSearch:
    """One rider-subset search of the sensing program, over an _Instance's
    arrays or over their slice at a removal's rows and cols.

    The sensing total depends only on which riders are matched, so the
    search decides riders one by one in the index's (-zeta, id) order,
    'in' before 'out'. Riders are named only by column: `order` holds them
    as the index's columns (_Instance.order, kept to a slice's columns) and
    r_idx as columns of the search's arrays. zeta_bound is the prefix-sum
    bound on what the undecided riders can add. relaxation is the big-M
    welfare relaxation at the current status (0 undecided, 1 in, 2 out),
    and best_for_set, on a search of the whole index, tie-breaks one fixed
    rider set. A slice may also drop the rows outside `cut`
    (_Instance.search_rows); n_d and big still count them, so every bound
    and total is that of the uncut slice. What only a walk reads is made on
    first read, so a removal that its incumbent decides builds none of it.
    """

    def __init__(self, inst: _Instance, rows=None, cols=None, cut=None):
        grid, self.zc = (slice(None), slice(None)), inst.zc
        order = r_idx = inst.order
        if rows is not None:
            # cols ascend, so the slice's columns keep id order, and the same
            # stable sort on their zeta is the index's order kept to them.
            grid, self.zc = (rows[:, None], cols), inst.zc[cols]
            r_idx = np.argsort(-self.zc, kind="stable")
            order = cols[r_idx]
        s_raw = inst.s_raw[grid]
        self.n_d = s_raw.shape[0]
        self.big = 1000.0 * (1.0 + float(np.abs(s_raw).sum()))
        if cut is not None and not (kept := cut[rows]).all():
            grid, s_raw = (rows[kept][:, None], cols), s_raw[kept]
        self.s_raw, self.has_edge = s_raw, inst.has_edge[grid]
        self.inst, self.order, self.r_idx = inst, order, r_idx.tolist()
        self.integral = inst.zeta_integral
        self.zeta = inst.zc[order].tolist()
        self.status = [0] * len(self.zeta)
        self.lag = None

    @_lazy
    def suffix(self) -> list[float]:
        suffix = [0.0] * (len(self.zeta) + 1)
        for k in range(len(self.zeta) - 1, -1, -1):
            suffix[k] = suffix[k + 1] + max(self.zeta[k], 0.0)
        return suffix

    @_lazy
    def welfare_steps(self):
        """The walk's O(1) bound on the welfare relaxation: each forced
        column's best sigma plus each undecided column's positive best.
        Its root value, and what an 'in' and an 'out' step at depth k add."""
        best = self.inst.col_best[self.order].tolist()
        return (sum(b for b in best if b > 0.0), [min(b, 0.0) for b in best],
                [-max(b, 0.0) for b in best])

    @_lazy
    def floor_bound(self) -> _FloorBound:
        return _FloorBound(self.s_raw, self.has_edge, self.zc,
                           self.inst.floor_multiplier())

    @_lazy
    def edge_weights(self) -> np.ndarray:
        """The welfare relaxation's weights: optional columns then required
        ones, so a node's matrix is one gather. An optional edge carries
        max(sigma, 0) (0 off the edges, where s_raw is 0), a required one
        sigma + big (-big off the edges)."""
        n_c = self.s_raw.shape[1]
        w = np.empty((self.s_raw.shape[0], 2 * n_c))
        np.maximum(self.s_raw, 0.0, out=w[:, :n_c])
        w[:, n_c:] = np.where(self.has_edge, self.s_raw + self.big, -self.big)
        return w

    def zeta_bound(self, k, n_in, cur_p):
        # Riders come in descending zeta: the suffix's top is its prefix.
        take = min(self.n_d - n_in, len(self.zeta) - k)
        return cur_p + (self.suffix[k] - self.suffix[k + take])

    def _relax(self, w, idx, n_req) -> _NodeSolve | None:
        """One LSA of the welfare relaxation on w, the gathered columns idx
        (edge_weights), n_req of them required: its total less their big,
        or None when a required column is left unmatched or matched on a
        missing edge, which shows up as a missing +big term."""
        ri, ci = linear_sum_assignment(w, maximize=True)
        picked = w[ri, ci]
        total = float(picked.sum())
        if total < n_req * self.big - self.big / 2:
            return None
        return _NodeSolve(total - n_req * self.big, self.s_raw, picked, ri,
                          ci, idx)

    def relaxation(self, cur_w=math.inf) -> _NodeSolve | None:
        """Max welfare with 'in' riders forced, undecided ones optional and
        'out' ones removed, or None when no matching serves the 'in' riders;
        it bounds the welfare of every completion. Its value is the total,
        its cells the LSA's positive-weight cells. Also None, with no LSA,
        when the walk's bound cur_w (welfare_steps) is below
        -_TOL - _FLOOR_SLACK: the total would fail the floor too."""
        if cur_w < -_TOL - _FLOOR_SLACK:
            return None
        n_c = self.s_raw.shape[1]
        idx = [j + n_c * st for st, j in zip(self.status, self.r_idx)
               if st != 2]
        if not idx:
            return _NodeSolve(0.0, self.s_raw)
        return self._relax(self.edge_weights.take(idx, axis=1), idx,
                           self.status.count(1))

    def run(self, open_node, visit, root=False):
        """Walk the rider subsets depth first.

        open_node(k, n_in, cur_p) is a node's zeta test, before it counts;
        a search whose root fails it builds nothing more. After
        _LAGRANGE_AFTER counted nodes (from the root with `root`, unless
        _LAGRANGE_AFTER is inf) the walk holds the search's _FloorBound,
        and each node a Lagrangian matching `held`: its parent's when that
        still fits (served riders stay in, unserved ones out), else one
        solve, and no matching prunes the node. visit(k, cur_p, cur_w,
        held, fit) then runs the node's floor tests, where cur_w is
        relaxation()'s welfare bound, and, at k == len(r_idx), its leaf.
        It returns False to prune, else the served columns of a matching
        that passes the welfare test with room to spare, or None: a child
        keeps that `fit` by the same rule as `held`. With `root` a node
        takes first the branch that `held` takes.
        """
        if not open_node(0, 0, 0.0):
            return
        n_d, n = self.n_d, len(self.r_idx)
        after = 0 if root and _LAGRANGE_AFTER < math.inf else _LAGRANGE_AFTER
        status, r_idx, zeta = self.status, self.r_idx, self.zeta
        w_root, w_in, w_out = self.welfare_steps
        forced: list[int] = []      # the 'in' columns, in rider order
        opens = {}                  # each depth's opened() undecided columns
        nodes = 0
        self.lag = None

        def recurse(k, n_in, cur_p, cur_w, held, fit):
            nonlocal nodes
            if not open_node(k, n_in, cur_p):
                return
            nodes += 1
            if nodes > after and self.lag is None:
                self.lag = self.floor_bound
            if self.lag is not None and held is None:
                if k not in opens:
                    opens[k] = self.lag.opened(r_idx[k:])
                held = self.lag(forced, opens[k])
                if held is None:
                    return
            fit = visit(k, cur_p, cur_w, held, fit)
            if fit is False or k == n:
                return
            served = held is not None and r_idx[k] in held.served
            fits = fit is not None and r_idx[k] in fit
            out_first = root and held is not None and not served
            if out_first:
                status[k] = 2
                recurse(k + 1, n_in, cur_p, cur_w + w_out[k], held,
                        None if fits else fit)
            if n_in < n_d:
                status[k] = 1
                forced.append(r_idx[k])
                recurse(k + 1, n_in + 1, cur_p + zeta[k], cur_w + w_in[k],
                        held if served else None, fit if fits else None)
                forced.pop()
            if not out_first:
                status[k] = 2
                recurse(k + 1, n_in, cur_p, cur_w + w_out[k],
                        None if served else held, None if fits else fit)
            status[k] = 0

        recurse(0, 0, 0.0, w_root, None, None)

    def best_for_set(self, cols: list, best: _Incumbent) -> None:
        """Offer `best` the tie-break-optimal matching covering exactly the
        given rider columns of the whole index.

        With the matched rider set fixed, the required-assignment relaxation
        is a tight welfare bound, so the search only walks the genuine
        welfare/travel-time tie region.
        """
        free_d = np.ones(self.s_raw.shape[0], dtype=bool)
        chosen: list[CandidateEdge] = []
        # The required columns of edge_weights.
        required = np.asarray(cols, dtype=int) + self.s_raw.shape[1]
        weights = self.edge_weights
        # rest_bound by (k, free rows): different branches free the same
        # drivers, and the same LSA input gives the same bound.
        bounds = {}
        edges = {}      # (row, edge id) of column cols[k], by k

        def rest_bound(k):
            sub_cols = required[k:]
            if sub_cols.size == 0:
                return 0.0
            key = k, free_d.tobytes()
            if key not in bounds:
                rows = np.flatnonzero(free_d)
                node = None if rows.size < sub_cols.size else self._relax(
                    weights[rows[:, None], sub_cols], sub_cols, sub_cols.size)
                bounds[key] = None if node is None else node.value
            return bounds[key]

        def recurse(k, cur_v, cur_t):
            rest = rest_bound(k)
            if rest is None:
                return
            ub_v = cur_v + rest
            if ub_v < -_TOL or not best.beats(ub_v, cur_t):
                return
            if k == len(cols):
                best.offer(chosen)
                return
            if k not in edges:
                j = cols[k]
                rows = np.flatnonzero(self.has_edge[:, j])
                edges[k] = list(zip(rows.tolist(),
                                    self.inst.eid[rows, j].tolist()))
            for i, eid in edges[k]:
                if not free_d[i]:
                    continue
                e = self.inst.table.edge(eid)
                free_d[i] = False
                chosen.append(e)
                recurse(k + 1, cur_v + e.sigma, cur_t + e.tau)
                chosen.pop()
                free_d[i] = True

        recurse(0, 0.0, 0.0)


def _optimal_primary_riders(search: _RiderSearch, incumbent=frozenset(),
                            target=math.inf):
    """Pass 1 of the sensing program: the best sensing total, and a matching
    attaining it, over the matchings that meet the welfare floor.

    The matching is returned as the search's cells (rows, cols), in row
    order, and the total is their canonical zeta sum, so a removal search,
    which needs only the value, makes no CandidateEdge.

    A removal search passes a rider set known to be good as `incumbent`, a
    set of the index's columns (tried first and kept only if it meets the
    floor), and the full market's optimum as `target`; the search ends once
    its best value reaches target - _PRUNE_TOL. Its Lagrangian tests prune only where the zeta
    bound would let no leaf beat best_p either, so the full solve returns
    the same matching; a removal search, which needs only the value, also
    takes a node's Lagrangian matching as its incumbent when that matching
    meets the floor. On an integral index (_Instance.zeta_integral) a better
    leaf gains at least 1, so the test grants a whole unit, and a removal
    search holds the bound from the root and takes the held matching's
    branch first.
    """
    s = search
    removal = target < math.inf
    gain = 1.0 if s.integral else _PRUNE_TOL
    best_p = 0.0
    best_cells = np.empty(0, np.intp), np.empty(0, np.intp)
    if incumbent:
        # The leaf test of visit, on the incumbent's rider set.
        s.status[:] = [1 if j in incumbent else 2 for j in s.order.tolist()]
        node = s.relaxation()
        cur_p = 0.0
        for z, st in zip(s.zeta, s.status):
            if st == 1:
                cur_p += z
        if node is not None and node.value >= -_TOL and cur_p > best_p:
            best_p, best_cells = cur_p, (node.rows, node.cols)
        s.status[:] = [0] * len(s.status)
    stop = target - _PRUNE_TOL

    def open_node(k, n_in, cur_p):
        return (best_p < stop
                and s.zeta_bound(k, n_in, cur_p) > best_p + _PRUNE_TOL)

    def visit(k, cur_p, cur_w, held, fit):
        nonlocal best_p, best_cells
        if held is not None:
            lag = s.lag
            if held.value + lag.slack < best_p + gain:
                return False
            # Only where the value does not prune can the held matching's
            # zeta total beat best_p. An inherited one was offered at its
            # parent, and its total is kept on it.
            if removal and held.sigma >= -_TOL and held.zeta > best_p:
                best_p, best_cells = held.zeta, (held.rows, held.cols)
                if best_p >= stop or held.value + lag.slack < best_p + gain:
                    return False
        if k == len(s.r_idx):
            node = s.relaxation(cur_w)
            if node is None or node.value < -_TOL:
                return False
            if cur_p > best_p:
                # No rider is undecided, so the matching serves exactly the
                # 'in' ones.
                best_p, best_cells = cur_p, (node.rows, node.cols)
            return None
        # A matching with welfare >= _FLOOR_SLACK that still fits the node,
        # a held one or an inherited `fit`, passes this test for sure.
        if fit is None and (held is None or held.sigma < _FLOOR_SLACK):
            node = s.relaxation(cur_w)
            if node is None or node.value < -_TOL:
                return False
            if node.value >= _FLOOR_SLACK:
                fit = frozenset(node.cols.tolist())
        return fit

    s.run(open_node, visit, root=removal and s.integral)
    return _row_sum(s.zc[best_cells[1]]), best_cells


def _pass2_riders(s: _RiderSearch, p_star: float, seed):
    """Pass 2 of the sensing program: the tie-break-optimal matching among
    those with sensing total p_star that meet the floor.

    s is a search of the whole index, walked again here with its own
    welfare relaxations. Pass 1's `seed` is the only incumbent. The search
    walks the rider sets that can still attain p_star, prunes those whose
    welfare relaxation fails the floor or cannot beat the incumbent's
    welfare, and tie-breaks each leaf's set with best_for_set. Its
    Lagrangian test: a leaf it tie-breaks holds zeta of at least p_star
    and, if it can still win, welfare of at least the incumbent's, so a
    subtree whose bound falls below p_star + lam * that welfare (less the
    slack) holds none. The leaves visited, and their order, are those of
    the search without the bound.
    """
    if p_star <= _PRUNE_TOL and not seed:
        # zeta is never negative, so every optimal matching serves only
        # riders with zeta 0; the maximum-welfare one of those meets the floor.
        table = s.inst.table
        return _welfare_tie_break(_Instance(
            table, (table.zeta == 0.0) & (table.sigma >= 0.0)))
    best = _Incumbent(seed, "zeta")

    def open_node(k, n_in, cur_p):
        return s.zeta_bound(k, n_in, cur_p) >= p_star - _PRUNE_TOL

    def visit(k, cur_p, cur_w, held, fit):
        welfare = best.key[1]
        if held is not None and (held.value + s.lag.slack
                                 < p_star - _TOL + s.lag.lam * welfare):
            return False
        # As in pass 1, a held matching with enough welfare passes both
        # welfare tests for sure.
        if held is None or held.sigma < max(welfare, 0.0) + _FLOOR_SLACK:
            node = s.relaxation(cur_w)
            if (node is None or node.value < -_TOL
                    or not best.beats(node.value)):
                return False
        if k == len(s.r_idx):
            s.best_for_set(sorted(j for j, st in zip(s.r_idx, s.status)
                                  if st == 1), best)
        return None

    s.run(open_node, visit)
    return best.chosen


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
    # A document is a list of edge records, so it is read as edges: their
    # objects are made at load, not inside each settle's time.
    edges = [CandidateEdge(driver=e["d"], rider=e["r"], tau=float(e["tau"]),
                           P_d=float(e["P_d"]), P_r=float(e["P_r"]),
                           zeta=float(e["zeta"]), h_r=float(e.get("h", 0.0)))
             for e in doc["edges"]]
    drivers = tuple(doc.get("drivers") or sorted({e.driver for e in edges}))
    riders = tuple(doc.get("riders") or sorted({e.rider for e in edges}))
    return MatchingProblem(edges=edges, drivers=drivers, riders=riders,
                           objective=doc.get("objective", WELFARE))
