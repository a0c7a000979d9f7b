"""Epoch-driven fleet simulation: demand, movement, bidding, settlement, KPIs.

One run is strictly sequential; distinct runs (seed, fleet size, mechanism)
share no mutable state and can execute in parallel.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import pricing
from .assignment import build_candidates
from .errors import ConfigurationError, ContractError
from .gridworld import GridWorld, ProspectModel, load_world, route
from .market import DriverState, DriverStatus, Rates, RiderRequest
from .sensing import (CoverageState, SensingParams, commit_route,
                      total_sensing_utility)

REMOTE_FRACS = {1: 0.05, 2: 0.15, 3: 0.30}


def default_world(rows: int = 8, cols: int = 8) -> dict:
    """Synthetic demand field: mass concentrated in one hot region, like a CBD."""
    cx, cy = 0.75 * cols, 0.45 * rows
    dens = []
    for r in range(rows):
        for c in range(cols):
            d2 = (c + 0.5 - cx) ** 2 + (r + 0.5 - cy) ** 2
            dens.append(math.exp(-d2 / 6.0) + 0.01)
    return {"rows": rows, "cols": cols, "cell_size_km": 1.0,
            "densities": dens, "xi": 50.0, "p_star_frac": 0.9}


@dataclass
class ScenarioConfig:
    world: dict = field(default_factory=default_world)
    fleet_size: int = 50
    horizon_intervals: int = 4
    epochs_per_interval: int = 18
    epoch_seconds: float = 200.0
    speed_kmh: float = 35.0
    radius_km: float = 2.0
    alpha: float = 1.5
    beta: float = 2.75
    bid_low: float = 1.0
    bid_high: float = 2.0
    overreport_fraction: float = 0.0
    overreport_high: float = 0.5
    demand_scenario: int = 1
    requests_per_hour: float = 144.0
    remote_frac: float | None = None   # overrides the scenario lookup if set
    sensing_exponent: float = 0.2
    rider_patience_epochs: int = 2
    reposition_radius_km: float = 3.0
    floor_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        """Reject every value a run cannot use, before the run starts."""
        for name, low in (("fleet_size", 0), ("horizon_intervals", 1),
                          ("epochs_per_interval", 1), ("demand_scenario", 0),
                          ("rider_patience_epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) \
                    or isinstance(value, bool) or value < low:
                raise ConfigurationError(f"{name} must be an integer >= {low}")
        for name, positive in (("epoch_seconds", True), ("speed_kmh", True),
                               ("radius_km", False), ("bid_low", False),
                               ("bid_high", False), ("overreport_high", False),
                               ("requests_per_hour", False),
                               ("reposition_radius_km", False)):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if positive
                                              else value >= 0)):
                raise ConfigurationError(
                    f"{name} must be finite and "
                    f"{'positive' if positive else 'non-negative'}")
        # numpy's Poisson draw of an epoch's requests refuses a mean above
        # 2**63 - 1 less 10 sqrt of it (ValueError "lam value too large").
        top = 2 ** 63 - 1
        if (self.requests_per_hour / self.epochs_per_interval
                > top - 10 * math.sqrt(top)):
            raise ConfigurationError(
                "requests_per_hour / epochs_per_interval must be at most "
                "about 9.22e18, the largest Poisson mean numpy draws")
        if not isinstance(self.floor_enabled, bool):
            raise ConfigurationError("floor_enabled must be true or false")
        if self.bid_low > self.bid_high:
            raise ConfigurationError("bid_low must not exceed bid_high")
        for name in ("overreport_fraction", "remote_frac"):
            value = getattr(self, name)
            if name == "remote_frac" and value is None:
                continue    # the only optional fraction
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.demand_scenario not in REMOTE_FRACS and self.remote_frac is None:
            raise ConfigurationError(
                f"unknown demand scenario {self.demand_scenario}")
        try:
            self.rates
        except ContractError as exc:
            raise ConfigurationError(f"rates: {exc}") from exc
        SensingParams(exponent=self.sensing_exponent)
        # Validating the world builds it, so the run reads this build. A
        # field assigned later is not validated (replace() is), nor rebuilt.
        self.built_world = load_world(self.world)

    @property
    def effective_remote_frac(self) -> float:
        if self.remote_frac is not None:
            return self.remote_frac
        return REMOTE_FRACS[self.demand_scenario]

    @property
    def rates(self) -> Rates:
        return Rates(alpha=self.alpha, beta=self.beta)

    @classmethod
    def from_json(cls, source) -> "ScenarioConfig":
        if isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        elif isinstance(source, (str, Path)):
            with open(source) as fh:
                doc = json.load(fh)
        else:
            doc = dict(source)
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class EpochOutcome:
    interval: int
    epoch: int
    n_generated: int
    n_waiting: int
    n_matched: int
    n_abandoned: int
    # Inside run_scenario, a queued DS epoch's pricing.PendingSettlement
    # until run_scenario's drain (SimulationState.settle_pending).
    settlement: pricing.EpochSettlement


@dataclass
class KpiReport:
    mechanism: str
    scenario: int
    fleet_size: int
    seed: int
    matching_rate: float
    avg_wait_min: float
    sensing_utility: float
    coverage_rate: float
    revenue: float
    avg_u_driver: float
    avg_u_rider: float
    high_zeta_matches: int
    per_interval: list[dict] = field(default_factory=list)
    outcomes: list[EpochOutcome] = field(default_factory=list)


KPI_CSV_HEADER = ["mechanism", "scenario", "fleet_size", "seed", "interval",
                  "matching_rate", "avg_wait_min", "sensing_utility",
                  "coverage_rate", "revenue", "avg_u_driver", "avg_u_rider",
                  "high_zeta_matches"]


def generate_demand(config: ScenarioConfig, world: GridWorld,
                    model: ProspectModel, epoch: int,
                    rng: np.random.Generator) -> list[RiderRequest]:
    """Draw one epoch's trip requests from the synthetic demand field.

    Origins follow the density field. Destinations follow the density field
    with probability 1 - remote_frac, and are otherwise uniform over the
    bottom-quartile-prospect cells, which makes higher scenarios produce more
    remote (low-prospect) trips.

    A density draw bisects world.demand_cdf (right side, as
    searchsorted(side="right")) with one rng.random(). That is how
    rng.choice(n_cells, p=densities) draws, on the same CDF, and a remote
    draw indexes low_cells with one rng.integers, as rng.choice(low_cells)
    does; so the random stream and every cell are unchanged.
    """
    mean = config.requests_per_hour / config.epochs_per_interval
    count = int(rng.poisson(mean))
    remote_frac = config.effective_remote_frac
    cdf, low_cells = world.demand_cdf.tolist(), model.low_cells
    riders = []
    for k in range(count):
        o_cell = bisect_right(cdf, rng.random())
        if rng.random() < remote_frac:
            d_cell = int(low_cells[rng.integers(0, len(low_cells))])
        else:
            d_cell = bisect_right(cdf, rng.random())
        origin = _point_in_cell(world, o_cell, rng)
        dest = _point_in_cell(world, d_cell, rng)
        delta_true = float(rng.uniform(config.bid_low, config.bid_high))
        riders.append(RiderRequest(
            id=f"r{epoch}_{k}", origin=origin, dest=dest,
            route=route(world, origin, dest),
            delta_true=delta_true, delta_reported=delta_true, epoch=epoch))
    return riders


def _point_in_cell(world: GridWorld, cell: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    row, col = divmod(cell, world.cols)
    cs = world.cell_size
    return (float((col + rng.random()) * cs), float((row + rng.random()) * cs))


def apply_reporting(truths, fraction: float, rng: np.random.Generator,
                    high: float = 0.5):
    """Over-report a Bernoulli(fraction) subset by a U[0, high] markup.

    The markup and the inclusion draw are consumed for every participant, so
    runs with nested fractions on a fixed seed share their randomness.
    """
    reported = []
    for truth in truths:
        u = rng.random()
        eps = rng.uniform(0.0, high)
        reported.append(truth + eps if u < fraction else truth)
    return reported


def make_fleet(config: ScenarioConfig, world: GridWorld,
               rng: np.random.Generator) -> list[DriverState]:
    ex, ey = world.extent
    truths = [float(rng.uniform(config.bid_low, config.bid_high))
              for _ in range(config.fleet_size)]
    reported = apply_reporting(truths, config.overreport_fraction, rng,
                               high=config.overreport_high)
    return [DriverState(id=f"d{i}",
                        location=(float(rng.uniform(0, ex)),
                                  float(rng.uniform(0, ey))),
                        b_true=truths[i], b_reported=reported[i],
                        speed=config.speed_kmh)
            for i in range(config.fleet_size)]


def reposition_vacant(drivers, world: GridWorld, model: ProspectModel,
                      dt_hours: float, speed_kmh: float,
                      radius_km: float = 3.0) -> None:
    """Cruise vacant drivers toward the best-prospect cell in their vicinity.

    Each driver targets the centroid within radius_km of highest prospect;
    ties go to the nearest centroid, then to the lowest cell id. A driver
    with no centroid in radius, or already in its target cell, stays put.
    """
    vacant = [d for d in drivers if d.status is DriverStatus.VACANT]
    locs = np.array([d.location for d in vacant], dtype=float).reshape(-1, 2)
    dists = world.centroid_dists(locs)
    nearby = dists <= radius_km
    top = nearby & (model.prospects == np.where(
        nearby, model.prospects, -np.inf).max(axis=1, keepdims=True))
    closest = np.where(top, dists, np.inf).min(axis=1, keepdims=True)
    bests = np.argmax(top & (dists == closest), axis=1)
    movers = np.flatnonzero(nearby.any(axis=1))
    for i, own in zip(movers.tolist(), world.cells_of(locs[movers]).tolist()):
        d, best = vacant[i], bests[i]
        if best == own:
            continue
        target = world.centroids[best]
        step = speed_kmh * dt_hours
        gap = float(dists[i, best])
        if gap <= step:
            d.location = (float(target[0]), float(target[1]))
        else:
            frac = step / gap
            d.location = (d.location[0] + frac * (target[0] - d.location[0]),
                          d.location[1] + frac * (target[1] - d.location[1]))


class SimulationState:
    """Mutable state of one run: fleet, waiting riders, coverage, clocks."""

    def __init__(self, config: ScenarioConfig, mechanism: str):
        self.config = config
        self.mechanism = mechanism
        self.world, self.prospect_model = config.built_world
        self.params = SensingParams(exponent=config.sensing_exponent)
        self.coverage = CoverageState(n_cells=self.world.n_cells,
                                      n_intervals=config.horizon_intervals)
        ss = np.random.SeedSequence(config.seed)
        n_epochs = config.horizon_intervals * config.epochs_per_interval
        children = ss.spawn(n_epochs + 1)
        self.init_rng = np.random.default_rng(children[0])
        self.epoch_rngs = [np.random.default_rng(c) for c in children[1:]]
        self.fleet = make_fleet(config, self.world, self.init_rng)
        self.waiting: list[RiderRequest] = []
        self.busy_until: dict[str, float] = {}   # driver id -> seconds
        self.dropoff: dict[str, tuple[float, float]] = {}
        self.outcomes: list[EpochOutcome] = []
        self.total_generated = 0
        self.total_matched = 0
        self.total_abandoned = 0
        # run_scenario's list of (outcome, pending settlement, restatement)
        # for the epochs whose DS prices are still queued; None outside it.
        self.pending: list | None = None

    def step_epoch(self, interval: int, epoch: int) -> EpochOutcome:
        config = self.config
        # Clocks, RNG streams, rider ids and patience all run on the global
        # epoch index so nothing resets or collides across interval bounds.
        gep = interval * config.epochs_per_interval + epoch
        now = gep * config.epoch_seconds
        rng = self.epoch_rngs[gep]

        # 1. Complete trips whose travel time has elapsed.
        for d in self.fleet:
            if d.status is not DriverStatus.VACANT and \
                    self.busy_until[d.id] <= now + 1e-9:
                d.status = DriverStatus.VACANT
                d.location = self.dropoff.pop(d.id)
                del self.busy_until[d.id]

        # 2. Cruise vacant drivers toward demand.
        reposition_vacant([d for d in self.fleet], self.world,
                          self.prospect_model, config.epoch_seconds / 3600.0,
                          config.speed_kmh, config.reposition_radius_km)

        # 3. New demand; stale riders abandon.
        fresh = generate_demand(config, self.world, self.prospect_model,
                                gep, rng)
        for r in fresh:
            r.delta_reported = apply_reporting(
                [r.delta_true], config.overreport_fraction, rng,
                high=config.overreport_high)[0]
        self.total_generated += len(fresh)
        keep, stale = [], 0
        for r in self.waiting:
            if gep - r.epoch >= config.rider_patience_epochs:
                stale += 1
            else:
                keep.append(r)
        self.total_abandoned += stale
        self.waiting = keep + fresh

        # 4-5. Build the epoch market and settle it.
        vacant = [d for d in self.fleet if d.status is DriverStatus.VACANT]
        problem = build_candidates(vacant, self.waiting, self.world,
                                   config.rates, self.prospect_model,
                                   self.coverage, self.params,
                                   config.radius_km)
        settlement = pricing.settle_epoch(
            self.mechanism, problem, config.rates,
            floor_enabled=config.floor_enabled if self.mechanism == pricing.DS
            else False, queue=self.pending is not None)

        # 6-7. Commit coverage and mark drivers busy.
        riders_by_id = {r.id: r for r in self.waiting}
        drivers_by_id = {d.id: d for d in self.fleet}
        for e in sorted(settlement.solution.chosen, key=lambda e: e.pair):
            rider = riders_by_id[e.rider]
            commit_route(self.coverage, rider.route.cells, interval)
            driver = drivers_by_id[e.driver]
            driver.status = DriverStatus.IN_SERVICE
            travel_h = (e.tau + e.h_r) / config.speed_kmh
            self.busy_until[driver.id] = now + travel_h * 3600.0
            self.dropoff[driver.id] = rider.dest
        matched_ids = set(settlement.solution.matched_riders)
        self.waiting = [r for r in self.waiting if r.id not in matched_ids]
        self.total_matched += len(matched_ids)

        def restate(settled):
            return _truthful_priced(settled, problem, drivers_by_id,
                                    riders_by_id)

        outcome = EpochOutcome(interval=interval, epoch=epoch,
                               n_generated=len(fresh),
                               n_waiting=len(self.waiting),
                               n_matched=len(matched_ids),
                               n_abandoned=stale, settlement=settlement)
        if isinstance(settlement, pricing.PendingSettlement):
            self.pending.append((outcome, settlement, restate))
        else:
            outcome.settlement = restate(settlement)
        self.outcomes.append(outcome)
        return outcome

    def settle_pending(self) -> None:
        """Price the epochs whose DS prices are still queued, in epoch
        order, so the earliest epoch's error is the one raised."""
        for outcome, pending, restate in self.pending:
            outcome.settlement = restate(pending.settle())
        self.pending.clear()

    def cancel_pending(self) -> None:
        """Drop the queued epochs, and with them the helper's queue."""
        for _, pending, _ in self.pending:
            pending.cancel()
        self.pending.clear()


def _truthful_priced(settlement, problem, drivers_by_id, riders_by_id):
    """Restate matched valuations at true rates for utility KPIs.

    Payments, bonuses, and revenue stay exactly as settled against the
    reports; only the P_d/P_r baselines that u_d/u_r are measured from are
    corrected, so over-reporting gains and losses show up in the KPIs.
    """
    if not settlement.priced:
        return settlement
    tau_min = problem.tau_min     # the pick-up minima build_candidates used
    priced = []
    for m in settlement.priced:
        d = drivers_by_id[m.driver]
        r = riders_by_id[m.rider]
        priced.append(replace(
            m,
            P_d=m.P_d - (d.b_reported - d.b_true)
            * (m.tau - tau_min[m.driver]),
            P_r=m.P_r + (r.delta_reported - r.delta_true)
            * (m.tau - tau_min[m.rider])))
    return replace(settlement, priced=tuple(priced))


def run_scenario(config: ScenarioConfig, mechanism: str) -> KpiReport:
    """Run the full horizon and aggregate KPIs; deterministic per seed.

    A DS epoch's removal marginals may still be with the removal helper
    when the next epoch starts: nothing an epoch commits reads prices, so
    they are collected (settle_pending) before each interval's KPIs, and
    every outcome returned holds its EpochSettlement. A run that raises
    drops what is still queued.
    """
    state = SimulationState(config, mechanism)
    state.pending = []
    per_interval = []
    try:
        for t in range(config.horizon_intervals):
            state.coverage.current_interval = t
            first = len(state.outcomes)
            for i in range(config.epochs_per_interval):
                state.step_epoch(t, i)
            state.settle_pending()
            per_interval.append(
                _interval_kpis(state, t, state.outcomes[first:]))
    except BaseException:
        state.cancel_pending()
        raise
    return _aggregate(state, per_interval)


def _match_rows(outcomes):
    for o in outcomes:
        for m in o.settlement.priced:
            yield m


def _match_kpis(config: ScenarioConfig, outcomes) -> dict:
    """The KPIs taken over the priced matches of `outcomes`."""
    matches = list(_match_rows(outcomes))
    return {
        "avg_wait_min": (sum(m.tau for m in matches) / len(matches)
                         / config.speed_kmh * 60.0) if matches else 0.0,
        "avg_u_driver": (sum(m.u_d for m in matches) / len(matches)
                         if matches else 0.0),
        "avg_u_rider": (sum(m.u_r for m in matches) / len(matches)
                        if matches else 0.0),
        "high_zeta_matches": sum(1 for m in matches if m.zeta >= 0.5),
    }


def _interval_kpis(state: SimulationState, interval: int, outcomes) -> dict:
    config = state.config
    generated = sum(o.n_generated for o in outcomes)
    matched = sum(o.n_matched for o in outcomes)
    covered = float((state.coverage.counts[interval] >= 1).mean())
    return {
        "interval": interval,
        "matching_rate": matched / generated if generated else 0.0,
        "sensing_utility": float(
            (state.coverage.counts[interval].astype(float)
             ** config.sensing_exponent).mean()),
        "coverage_rate": covered,
        "revenue": sum(o.settlement.revenue for o in outcomes),
        **_match_kpis(config, outcomes),
    }


def _aggregate(state: SimulationState, per_interval) -> KpiReport:
    config = state.config
    phi = total_sensing_utility(state.params, state.coverage)
    covered = float((state.coverage.counts >= 1).mean(axis=1).mean())
    return KpiReport(
        mechanism=state.mechanism, scenario=config.demand_scenario,
        fleet_size=config.fleet_size, seed=config.seed,
        matching_rate=(state.total_matched / state.total_generated
                       if state.total_generated else 0.0),
        sensing_utility=phi,
        coverage_rate=covered,
        revenue=sum(o.settlement.revenue for o in state.outcomes),
        per_interval=per_interval,
        outcomes=state.outcomes,
        **_match_kpis(config, state.outcomes))


def kpi_rows(report: KpiReport) -> list[list]:
    """One row per interval plus one aggregate row, matching KPI_CSV_HEADER."""
    head = [report.mechanism, report.scenario, report.fleet_size, report.seed]
    rows = []
    for rec in report.per_interval:
        rows.append(head + [rec["interval"],
                            _fmt(rec["matching_rate"]), _fmt(rec["avg_wait_min"]),
                            _fmt(rec["sensing_utility"]), _fmt(rec["coverage_rate"]),
                            _fmt(rec["revenue"]), _fmt(rec["avg_u_driver"]),
                            _fmt(rec["avg_u_rider"]), rec["high_zeta_matches"]])
    rows.append(head + ["all", _fmt(report.matching_rate),
                        _fmt(report.avg_wait_min), _fmt(report.sensing_utility),
                        _fmt(report.coverage_rate), _fmt(report.revenue),
                        _fmt(report.avg_u_driver), _fmt(report.avg_u_rider),
                        report.high_zeta_matches])
    return rows


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def event_log_lines(report: KpiReport) -> list[str]:
    lines = []
    for o in report.outcomes:
        lines.append(json.dumps({
            "interval": o.interval, "epoch": o.epoch,
            "generated": o.n_generated, "waiting": o.n_waiting,
            "matched": o.n_matched, "abandoned": o.n_abandoned,
            "revenue": round(o.settlement.revenue, 9),
            "matches": [{"d": m.driver, "r": m.rider,
                         "tau": round(m.tau, 9), "q_d": round(m.q_d, 9),
                         "q_r": round(m.q_r, 9)}
                        for m in o.settlement.priced],
        }, sort_keys=True))
    return lines
