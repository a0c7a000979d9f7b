"""The simulator's array layers against the per-point loops they replaced.

Each ref_* function below is the earlier loop implementation, kept here
only as the reference: demand draws, repositioning, routing, the prospect
field, sensing gains, candidate construction, the settle index and the
truthful restatement must return bit-identical floats, in the same order,
and consume the same random stream.
"""

import dataclasses
import gzip
import itertools
import json
import math
import pickle
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from senseauction import assignment as asg
from senseauction import market, pricing, properties, simengine
from senseauction import sensing as sensing_mod
from senseauction.assignment import (CandidateEdge, MatchingProblem,
                                     build_candidates)
from senseauction.errors import GeometryError
from senseauction.gridworld import (CellRoute, _EPS, build_grid, load_world,
                                    opportunity_cost, route)
from senseauction.market import DriverState, DriverStatus, Rates, RiderRequest
from senseauction.sensing import CoverageState, SensingParams
from senseauction.simengine import (ScenarioConfig, SimulationState,
                                    _truthful_priced, default_world,
                                    generate_demand, reposition_vacant)

RATES = Rates(alpha=1.5, beta=2.75)
_TOL = 1e-9
SMALL_MARKETS = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "markets_small.json.gz")


# --- reference implementations ----------------------------------------------

def ref_cell_of(world, point):
    if not world.contains(point):
        raise GeometryError(f"point {point} outside grid extent {world.extent}")
    col = min(world.cols - 1, max(0, int(math.floor(point[0] / world.cell_size))))
    row = min(world.rows - 1, max(0, int(math.floor(point[1] / world.cell_size))))
    return row * world.cols + col


def ref_axis_indices(v, n, cell_size):
    u = v / cell_size
    k = round(u)
    if abs(u - k) < _EPS and 0 < k < n:
        return [k - 1, k]
    return [min(n - 1, max(0, int(math.floor(u))))]


def ref_crossing_param(v0, v1, line):
    if abs(v1 - v0) < _EPS:
        return None
    t = (line - v0) / (v1 - v0)
    return t if _EPS < t < 1.0 - _EPS else None


def ref_cells_touching(world, point):
    if not world.contains(point):
        raise GeometryError(f"point {point} outside grid extent {world.extent}")
    cols = ref_axis_indices(point[0], world.cols, world.cell_size)
    rows = ref_axis_indices(point[1], world.rows, world.cell_size)
    return sorted(r * world.cols + c for r in rows for c in cols)


def ref_max_centroid_dist(world):
    if world.n_cells == 1:
        return world.cell_size
    c = world.centroids
    diffs = c[:, None, :] - c[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def ref_generate_demand(config, world, model, epoch, rng):
    mean = config.requests_per_hour / config.epochs_per_interval
    count = int(rng.poisson(mean))
    remote_frac = config.effective_remote_frac
    low_cells = np.flatnonzero(
        model.prospects <= np.quantile(model.prospects, 0.25))
    riders = []
    for k in range(count):
        o_cell = int(rng.choice(world.n_cells, p=world.densities))
        if rng.random() < remote_frac:
            d_cell = int(rng.choice(low_cells))
        else:
            d_cell = int(rng.choice(world.n_cells, p=world.densities))
        row, col = divmod(o_cell, world.cols)
        cs = world.cell_size
        origin = (float((col + rng.random()) * cs), float((row + rng.random()) * cs))
        row, col = divmod(d_cell, world.cols)
        dest = (float((col + rng.random()) * cs), float((row + rng.random()) * cs))
        delta_true = float(rng.uniform(config.bid_low, config.bid_high))
        riders.append(RiderRequest(
            id=f"r{epoch}_{k}", origin=origin, dest=dest,
            route=ref_route(world, origin, dest),
            delta_true=delta_true, delta_reported=delta_true, epoch=epoch))
    return riders


def ref_reposition_vacant(drivers, world, model, dt_hours, speed_kmh,
                          radius_km=3.0):
    for d in drivers:
        if d.status is not DriverStatus.VACANT:
            continue
        dists = np.linalg.norm(world.centroids - np.asarray(d.location), axis=1)
        nearby = np.flatnonzero(dists <= radius_km)
        if nearby.size == 0:
            continue
        best = min(nearby, key=lambda g: (-model.prospects[g], dists[g], g))
        if best == ref_cell_of(world, d.location):
            continue
        target = world.centroids[best]
        step = speed_kmh * dt_hours
        gap = float(dists[best])
        if gap <= step:
            d.location = (float(target[0]), float(target[1]))
        else:
            frac = step / gap
            d.location = (d.location[0] + frac * (target[0] - d.location[0]),
                          d.location[1] + frac * (target[1] - d.location[1]))


def ref_route(world, origin, dest):
    for p in (origin, dest):
        if not world.contains(p):
            raise GeometryError(f"point {p} outside grid extent {world.extent}")
    x0, y0 = origin
    x1, y1 = dest
    h = math.hypot(x1 - x0, y1 - y0)
    if h < _EPS:
        return CellRoute(cells=(ref_cell_of(world, origin),), length=0.0)
    ts = {0.0, 1.0}
    cs = world.cell_size
    for k in range(1, world.cols):
        t = ref_crossing_param(x0, x1, k * cs)
        if t is not None:
            ts.add(t)
    for k in range(1, world.rows):
        t = ref_crossing_param(y0, y1, k * cs)
        if t is not None:
            ts.add(t)
    ts = sorted(ts)
    at = lambda t: (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    ordered, seen = [], set()

    def _add(cells):
        for c in cells:
            if c not in seen:
                seen.add(c)
                ordered.append(c)

    for i in range(len(ts) - 1):
        mid = 0.5 * (ts[i] + ts[i + 1])
        _add(ref_cells_touching(world, at(mid)))
        if i + 1 < len(ts) - 1:
            _add(ref_cells_touching(world, at(ts[i + 1])))
    return CellRoute(cells=tuple(ordered), length=h)


def ref_build_candidates(drivers, riders, world, rates, prospect_model,
                         coverage, sensing_params, radius):
    taus = {}
    for d in drivers:
        for r in riders:
            t = math.dist(d.location, r.origin)
            if t <= radius + _TOL:
                taus[(d.id, r.id)] = t
    tau_min_d, tau_min_r = {}, {}
    for (did, rid), t in taus.items():
        tau_min_d[did] = min(tau_min_d.get(did, math.inf), t)
        tau_min_r[rid] = min(tau_min_r.get(rid, math.inf), t)
    rider_info = {}
    for r in riders:
        if r.id not in tau_min_r:
            continue
        dest_cell = ref_cell_of(world, r.dest)
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
    return edges


def ref_order_prospects(world):
    prospects = []
    for g in range(world.n_cells):
        d = np.linalg.norm(world.centroids - world.centroids[g], axis=1)
        w = 1.0 - d / world.max_centroid_dist
        prospects.append(float(np.dot(w, world.densities)))
    return prospects


def ref_marginal_gain(params, state, route_cells):
    counts = state.counts[state.current_interval]
    lam = params.exponent
    gain = 0.0
    for g in route_cells:
        n = counts[g]          # a numpy scalar
        gain += (n + 1.0) ** lam - float(n) ** lam
    return gain


def ref_truthful_priced(settlement, problem, drivers_by_id, riders_by_id):
    if not settlement.priced:
        return settlement
    tau_min_d, tau_min_r = {}, {}
    for e in problem.edges:
        tau_min_d[e.driver] = min(tau_min_d.get(e.driver, math.inf), e.tau)
        tau_min_r[e.rider] = min(tau_min_r.get(e.rider, math.inf), e.tau)
    priced = []
    for m in settlement.priced:
        d = drivers_by_id[m.driver]
        r = riders_by_id[m.rider]
        priced.append(dataclasses.replace(
            m,
            P_d=m.P_d - (d.b_reported - d.b_true)
            * (m.tau - tau_min_d[m.driver]),
            P_r=m.P_r + (r.delta_reported - r.delta_true)
            * (m.tau - tau_min_r[m.rider])))
    return dataclasses.replace(settlement, priced=tuple(priced))


# --- helpers ----------------------------------------------------------------

ZERO_DENSITY_WORLD = {"rows": 4, "cols": 4,
                      "densities": [0.0, 1.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0,
                                    0.5, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0]}


def random_point(world, rng):
    ex, ey = world.extent
    return float(rng.uniform(0, ex)), float(rng.uniform(0, ey))


def same_floats(a, b):
    """Bit-equal float sequences: equal values and equal signs of zero."""
    return len(a) == len(b) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a, b))


# --- build_grid ---------------------------------------------------------------

@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 3), (7, 4)])
@pytest.mark.parametrize("size", [1.0, 0.3, 0.7, 2.5])
def test_max_centroid_dist_equals_pairwise_maximum(rows, cols, size):
    world = build_grid(rows, cols, size, [1.0] * (rows * cols))
    assert world.max_centroid_dist == ref_max_centroid_dist(world)


def test_cells_of_matches_cell_of_rule():
    world = build_grid(5, 7, 0.3, [1.0] * 35)
    rng = np.random.default_rng(4)
    ex, ey = world.extent
    grid_x = [k * 0.3 for k in range(8)] + [-_EPS / 2, ex + _EPS / 2]
    grid_y = [k * 0.3 for k in range(6)] + [-_EPS / 2, ey + _EPS / 2]
    points = [random_point(world, rng) for _ in range(2000)]
    points += list(itertools.product(grid_x, grid_y))
    got = world.cells_of(points).tolist()
    assert got == [ref_cell_of(world, p) for p in points]
    assert [world.cell_of(p) for p in points] == got
    for bad in [(-1e-6, 0.5), (0.5, ey + 1e-6), (math.nan, 0.5)]:
        with pytest.raises(GeometryError):
            world.cells_of(points[:3] + [bad])


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (8, 8), (40, 40)])
def test_prospects_equal_the_per_cell_loop(rows, cols):
    world, model = load_world(default_world(rows, cols))
    assert same_floats(model.prospects.tolist(), ref_order_prospects(world))


def test_centroid_dists_equal_norm():
    world = build_grid(7, 5, 0.3, [1.0] * 35)
    rng = np.random.default_rng(8)
    points = np.array([random_point(world, rng) for _ in range(300)]
                      + [tuple(c) for c in world.centroids])
    want = np.linalg.norm(world.centroids - points[:, None, :], axis=2)
    assert world.centroid_dists(points).tobytes() == want.tobytes()
    assert world.centroid_dists(np.empty((0, 2))).shape == (0, 35)


def test_a_run_builds_its_world_once(monkeypatch):
    calls = []
    real = simengine.load_world

    def counted(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(simengine, "load_world", counted)
    config = ScenarioConfig(world=default_world(4, 4), fleet_size=3)
    state = SimulationState(config, pricing.VCG)
    assert len(calls) == 1
    assert (state.world, state.prospect_model) == config.built_world


# --- (a) demand draws -------------------------------------------------------

@pytest.mark.parametrize("world", [load_world(default_world())[0],
                                   load_world(ZERO_DENSITY_WORLD)[0]],
                         ids=["default-8x8", "zero-density"])
def test_demand_cdf_draws_equal_rng_choice(world):
    new, old = np.random.default_rng(11), np.random.default_rng(11)
    cdf = world.demand_cdf.tolist()
    got = [bisect_right(cdf, new.random()) for _ in range(20_000)]
    want = [int(old.choice(world.n_cells, p=world.densities))
            for _ in range(20_000)]
    assert got == want
    assert new.random() == old.random()
    assert all(world.densities[c] > 0 for c in set(got))


@pytest.mark.parametrize("doc", [default_world(), default_world(3, 5),
                                 ZERO_DENSITY_WORLD],
                         ids=["8x8", "3x5", "zero-density"])
@pytest.mark.parametrize("scenario", [1, 3])
def test_generate_demand_equals_reference(doc, scenario):
    config = ScenarioConfig(world=doc, demand_scenario=scenario,
                            requests_per_hour=300.0)
    world, model = load_world(doc)
    for epoch in range(8):
        new = np.random.default_rng([scenario, epoch])
        old = np.random.default_rng([scenario, epoch])
        got = generate_demand(config, world, model, epoch, new)
        want = ref_generate_demand(config, world, model, epoch, old)
        assert [(r.id, r.origin, r.dest, r.route, r.delta_true) for r in got] \
            == [(r.id, r.origin, r.dest, r.route, r.delta_true) for r in want]
        assert new.random() == old.random()


@pytest.mark.parametrize("rows,cols", [(8, 8), (1, 5)])
def test_low_cells_index_draws_equal_rng_choice(rows, cols):
    low_cells = load_world(default_world(rows, cols))[1].low_cells
    new, old = np.random.default_rng(12), np.random.default_rng(12)
    got = [int(low_cells[new.integers(0, len(low_cells))])
           for _ in range(20_000)]
    want = [int(old.choice(low_cells)) for _ in range(20_000)]
    assert got == want
    assert new.random() == old.random()


@pytest.mark.parametrize("rows,cols", [(8, 8), (1, 5)])   # 1x5: q hits a cell
def test_low_cells_are_the_bottom_prospect_quartile(rows, cols):
    world, model = load_world(default_world(rows, cols))
    want = np.flatnonzero(model.prospects <= np.quantile(model.prospects, 0.25))
    assert model.low_cells.tolist() == want.tolist()


# --- (b) repositioning ------------------------------------------------------

def fleet(points, statuses=None):
    statuses = statuses or [DriverStatus.VACANT] * len(points)
    return [DriverState(id=f"d{i}", location=p, b_true=1.0, b_reported=1.0,
                        status=s)
            for i, (p, s) in enumerate(zip(points, statuses))]


def assert_reposition_equal(points, world, model, radius_km, statuses=None,
                            dt_hours=200.0 / 3600.0, speed_kmh=35.0):
    got, want = fleet(points, statuses), fleet(points, statuses)
    reposition_vacant(got, world, model, dt_hours, speed_kmh, radius_km)
    ref_reposition_vacant(want, world, model, dt_hours, speed_kmh, radius_km)
    assert same_floats([c for d in got for c in d.location],
                       [c for d in want for c in d.location])
    return got


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("radius_km", [0.4, 1.0, 3.0])
def test_reposition_equals_reference_on_random_fleets(seed, radius_km):
    world, model = load_world(default_world())
    rng = np.random.default_rng(seed)
    points = [random_point(world, rng) for _ in range(200)]
    statuses = [DriverStatus.VACANT if rng.random() < 0.8
                else DriverStatus.IN_SERVICE for _ in points]
    assert_reposition_equal(points, world, model, radius_km, statuses)
    # A long epoch lets some drivers reach their target centroid.
    assert_reposition_equal(points, world, model, radius_km, statuses,
                            dt_hours=0.05)


def test_reposition_equals_reference_on_built_ties():
    # Uniform symmetric 3x3 world; cells 3 and 5 (left and right of the
    # centre) share the top prospect, so a driver on the vertical centre
    # line is equally far from both and the tie goes to the lower id.
    world, model = load_world({"rows": 3, "cols": 3, "densities": [1.0] * 9})
    prospects = model.prospects.copy()
    prospects[3] = prospects[5] = prospects.max() + 0.1
    tied = type(model)(xi=model.xi, p_star_frac=model.p_star_frac,
                       prospects=prospects, p_min=model.p_min,
                       p_max=float(prospects.max()), low_cells=model.low_cells)
    rng = np.random.default_rng(5)
    points = [(1.5, float(y)) for y in rng.uniform(0, 3, 100)]
    points += [(1.5, 1.5), (1.5, 0.0), (1.5, 3.0)]
    moved = assert_reposition_equal(points, world, tied, radius_km=3.0)
    assert all(d.location[0] < 1.5 for d in moved)   # all toward cell 3
    # Drivers with no centroid in radius stay where they are.
    corners = [(0.0, 0.0), (3.0, 3.0), (0.0, 3.0), (3.0, 0.0)]
    points = corners + [random_point(world, rng) for _ in range(196)]
    assert_reposition_equal(points, world, tied, radius_km=0.5)
    assert_reposition_equal(points, world, model, radius_km=0.0)


def test_reposition_handles_an_empty_or_busy_fleet():
    world, model = load_world(default_world())
    assert_reposition_equal([], world, model, 3.0)
    assert_reposition_equal([(1.0, 1.0)], world, model, 3.0,
                            [DriverStatus.IN_SERVICE])


def test_reposition_rejects_a_driver_outside_the_grid():
    world, model = load_world(default_world())
    with pytest.raises(GeometryError):
        reposition_vacant(fleet([(1.0, 1.0), (-0.5, 1.0)]), world, model,
                          1.0, 35.0, 3.0)


# --- (c) routes -------------------------------------------------------------

@pytest.mark.parametrize("size", [1.0, 0.3])
def test_route_equals_reference_on_random_segments(size):
    world = build_grid(8, 6, size, [1.0] * 48)
    rng = np.random.default_rng(int(size * 10))
    for _ in range(10_000):
        a, b = random_point(world, rng), random_point(world, rng)
        assert route(world, a, b) == ref_route(world, a, b)


@pytest.mark.parametrize("size", [1.0, 0.3])
def test_route_equals_reference_on_grid_lines_and_corners(size):
    world = build_grid(8, 6, size, [1.0] * 48)
    ex, ey = world.extent
    xs = [k * size for k in range(world.cols + 1)]
    ys = [k * size for k in range(world.rows + 1)]
    rng = np.random.default_rng(2)
    segments = []
    for x in xs:           # along vertical grid lines and across them
        y0, y1 = rng.uniform(0, ey, 2)
        segments += [((x, y0), (x, y1)), ((x, y0), (ex - x, y1))]
    for y in ys:           # along horizontal grid lines
        x0, x1 = rng.uniform(0, ex, 2)
        segments += [((x0, y), (x1, y)), ((x0, y), (x1, ey - y))]
    corners = list(itertools.product(xs, ys))
    segments += list(itertools.combinations(corners, 2))   # corner to corner
    for (x, y) in corners:    # through a corner, ending off the grid lines
        d = size * 0.37
        for sx, sy in itertools.product((-1, 1), repeat=2):
            a = (min(ex, max(0.0, x - sx * d)), min(ey, max(0.0, y - sy * d)))
            b = (min(ex, max(0.0, x + sx * d)), min(ey, max(0.0, y + sy * d)))
            segments.append((a, b))
    segments += [((0.0, 0.0), (0.0, 0.0)), ((ex, ey), (ex, ey)),
                 ((ex, ey), (0.0, 0.0)), ((-_EPS / 2, 0.0), (ex + _EPS / 2, ey))]
    for a, b in segments:
        assert route(world, a, b) == ref_route(world, a, b), (a, b)


# --- (d) candidate edges ----------------------------------------------------

def candidate_scene(seed, n_drivers, n_riders, radius):
    world, model = load_world(default_world())
    rng = np.random.default_rng(seed)
    coverage = CoverageState(n_cells=world.n_cells, n_intervals=1)
    coverage.counts[0] = rng.integers(0, 4, world.n_cells)
    drivers = [DriverState(id=f"d{i}", location=random_point(world, rng),
                           b_true=1.0, b_reported=float(rng.uniform(1, 2)))
               for i in range(n_drivers)]
    riders = []
    for k in range(n_riders):
        if k % 3 == 0 and drivers:
            # On the radius, and 1e-10 on either side of it and of the
            # radius + 1e-9 cut, measured from a driver.
            d = drivers[k % len(drivers)].location
            off = [0.0, 1e-10, -1e-10, _TOL, _TOL + 1e-10, _TOL - 1e-10][k % 6]
            angle = rng.uniform(0, 2 * math.pi)
            o = (d[0] + (radius + off) * math.cos(angle),
                 d[1] + (radius + off) * math.sin(angle))
            if not world.contains(o):
                o = (d[0] + radius + off, d[1]) if d[0] < 4 else \
                    (d[0] - radius - off, d[1])
        else:
            o = random_point(world, rng)
        dest = random_point(world, rng)
        delta = float(rng.uniform(1, 2))
        riders.append(RiderRequest(id=f"r{k}", origin=o, dest=dest,
                                   route=route(world, o, dest),
                                   delta_true=delta,
                                   delta_reported=delta + rng.uniform(0, 0.5)))
    return (drivers, riders, world, RATES, model, coverage,
            SensingParams(exponent=0.2), radius)


def edge_fields(e):
    return [e.tau, e.P_d, e.P_r, e.zeta, e.h_r]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_build_candidates_equals_reference(seed, radius):
    for n_drivers, n_riders in [(0, 5), (5, 0), (1, 1), (20, 12), (60, 30)]:
        args = candidate_scene(seed, n_drivers, n_riders, radius)
        got = build_candidates(*args).edges
        want = ref_build_candidates(*args)
        assert [e.pair for e in got] == [e.pair for e in want]
        assert same_floats([x for e in got for x in edge_fields(e)],
                           [x for e in want for x in edge_fields(e)])


def test_build_candidates_keeps_exact_radius_boundary():
    world, model = load_world(default_world())
    coverage = CoverageState(n_cells=world.n_cells, n_intervals=1)
    d = DriverState(id="d", location=(1.0, 1.0), b_true=1.0, b_reported=1.0)
    offsets = [0.0, 1e-10, -1e-10, _TOL - 1e-10, _TOL + 1e-10, 2 * _TOL]
    riders = [RiderRequest(id=f"r{k}", origin=(3.0 + off, 1.0), dest=(5.5, 5.5),
                           route=route(world, (3.0 + off, 1.0), (5.5, 5.5)),
                           delta_true=1.0, delta_reported=1.0)
              for k, off in enumerate(offsets)]
    args = ([d], riders, world, RATES, model, coverage,
            SensingParams(exponent=0.2), 2.0)
    got = build_candidates(*args).edges
    assert [e.rider for e in got] == ["r0", "r1", "r2", "r3"]
    assert got == ref_build_candidates(*args)


def test_candidate_edge_keeps_its_dataclass_behaviour():
    e = CandidateEdge("d1", "r2", 0.5, 1.0, 2.5, 0.3, h_r=1.2)
    same = CandidateEdge(driver="d1", rider="r2", tau=0.5, P_d=1.0, P_r=2.5,
                         zeta=0.3, h_r=1.2)
    assert e == same and hash(e) == hash(same)
    assert e != dataclasses.replace(e, tau=0.6)
    assert e.sigma == 1.5 and e.pair == ("d1", "r2")
    assert CandidateEdge("d", "r", 0.0, 1.0, 2.0, 0.0).h_r == 0.0
    assert repr(e) == ("CandidateEdge(driver='d1', rider='r2', tau=0.5, "
                       "P_d=1.0, P_r=2.5, zeta=0.3, h_r=1.2)")
    moved = dataclasses.replace(e, rider="r3", zeta=0.4)
    assert (moved.rider, moved.zeta, moved.tau) == ("r3", 0.4, 0.5)
    assert pickle.loads(pickle.dumps(e)) == e
    assert dataclasses.astuple(e) == ("d1", "r2", 0.5, 1.0, 2.5, 0.3, 1.2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.tau = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.zeta


# --- (e) per-rider sensing gains and truthful restatement --------------------

@pytest.mark.parametrize("seed", range(4))
def test_marginal_gain_equals_numpy_scalar_sum(seed):
    world = build_grid(8, 8, 1.0, [1.0] * 64)
    rng = np.random.default_rng(seed)
    coverage = CoverageState(n_cells=64, n_intervals=3)
    coverage.counts[:] = rng.integers(0, 40, (3, 64))
    coverage.current_interval = 1
    for exponent in (0.2, 0.5, 0.9):
        params = SensingParams(exponent=exponent)
        for _ in range(300):
            cells = route(world, random_point(world, rng),
                          random_point(world, rng)).cells
            assert same_floats(
                [sensing_mod.marginal_gain(params, coverage, cells)],
                [ref_marginal_gain(params, coverage, cells)])


@pytest.mark.parametrize("seed", range(6))
def test_truthful_priced_equals_per_edge_minimum_loop(seed):
    drivers, riders, world, rates, model, coverage, params, radius = \
        candidate_scene(seed, 12, 10, 2.0)
    for d in drivers:
        d.b_true = d.b_reported - 0.3 * (int(d.id[1:]) % 2)
    problem = build_candidates(drivers, riders, world, rates, model,
                               coverage, params, radius)
    drivers_by_id = {d.id: d for d in drivers}
    riders_by_id = {r.id: r for r in riders}
    for mechanism in (pricing.VCG, pricing.DS):
        settled = pricing.settle_epoch(mechanism, problem, rates)
        assert settled.priced
        got = _truthful_priced(settled, problem, drivers_by_id, riders_by_id)
        want = ref_truthful_priced(settled, problem, drivers_by_id,
                                   riders_by_id)
        assert same_floats([x for m in got.priced for x in (m.P_d, m.P_r)],
                           [x for m in want.priced for x in (m.P_d, m.P_r)])
        assert got == want


# --- (f) the columnar settle index -----------------------------------------

def ref_index(edges):
    """The settle index as it was built edge by edge: the drivers and riders
    with an edge, in id order; each edge's sigma, presence and object; each
    rider's zeta, which must be one value."""
    d_index = {d: i for i, d in enumerate(sorted({e.driver for e in edges}))}
    r_index = {r: j for j, r in enumerate(sorted({e.rider for e in edges}))}
    shape = len(d_index), len(r_index)
    s_raw = np.zeros(shape)
    has_edge = np.zeros(shape, dtype=bool)
    by_pair = np.empty(shape, dtype=object)
    for e in edges:
        ij = d_index[e.driver], r_index[e.rider]
        s_raw[ij] = e.sigma
        has_edge[ij] = True
        by_pair[ij] = e
    zr = {}
    for e in edges:
        assert zr.setdefault(e.rider, e.zeta) == e.zeta
    return d_index, r_index, s_raw, has_edge, by_pair, zr


def assert_index_equals_reference(index, edges, sensing):
    d_index, r_index, s_raw, has_edge, by_pair, zr = ref_index(edges)
    assert list(index.d_index.items()) == list(d_index.items())
    assert list(index.r_index.items()) == list(r_index.items())
    assert index.s_raw.shape == s_raw.shape
    assert index.s_raw.tobytes() == s_raw.tobytes()   # signs of zero too
    assert np.array_equal(index.has_edge, has_edge)
    assert np.array_equal(index.eid >= 0, has_edge)
    assert index.table.at(index.eid[has_edge]) == tuple(by_pair[has_edge])
    if sensing:
        assert same_floats(index.zc.tolist(), [zr[r] for r in r_index])
        assert dict(zip(index.r_index, index.zc.tolist())) == zr
        riders = list(r_index)
        assert ([riders[j] for j in index.order.tolist()]
                == sorted(zr, key=lambda r: (-zr[r], r)))


def ref_tau_min(drivers, riders, edges):
    tau_min = {p.id: math.inf for p in [*drivers, *riders]}
    for e in edges:
        tau_min[e.driver] = min(tau_min[e.driver], e.tau)
        tau_min[e.rider] = min(tau_min[e.rider], e.tau)
    return tau_min


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_columnar_index_equals_edge_built_reference(seed, radius):
    """settle_index on build_candidates' columns holds what the edge-by-edge
    index held: row and column order, s_raw, has_edge, the edge of each
    cell and each rider's zeta; and tau_min is each side's least pick-up.
    The scenes include markets with no driver, no rider and no edge."""
    scenes = [candidate_scene(seed, n_drivers, n_riders, radius)
              for n_drivers, n_riders in [(0, 5), (5, 0), (1, 1), (20, 12),
                                          (60, 30)]]
    scenes.append(candidate_scene(seed, 5, 5, radius)[:-1] + (-1.0,))
    for args in scenes:
        problem = build_candidates(*args)
        edges = ref_build_candidates(*args)
        for objective, kept in ((asg.SENSING, edges),
                                (asg.WELFARE,
                                 [e for e in edges if e.sigma >= 0.0])):
            problem.objective = objective
            assert_index_equals_reference(asg.settle_index(problem), kept,
                                          objective == asg.SENSING)
        assert problem.tau_min == ref_tau_min(args[0], args[1], edges)
        assert asg.problem_to_json(problem) == asg.problem_to_json(
            MatchingProblem(edges, problem.drivers, problem.riders,
                            problem.objective))


@pytest.fixture(scope="module")
def sim_cell_settles():
    """(mechanism, problem, rates, floor, settlement) for every epoch of one
    default cell per mechanism (scenario 3, fleet 20, seed 0). Each epoch
    is settled at once, not queued, so every settlement is priced."""
    seen = []
    settle = pricing.settle_epoch

    def record(mechanism, problem, rates, floor_enabled=True, queue=False):
        settled = settle(mechanism, problem, rates, floor_enabled)
        seen.append((mechanism, problem, rates, floor_enabled, settled))
        return settled

    pricing.settle_epoch = record
    try:
        for mechanism in (pricing.VCG, pricing.DS):
            simengine.run_scenario(ScenarioConfig(
                fleet_size=20, demand_scenario=3, seed=0), mechanism)
    finally:
        pricing.settle_epoch = settle
    assert {s[0] for s in seen} == {pricing.VCG, pricing.DS}
    return seen


def assert_same_settlement(got, want):
    """The same chosen edges in the same order, and bit-identical prices."""
    assert got.solution.chosen == want.solution.chosen
    fields = ("rho_d", "rho_r", "q_d", "q_r", "share_d", "share_r")
    assert same_floats(
        [getattr(m, f) for m in got.priced for f in fields]
        + [got.revenue, got.welfare_total, got.sensing_total],
        [getattr(m, f) for m in want.priced for f in fields]
        + [want.revenue, want.welfare_total, want.sensing_total])


def test_columnar_markets_settle_like_edge_built_ones(sim_cell_settles):
    """Each epoch market settles the same from build_candidates' columns as
    from a problem built from its edge list, and both its indexes equal the
    edge-built reference."""
    for mechanism, problem, rates, floor, settled in sim_cell_settles:
        rebuilt = MatchingProblem(list(problem.edges), problem.drivers,
                                  problem.riders)
        assert_index_equals_reference(asg._Instance(problem.table),
                                      problem.edges, True)
        assert_index_equals_reference(
            asg._welfare_index(problem),
            [e for e in problem.edges if e.sigma >= 0.0], False)
        assert_same_settlement(
            settled, pricing.settle_epoch(mechanism, rebuilt, rates, floor))


def test_json_round_trip_settles_the_same(sim_cell_settles):
    """problem_from_json(problem_to_json(p)) settles like p under both
    mechanisms."""
    for _, problem, rates, _, _ in sim_cell_settles:
        back = asg.problem_from_json(asg.problem_to_json(problem))
        assert back.drivers == problem.drivers
        assert back.riders == problem.riders
        for mechanism, floor in ((pricing.VCG, False), (pricing.DS, True)):
            assert_same_settlement(
                pricing.settle_epoch(mechanism, back, rates, floor),
                pricing.settle_epoch(mechanism, problem, rates, floor))


def test_problem_to_json_rewrites_the_saved_small_markets():
    """The saved markets-small documents, written by problem_to_json when
    they were captured, come back byte for byte."""
    with gzip.open(SMALL_MARKETS, "rt") as fh:
        entries = json.load(fh)["markets"]
    assert len(entries) > 500
    for entry in entries:
        doc = entry["problem"]
        assert (asg.problem_to_json(asg.problem_from_json(doc))
                == json.dumps(doc, indent=2))


def test_pricing_guarantees_hold_on_simulator_markets(sim_cell_settles):
    """The settlement checks of the property harness (VCG deficit, bonus
    signs and pivots, DS budget balance, shares, IR with and without the
    floor, weak budget balance with it) on every epoch market of a default
    run, outside the KPI path."""
    checked = 0
    for _, problem, rates, _, _ in sim_cell_settles:
        properties.check_market_settlement(problem, rates)
        checked += problem.table.di.size > 0
    assert checked > 100
