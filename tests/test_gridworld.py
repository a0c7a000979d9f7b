"""Grid construction, routing, order prospect, and opportunity cost."""

import itertools
import math

import numpy as np
import pytest

from senseauction.errors import ConfigurationError, GeometryError
from senseauction.gridworld import (build_grid, build_prospect_model,
                                    load_world, opportunity_cost,
                                    order_prospect, route)


def test_build_grid_single_cell_normalizes():
    world = build_grid(1, 1, 1.0, [5.0])
    assert world.densities.tolist() == [1.0]
    assert world.max_centroid_dist == 1.0   # degenerate safe value


def test_build_grid_1x2_normalization_and_spacing():
    world = build_grid(1, 2, 1.0, [1.0, 3.0])
    assert world.densities.tolist() == [0.25, 0.75]
    assert world.max_centroid_dist == pytest.approx(1.0)


def test_build_grid_3x3_uniform_max_distance():
    world = build_grid(3, 3, 1.0, [1.0] * 9)
    assert np.allclose(world.densities, 1.0 / 9.0)
    # Independent oracle: enumerate every centroid pair.
    m = max(math.dist(a, b) for a, b in
            itertools.combinations(world.centroids.tolist(), 2))
    assert world.max_centroid_dist == pytest.approx(m)
    assert world.max_centroid_dist == pytest.approx(2.0 * math.sqrt(2.0))


@pytest.mark.parametrize("rows,cols,size,dens", [
    (0, 1, 1.0, []),
    (1, 1, 0.0, [1.0]),
    (1, 2, 1.0, [1.0]),            # wrong density count
    (1, 2, 1.0, [0.0, 0.0]),       # zero total mass
    (1, 2, 1.0, [1.0, -1.0]),      # negative mass
    (1, 2, 1.0, [1.0, float("nan")]),
    (1, 2, math.inf, [1.0, 1.0]),   # non-finite sizes overflow the draws
    (1, 2, math.nan, [1.0, 1.0]),
])
def test_build_grid_rejects_bad_config(rows, cols, size, dens):
    with pytest.raises(ConfigurationError):
        build_grid(rows, cols, size, dens)


def test_route_degenerate_trip():
    world = build_grid(2, 2, 1.0, [1.0] * 4)
    r = route(world, (0.3, 0.3), (0.3, 0.3))
    assert r.cells == (0,)
    assert r.length == 0.0


def test_route_horizontal_spans_three_cells():
    world = build_grid(1, 3, 1.0, [1.0] * 3)
    r = route(world, (0.1, 0.5), (2.9, 0.5))
    assert r.cells == (0, 1, 2)
    assert r.length == pytest.approx(2.8)


def test_route_diagonal_supercover_2x2():
    world = build_grid(2, 2, 1.0, [1.0] * 4)
    r = route(world, (0.0, 0.0), (2.0, 2.0))
    assert r.length == pytest.approx(2.0 * math.sqrt(2.0))
    # The segment passes through the shared corner, touching all four cells.
    assert set(r.cells) == {0, 1, 2, 3}
    assert r.cells[0] == 0 and r.cells[-1] == 3


def test_route_length_at_least_euclidean_and_cells_distinct():
    world = build_grid(4, 4, 1.0, [1.0] * 16)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = tuple(rng.uniform(0, 4, 2))
        b = tuple(rng.uniform(0, 4, 2))
        r = route(world, a, b)
        assert len(set(r.cells)) == len(r.cells)
        assert r.length == pytest.approx(math.dist(a, b))


def test_route_rejects_points_outside_extent():
    world = build_grid(2, 2, 1.0, [1.0] * 4)
    with pytest.raises(GeometryError):
        route(world, (-0.5, 0.5), (1.0, 1.0))
    with pytest.raises(GeometryError):
        route(world, (0.5, 0.5), (1.0, 2.5))


def test_order_prospect_single_cell_is_one():
    world = build_grid(1, 1, 1.0, [2.0])
    assert order_prospect(world, 0) == pytest.approx(1.0)


def test_order_prospect_1x2_hand_value():
    world = build_grid(1, 2, 1.0, [1.0, 3.0])
    # p(cell 1) = (1 - 1/1) * 0.25 + (1 - 0) * 0.75
    assert order_prospect(world, 1) == pytest.approx(0.75)


def test_order_prospect_center_beats_corner_on_uniform_3x3():
    world = build_grid(3, 3, 1.0, [1.0] * 9)
    values = [order_prospect(world, g) for g in range(9)]
    assert values[4] > values[0]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_order_prospect_rejects_bad_cell():
    world = build_grid(2, 2, 1.0, [1.0] * 4)
    with pytest.raises(ConfigurationError):
        order_prospect(world, 4)


def test_prospect_increases_with_local_mass():
    # Unnormalized weighted-sum form: more mass at the destination cell can
    # only raise its own prospect relative to the same layout without it.
    lo = build_grid(3, 3, 1.0, [1, 1, 1, 1, 1, 1, 1, 1, 1])
    hi = build_grid(3, 3, 1.0, [1, 1, 1, 1, 9, 1, 1, 1, 1])
    assert order_prospect(hi, 4) > order_prospect(lo, 4)


def test_opportunity_cost_piecewise_hand_values():
    world = build_grid(3, 3, 1.0, [1.0] * 9)
    model = build_prospect_model(world, xi=50.0, p_star_frac=0.9)
    assert opportunity_cost(model, model.p_max) == 0.0
    assert opportunity_cost(model, model.p_star) == 0.0
    assert opportunity_cost(model, model.p_star - 0.1512) == pytest.approx(7.56)


def test_opportunity_cost_monotone_and_continuous():
    world = build_grid(3, 3, 1.0, [1.0] * 9)
    model = build_prospect_model(world, xi=50.0, p_star_frac=0.9)
    ps = np.linspace(model.p_min, model.p_max, 200)
    fs = [opportunity_cost(model, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(fs, fs[1:]))
    eps = 1e-9
    assert abs(opportunity_cost(model, model.p_star - eps)
               - opportunity_cost(model, model.p_star + eps)) < 1e-6


def test_build_prospect_model_rejects_negative_xi():
    """Also a non-finite xi, and a p_star_frac that is NaN or outside [0, 1]:
    they would otherwise reach the solvers as invalid weights."""
    world = build_grid(1, 1, 1.0, [1.0])
    for xi, p_star_frac in ((-1.0, 0.9), (math.nan, 0.9), (math.inf, 0.9),
                            (50.0, math.nan), (50.0, -0.1), (50.0, 1.5)):
        with pytest.raises(ConfigurationError):
            build_prospect_model(world, xi=xi, p_star_frac=p_star_frac)


def test_load_world_from_document():
    doc = {"rows": 2, "cols": 2, "cell_size_km": 1.0,
           "densities": [1, 1, 1, 1], "xi": 50.0, "p_star_frac": 0.9}
    world, model = load_world(doc)
    assert world.n_cells == 4
    assert model.xi == 50.0
    with pytest.raises(ConfigurationError):
        load_world({"rows": 2})
