"""Demand generation, fleet dynamics, and full scenario runs."""

import math

import numpy as np
import pytest

from senseauction.errors import ConfigurationError
from senseauction.pricing import DS, VCG
from senseauction.simengine import (ScenarioConfig, default_world,
                                    apply_reporting, generate_demand,
                                    kpi_rows, make_fleet, reposition_vacant,
                                    run_scenario)
from senseauction.gridworld import load_world


def small_config(**overrides):
    base = dict(world=default_world(4, 4), fleet_size=6,
                horizon_intervals=2, epochs_per_interval=4,
                requests_per_hour=36.0, seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(overreport_fraction=1.5)
    with pytest.raises(ConfigurationError):
        small_config(demand_scenario=9)
    with pytest.raises(ConfigurationError):
        small_config(fleet_size=-1)


def test_config_bounds_the_per_epoch_demand_mean():
    """The per-epoch Poisson mean may be as large as numpy draws, and no
    larger: numpy raises above 2**63 - 1 less 10 sqrt of it."""
    top = 2 ** 63 - 1
    limit = top - 10 * math.sqrt(top)
    rng = np.random.default_rng(0)
    rng.poisson(limit)
    with pytest.raises(ValueError):
        rng.poisson(np.nextafter(limit, math.inf))
    small_config(requests_per_hour=limit, epochs_per_interval=1)
    small_config(requests_per_hour=9.3e18, epochs_per_interval=2)
    for rate, epochs in ((np.nextafter(limit, math.inf), 1), (9.3e18, 1),
                         (1e300, 4)):
        with pytest.raises(ConfigurationError):
            small_config(requests_per_hour=rate, epochs_per_interval=epochs)


def test_config_json_round_trip():
    cfg = small_config(demand_scenario=2, seed=7)
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again.seed == 7
    assert again.demand_scenario == 2
    with pytest.raises(ConfigurationError):
        ScenarioConfig.from_json('{"bogus_field": 1}')


def test_demand_rate_close_to_configured():
    cfg = small_config(requests_per_hour=144.0, epochs_per_interval=18)
    world, model = load_world(cfg.world)
    totals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = sum(len(generate_demand(cfg, world, model, ep, rng))
                for ep in range(18))
        totals.append(n)
    # One interval of 18 epochs spans an hour at 200 s per epoch.
    assert np.mean(totals) == pytest.approx(144.0, rel=0.10)


def test_demand_remote_scenario_shifts_destinations():
    world, model = load_world(default_world(8, 8))
    cut = np.quantile(model.prospects, 0.25)
    shares = {}
    for scenario in (1, 3):
        cfg = small_config(world=default_world(8, 8),
                           demand_scenario=scenario,
                           requests_per_hour=600.0,
                           epochs_per_interval=18)
        rng = np.random.default_rng(1)
        riders = []
        for ep in range(18):
            riders.extend(generate_demand(cfg, world, model, ep, rng))
        remote = sum(model.prospects[world.cell_of(r.dest)] <= cut + 1e-12
                     for r in riders)
        shares[scenario] = remote / len(riders)
    assert shares[3] > shares[1]


def test_demand_rider_ids_unique_across_epochs():
    cfg = small_config()
    world, model = load_world(cfg.world)
    rng = np.random.default_rng(0)
    ids = []
    for ep in range(8):
        ids.extend(r.id for r in generate_demand(cfg, world, model, ep, rng))
    assert len(ids) == len(set(ids))


def test_apply_reporting_fraction_extremes():
    world, model = load_world(default_world(4, 4))
    cfg = small_config()
    rng = np.random.default_rng(5)
    riders = generate_demand(cfg, world, model, 0, rng)
    riders += generate_demand(cfg, world, model, 1, rng)
    truths = [r.delta_true for r in riders]
    honest = apply_reporting(truths, 0.0, np.random.default_rng(9))
    assert honest == truths
    inflated = apply_reporting(truths, 1.0, np.random.default_rng(9))
    assert all(b > a for a, b in zip(truths, inflated))


def test_apply_reporting_fraction_count():
    truths = [1.5] * 1000
    reported = apply_reporting(truths, 0.4, np.random.default_rng(2))
    n_changed = sum(b != a for a, b in zip(truths, reported))
    assert 350 <= n_changed <= 450


def test_apply_reporting_nested_fractions_share_draws():
    # Every participant consumes its randomness whether or not it inflates,
    # so the set of inflated reports grows monotonically with the fraction.
    truths = [1.0] * 200
    rng_lo = np.random.default_rng(4)
    rng_hi = np.random.default_rng(4)
    lo = apply_reporting(truths, 0.2, rng_lo)
    hi = apply_reporting(truths, 0.6, rng_hi)
    lo_set = {i for i, (a, b) in enumerate(zip(truths, lo)) if b != a}
    hi_set = {i for i, (a, b) in enumerate(zip(truths, hi)) if b != a}
    assert lo_set <= hi_set


def test_make_fleet_sizes_and_determinism():
    cfg = small_config(fleet_size=9, seed=3)
    world, _ = load_world(cfg.world)
    rng = np.random.default_rng(3)
    fleet = make_fleet(cfg, world, rng)
    assert len(fleet) == 9
    assert len({d.id for d in fleet}) == 9
    for d in fleet:
        assert world.contains(d.location)
    again = make_fleet(cfg, world, np.random.default_rng(3))
    assert [d.location for d in again] == [d.location for d in fleet]


def test_reposition_moves_toward_better_prospects():
    world, model = load_world(default_world(4, 4))
    # Place a vacant driver in the worst-prospect cell; it should not end
    # up somewhere with a lower prospect, and it must respect its speed.
    worst = int(np.argmin(model.prospects))
    row, col = divmod(worst, world.cols)
    loc = (col + 0.5, row + 0.5)
    from senseauction.market import DriverState
    d = DriverState(id="d", location=loc, b_true=1.0, b_reported=1.0)
    before = model.prospects[world.cell_of(d.location)]
    reposition_vacant([d], world, model, dt_hours=1.0, speed_kmh=35.0)
    after = model.prospects[world.cell_of(d.location)]
    assert after >= before


def test_reposition_stays_put_when_already_best():
    world, model = load_world(default_world(4, 4))
    best = int(np.argmax(model.prospects))
    row, col = divmod(best, world.cols)
    loc = (col + 0.5, row + 0.5)
    from senseauction.market import DriverState
    d = DriverState(id="d", location=loc, b_true=1.0, b_reported=1.0)
    reposition_vacant([d], world, model, dt_hours=1.0, speed_kmh=35.0)
    assert d.location == loc


def test_reposition_stays_put_with_no_cell_in_radius():
    world, model = load_world(default_world(4, 4))
    from senseauction.market import DriverState
    d = DriverState(id="d", location=(1.0, 1.0), b_true=1.0, b_reported=1.0)
    reposition_vacant([d], world, model, dt_hours=1.0, speed_kmh=35.0,
                      radius_km=0.1)
    assert d.location == (1.0, 1.0)


def test_run_scenario_empty_fleet_yields_zero_kpis():
    report = run_scenario(small_config(fleet_size=0), DS)
    assert report.matching_rate == 0.0
    assert report.revenue == 0.0
    assert report.coverage_rate == 0.0
    assert report.high_zeta_matches == 0


def test_run_scenario_deterministic_per_seed():
    cfg = small_config(seed=42)
    a = run_scenario(cfg, VCG)
    b = run_scenario(cfg, VCG)
    assert a.matching_rate == b.matching_rate
    assert a.revenue == b.revenue
    assert a.sensing_utility == b.sensing_utility
    assert [o.n_matched for o in a.outcomes] == [o.n_matched for o in b.outcomes]


def test_run_scenario_conserves_riders():
    cfg = small_config(seed=1, fleet_size=10)
    report = run_scenario(cfg, DS)
    generated = sum(o.n_generated for o in report.outcomes)
    matched = sum(o.n_matched for o in report.outcomes)
    abandoned = sum(o.n_abandoned for o in report.outcomes)
    waiting_end = report.outcomes[-1].n_waiting
    assert generated == matched + abandoned + waiting_end
    assert 0.0 <= report.matching_rate <= 1.0
    assert 0.0 <= report.coverage_rate <= 1.0


def test_kpi_rows_shape():
    cfg = small_config(seed=2)
    report = run_scenario(cfg, VCG)
    rows = kpi_rows(report)
    assert len(rows) == cfg.horizon_intervals + 1
    assert rows[-1][4] == "all"


def test_single_pair_matches_under_both_mechanisms():
    cfg = small_config(fleet_size=1, requests_per_hour=9.0, seed=6)
    for mech in (VCG, DS):
        report = run_scenario(cfg, mech)
        matched = sum(o.n_matched for o in report.outcomes)
        generated = sum(o.n_generated for o in report.outcomes)
        if generated:
            assert matched >= 0   # no crash; utilities finite
        assert np.isfinite(report.avg_u_driver)
        assert np.isfinite(report.avg_u_rider)
