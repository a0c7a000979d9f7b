"""Command-line interface: exit codes, outputs, and environment overrides."""

import csv
import json

import numpy as np
import pytest

from senseauction import cli
from senseauction.cli import EXIT_IO, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, main
from senseauction.simengine import ScenarioConfig, default_world


@pytest.fixture()
def config_path(tmp_path):
    cfg = ScenarioConfig(world=default_world(4, 4), fleet_size=5,
                         horizon_intervals=2, epochs_per_interval=3,
                         requests_per_hour=36.0, seed=0)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_missing_config_is_usage_error(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("fields", [
    {"alpha": 3.0},                  # rates: beta > alpha fails
    {"speed_kmh": 0},                # travel time divides by speed
    {"horizon_intervals": 0},
    {"seed": -1},
    {"fleet_size": 2.5},
    {"sensing_exponent": 1.5},
    {"world": {"rows": 2, "cols": 2, "densities": [1, 1, 1]}},
    {"floor_enabled": "off"},        # a non-empty string is truthy
    {"overreport_fraction": None},   # only remote_frac may be null
])
def test_invalid_config_field_is_usage_error(tmp_path, capsys, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fields))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_bad_seed_override_is_usage_error(config_path, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config_path), "--seed", "-3",
                 "--out", out]) == EXIT_USAGE
    monkeypatch.setenv("SENSEAUCTION_SEED", "seven")
    assert main(["run", "--config", str(config_path), "--out", out]) == EXIT_USAGE


def test_compare_bad_list_is_usage_error(config_path, tmp_path):
    rc = main(["compare", "--config", str(config_path), "--seeds", "0,x",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_run_writes_kpis(config_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_path), "--mechanism", "ds",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out / "kpi.csv")
    # Header, one row per interval, one aggregate row.
    assert len(rows) == 1 + 2 + 1
    assert rows[0][0] == "mechanism"
    assert rows[-1][4] == "all"
    events = (out / "events.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line) for line in events)


def test_run_is_reproducible_byte_for_byte(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(config_path),
                     "--mechanism", "vcg", "--out", str(out)]) == EXIT_OK
    assert (out_a / "kpi.csv").read_bytes() == (out_b / "kpi.csv").read_bytes()


def test_run_seed_flag_changes_output(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_path), "--seed", "1",
          "--out", str(out_a)])
    main(["run", "--config", str(config_path), "--seed", "2",
          "--out", str(out_b)])
    assert (out_a / "kpi.csv").read_bytes() != (out_b / "kpi.csv").read_bytes()


def test_env_seed_overrides_flag(config_path, tmp_path, monkeypatch):
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("SENSEAUCTION_SEED", "7")
    main(["run", "--config", str(config_path), "--seed", "2",
          "--out", str(out_env)])
    monkeypatch.delenv("SENSEAUCTION_SEED")
    main(["run", "--config", str(config_path), "--seed", "7",
          "--out", str(out_flag)])
    assert (out_env / "kpi.csv").read_bytes() == \
        (out_flag / "kpi.csv").read_bytes()


def test_compare_row_counts(config_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(config_path), "--seeds", "0,1",
               "--fleet", "4", "--scenario", "1", "--out", str(out),
               "--overreport", "0,0.5"])
    assert rc == EXIT_OK
    rows = read_csv(out / "compare.csv")
    # 2 mechanisms x 1 scenario x 1 fleet x 2 seeds, plus header.
    assert len(rows) == 1 + 4
    over = read_csv(out / "overreport.csv")
    # 2 fractions x 1 scenario x 1 fleet x 2 seeds, plus header.
    assert len(over) == 1 + 4
    assert over[0][0] == "overreport_fraction"


def test_compare_empty_seed_list_is_usage_error(config_path, tmp_path):
    rc = main(["compare", "--config", str(config_path), "--seeds", ",",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replace the process pool with one that records its max_workers and
    maps in this process, so no worker process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_compare_caps_the_pool_at_the_cell_count(config_path, tmp_path,
                                                 pool_sizes):
    outs = {}
    for jobs in ("1", "500"):
        outs[jobs] = tmp_path / f"out{jobs}"
        rc = main(["compare", "--config", str(config_path), "--seeds", "0",
                   "--overreport", "0,0.5", "--jobs", jobs,
                   "--out", str(outs[jobs])])
        assert rc == EXIT_OK
    # 2 mechanisms, then 2 over-reporting fractions; --jobs 1 starts none.
    assert pool_sizes == [2, 2]
    for name in ("compare.csv", "overreport.csv"):
        assert ((outs["500"] / name).read_bytes()
                == (outs["1"] / name).read_bytes())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compare_rejects_jobs_below_one(config_path, tmp_path, capsys,
                                        pool_sizes, jobs):
    rc = main(["compare", "--config", str(config_path), "--jobs", jobs,
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert pool_sizes == []
    assert not (tmp_path / "out").exists()


def test_check_rejects_bad_arguments(tmp_path):
    assert main(["check", "--trials", "0",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert main(["check", "--trials", "5", "--max-drivers", "9",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert main(["check", "--floor", "off",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [("--max-drivers", "0"),
                                         ("--max-riders", "-2"),
                                         ("--seed", "-1")])
def test_check_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    rc = main(["check", "--trials", "5", flag, value,
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_check_small_suite_passes(tmp_path, capsys):
    rc = main(["check", "--trials", "15", "--max-drivers", "4",
               "--max-riders", "4", "--seed", "0",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "pass exactness" in out


def test_check_reports_violation_with_replay(tmp_path, monkeypatch):
    # Negative control: break the sensing solver's welfare floor and make
    # sure the suite catches it, exits 1, and writes a replay document.
    # Without the floor the sensing program is one LSA on max(zeta, 0).
    from senseauction import properties
    from senseauction.assignment import (MatchingSolution, _canonical_sum,
                                         _Instance, _lsa_pick)

    def floorless(problem):
        inst = _Instance(problem.edges)
        _, chosen = _lsa_pick(np.maximum(inst.z_raw, 0.0), inst.by_pair)
        return MatchingSolution(
            chosen=chosen,
            objective_value=_canonical_sum(chosen, "zeta"),
            welfare_total=_canonical_sum(chosen, "sigma"))

    monkeypatch.setattr(properties, "solve_sensing_max", floorless)
    rc = main(["check", "--trials", "40", "--max-drivers", "5",
               "--max-riders", "5", "--seed", "0",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_PROPERTY
    replay = tmp_path / "out" / "failing_instance.json"
    assert replay.exists()
    doc = json.loads(replay.read_text())
    assert doc
