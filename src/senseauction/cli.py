"""Command-line front end: scenario runs, comparison sweeps, property checks.

Exit codes: 0 success, 1 property failure, 2 usage/config error, 3 IO error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import pricing
from .errors import ConfigurationError, ContractError
from .properties import PropertyViolation, run_property_suite
from .simengine import (KPI_CSV_HEADER, ScenarioConfig, event_log_lines,
                        kpi_rows, run_scenario)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigurationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senseauction",
        description="E-hailing matching/pricing simulator: welfare-maximizing "
                    "(vcg) vs sensing-externality (ds) mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write KPI CSV")
    _common_flags(run)
    run.add_argument("--mechanism", choices=["vcg", "ds"], default="ds")
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="sweep mechanisms over a grid of cells")
    _common_flags(comp)
    comp.add_argument("--seeds", default="0",
                      help="comma-separated seed list, e.g. 0,1,2")
    comp.add_argument("--fleet", default="",
                      help="comma-separated fleet sizes, e.g. 20,40,60")
    comp.add_argument("--scenario", default="",
                      help="comma-separated demand scenarios, e.g. 1,2,3")
    comp.add_argument("--overreport", default="",
                      help="comma-separated over-reporting fractions for the "
                           "misreporting sweep, e.g. 0,0.2,0.4,0.6")
    comp.add_argument("--jobs", type=int, default=1)
    comp.set_defaults(func=cmd_compare)

    check = sub.add_parser("check", help="randomized property suite")
    check.add_argument("--out", default="out", help="output directory")
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--max-drivers", type=int, default=6)
    check.add_argument("--max-riders", type=int, default=6)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=cmd_check)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="scenario config JSON")
    p.add_argument("--floor", choices=["on", "off"], default=None,
                   help="override the rider charge floor")
    p.add_argument("--out", default="out", help="output directory")


def _load_config(args) -> ScenarioConfig:
    """The scenario config with flag and environment overrides, validated."""
    if args.config is None:
        config = ScenarioConfig()
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            config = ScenarioConfig.from_json(path)
        except ConfigurationError as exc:
            raise ConfigurationError(f"invalid config {path}: {exc}") from exc
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    overrides = {}
    if args.floor is not None:
        overrides["floor_enabled"] = args.floor == "on"
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    env_seed = os.environ.get("SENSEAUCTION_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigurationError(
                f"SENSEAUCTION_SEED must be an integer, got {env_seed!r}") from exc
    # replace() re-runs the config's validation on the overridden values.
    return replace(config, **overrides)


def cmd_run(args) -> int:
    config = _load_config(args)
    report = run_scenario(config, args.mechanism)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "kpi.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(KPI_CSV_HEADER)
        writer.writerows(kpi_rows(report))
    (out / "events.jsonl").write_text(
        "\n".join(event_log_lines(report)) + "\n")
    print(f"wrote {out / 'kpi.csv'} ({report.mechanism}, seed {config.seed}, "
          f"matching rate {report.matching_rate:.3f})")
    return EXIT_OK


def _parse_list(raw: str, cast):
    try:
        return [cast(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad list {raw!r}: {exc}") from exc


def _run_cell(payload):
    config, mechanism = payload
    return kpi_rows(run_scenario(config, mechanism))[-1]   # the aggregate row


def cmd_compare(args) -> int:
    base = _load_config(args)
    seeds = _parse_list(args.seeds, int)
    fleets = _parse_list(args.fleet, int) or [base.fleet_size]
    scenarios = _parse_list(args.scenario, int) or [base.demand_scenario]
    overreport = _parse_list(args.overreport, float)
    if not seeds:
        raise ConfigurationError("empty sweep: need at least one seed")
    if args.jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {args.jobs}")

    cells = []
    for mech in (pricing.VCG, pricing.DS):
        for scen in scenarios:
            for fleet in fleets:
                for seed in seeds:
                    cells.append((replace(
                        base, demand_scenario=scen, fleet_size=fleet,
                        seed=seed, overreport_fraction=0.0), mech))
    over_cells = []
    for frac in overreport:
        for scen in scenarios:
            for fleet in fleets:
                for seed in seeds:
                    over_cells.append((replace(
                        base, demand_scenario=scen, fleet_size=fleet,
                        seed=seed, overreport_fraction=frac), pricing.DS, frac))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = _map_cells(cells, args.jobs)
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(KPI_CSV_HEADER)
        for row in rows:
            writer.writerow(row)
    print(f"wrote {out / 'compare.csv'} ({len(rows)} rows)")

    if over_cells:
        over_rows = _map_cells([(cfg, mech) for cfg, mech, _ in over_cells],
                               args.jobs)
        with open(out / "overreport.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["overreport_fraction"] + KPI_CSV_HEADER)
            for (_, _, frac), row in zip(over_cells, over_rows):
                writer.writerow([frac] + row)
        print(f"wrote {out / 'overreport.csv'} ({len(over_rows)} rows)")
    return EXIT_OK


def _map_cells(cells, jobs: int):
    # The pool starts all its workers up front, so never ask for more than
    # there are cells.
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, cells))


def cmd_check(args) -> int:
    if args.trials <= 0:
        raise ConfigurationError("trials must be positive")
    if min(args.max_drivers, args.max_riders) < 1:
        raise ConfigurationError("max-drivers and max-riders must be at least 1")
    if max(args.max_drivers, args.max_riders) > 8:
        raise ConfigurationError("exactness oracle is limited to 8x8 instances")
    if args.seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {args.seed}")
    out = Path(args.out)
    try:
        counts = run_property_suite(args.trials, args.max_drivers,
                                    args.max_riders, seed=args.seed)
    except PropertyViolation as exc:
        out.mkdir(parents=True, exist_ok=True)
        replay = out / "failing_instance.json"
        replay.write_text(json.dumps(exc.replay, indent=2))
        print(f"FAIL {exc}", file=sys.stderr)
        print(f"replay instance written to {replay}", file=sys.stderr)
        return EXIT_PROPERTY
    for name, n in counts.items():
        print(f"pass {name}: {n} checks")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
