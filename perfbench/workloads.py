"""The three benchmark workloads.

Each workload is built from the workload seed, exposes one pass of closed-loop
ops, and checks every op's output outside the timed section.

- sim-default: run_scenario cells (vcg/ds x fleet 20/60, scenario 3) at the
  default 4x18-epoch horizon; per-epoch latency from a thin timer around
  SimulationState.step_epoch; output checked against KPI digests recorded at
  the seed commit.
- markets-large: saved stress-scale epoch markets, settled under both
  mechanisms with settle_epoch; checked against exact references and the
  seed commit's priced-match digests.
- markets-small: saved epoch markets of at most 8x8 from small-fleet
  run_scenario runs, settled under both mechanisms; checked against exact
  references, prices derived from reference removal marginals, and the seed
  commit's priced-match digests.

Every op settles a fresh MatchingProblem, built from the saved document
before its timer starts, so nothing one settle leaves on a problem object
can speed up the next.
"""

from __future__ import annotations

import gzip
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from senseauction import market, pricing, simengine
from senseauction.assignment import MatchingProblem, problem_from_json

from checks import check_settlement, kpi_digest
from harness import Op

DATA = Path(__file__).resolve().parent / "data"
MECHANISMS = (pricing.VCG, pricing.DS)
RATES = market.Rates(alpha=1.5, beta=2.75)   # ScenarioConfig defaults

SIM_FLEETS = (20, 60)
SIM_SCENARIO = 3
# Fixed so every run does the same work: drawing even one of four sim seeds
# from the workload seed moved epochs_per_s by about 5% between runs.
SIM_SEEDS = (0, 1, 2)
SMALL_FILE = "markets_small.json.gz"


def settle(mechanism: str, problem: MatchingProblem):
    # Looked up on the module at call time so the traced run sees the hook.
    return pricing.settle_epoch(mechanism, problem, RATES,
                                floor_enabled=mechanism == pricing.DS)


@dataclass
class Market:
    """A saved epoch market and what its settles are checked against."""
    name: str
    doc: dict               # problem_to_json document
    reference: dict         # mechanism -> exact objective
    digests: dict           # mechanism -> seed-commit priced digest or None
    marginals: dict | None  # mechanism -> {participant: objective without it}


def _market(entry: dict, doc: dict) -> Market:
    return Market(entry["name"], doc, entry["reference"],
                  {m: entry["seed_commit"][m]["digest"] for m in MECHANISMS},
                  entry.get("marginals"))


def market_ops(markets: list[Market], rng: random.Random) -> list[Op]:
    """One op per (market, mechanism), in a seeded order."""
    ops = []
    for mk in markets:
        problem = problem_from_json(mk.doc)     # read by the checks only
        for mech in MECHANISMS:
            ops.append(Op(
                label=f"{mk.name}/{mech}",
                make=lambda doc=mk.doc: problem_from_json(doc),
                run=lambda fresh, m=mech: settle(m, fresh),
                check=lambda st, p=problem, m=mech, mk=mk: check_settlement(
                    p, st, m, mk.reference[m], mk.digests[m],
                    mk.marginals[m] if mk.marginals else None)))
    rng.shuffle(ops)
    return ops


class SimDefault:
    name = "sim-default"
    budget_s = 30.0     # per run_scenario cell; seed-commit cells take 0.5-3 s
    rounds = 1

    def __init__(self, seed: int):
        doc = json.loads((DATA / "sim_digests.json").read_text())
        self.digests = doc["digests"]
        self.cells = [(s, m, f) for s in SIM_SEEDS for m in MECHANISMS
                      for f in SIM_FLEETS]
        random.Random(seed).shuffle(self.cells)
        self.latencies: list[float] = []
        cls = simengine.SimulationState
        self._step = cls.step_epoch
        latencies, step = self.latencies, self._step

        def timed_step(state, interval, epoch):
            start = time.perf_counter()
            outcome = step(state, interval, epoch)
            latencies.append(time.perf_counter() - start)
            return outcome

        cls.step_epoch = timed_step
        # Warm-up: one interval of a small cell, through every layer. Its sim
        # seed is fixed so that set-up does the same work on every run.
        simengine.run_scenario(simengine.ScenarioConfig(
            fleet_size=20, demand_scenario=SIM_SCENARIO, horizon_intervals=1,
            seed=SIM_SEEDS[0]), pricing.DS)

    def close(self) -> None:
        simengine.SimulationState.step_epoch = self._step

    def ops(self) -> list[Op]:
        ops = []
        for seed, mech, fleet in self.cells:
            key = cell_key(mech, fleet, seed)
            config = simengine.ScenarioConfig(
                fleet_size=fleet, demand_scenario=SIM_SCENARIO, seed=seed)
            ops.append(Op(
                label=key,
                run=lambda c=config, m=mech: simengine.run_scenario(c, m),
                check=lambda rep, k=key: (
                    [] if kpi_digest(rep) == self.digests.get(k) else ["digest"]),
                epochs=lambda rep: len(rep.outcomes),
                latencies=self.latencies))
        return ops


def cell_key(mechanism: str, fleet: int, seed: int) -> str:
    return f"{mechanism}-f{fleet}-s{seed}"


def load_markets_large():
    """(manifest, markets) for the saved stress markets."""
    manifest = json.loads((DATA / "markets_large.json").read_text())
    markets = []
    for entry in manifest["markets"]:
        with gzip.open(DATA / "markets" / entry["file"], "rt") as fh:
            markets.append(_market(entry, json.load(fh)))
    return manifest, markets


def load_markets_small():
    """(manifest, markets) for the saved small markets."""
    with gzip.open(DATA / SMALL_FILE, "rt") as fh:
        manifest = json.load(fh)
    return manifest, [_market(e, e["problem"]) for e in manifest["markets"]]


class MarketsLarge:
    name = "markets-large"
    # The failed settles spend about half of a pass at their budget, so one
    # pass fits in a run; settles that finish are timed in four rounds spread
    # over the pass and their median kept, so one slow moment of the host
    # cannot set epoch_ms_p50. More rounds would push a run on a slow host
    # past a minute.
    rounds = 4

    def __init__(self, seed: int):
        manifest, self.markets = load_markets_large()
        self.budget_s = manifest["budget_s"]
        self.rng = random.Random(seed)
        _warm_up(load_markets_small()[1][0])

    def close(self) -> None:
        pass

    def ops(self) -> list[Op]:
        return market_ops(self.markets, self.rng)


class MarketsSmall:
    name = "markets-small"
    # Each settle's time is the median of three rounds, so a millisecond the
    # host takes away from one settle does not land in epoch_ms_tail.
    rounds = 3

    def __init__(self, seed: int):
        manifest, self.markets = load_markets_small()
        self.budget_s = manifest["budget_s"]
        self.rng = random.Random(seed)
        _warm_up(self.markets[0])

    def close(self) -> None:
        pass

    def ops(self) -> list[Op]:
        return market_ops(self.markets, self.rng)


def _warm_up(mk: Market) -> None:
    for mech in MECHANISMS:
        settle(mech, problem_from_json(mk.doc))


WORKLOADS = {w.name: w for w in (SimDefault, MarketsLarge, MarketsSmall)}
