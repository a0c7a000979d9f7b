"""Settle outputs pinned bit for bit.

tests/data/settle_golden.json holds, for each input market settled under
each objective, the chosen pairs in order, the objective and welfare totals
and every removal value (a DS removal's sensing optimum or a VCG marginal),
the floats as float.hex. The inputs are the seeded integer-zeta markets,
the random welfare markets, every epoch market of one default cell per
mechanism (scenario 3, fleet 20, seed 0) and the benchmark's saved
150-driver stress markets, in manifest order. The benchmark's digests round
to 9 decimals; this file sees every bit.

Rewrite it from the current code with `python tests/test_settle_golden.py`,
only when an output is meant to change.
"""

import copy
import gzip
import json
from pathlib import Path

import pytest

from senseauction import assignment as asg
from senseauction import pricing
from senseauction.assignment import MatchingProblem, problem_from_json
from senseauction.simengine import ScenarioConfig, run_scenario

from test_sensing_scale import SEEDED
from test_welfare_scale import SMALL, random_market

GOLDEN = Path(__file__).resolve().parent / "data" / "settle_golden.json"
SAVED = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def sim_cell_markets():
    """Every epoch market of one default cell per mechanism, in settle
    order."""
    seen = []
    settle = pricing.settle_epoch

    def record(mechanism, problem, *args, **kwargs):
        seen.append(MatchingProblem(list(problem.edges), problem.drivers,
                                    problem.riders))
        return settle(mechanism, problem, *args, **kwargs)

    pricing.settle_epoch = record
    try:
        for mechanism in (pricing.VCG, pricing.DS):
            run_scenario(ScenarioConfig(fleet_size=20, demand_scenario=3,
                                        seed=0), mechanism)
    finally:
        pricing.settle_epoch = settle
    return seen


def saved_large_markets():
    """The benchmark's saved stress markets (read only): the one input set
    where the row cut and the integral removal path run at 150 drivers."""
    manifest = json.loads((SAVED / "markets_large.json").read_text())
    problems = []
    for entry in manifest["markets"]:
        with gzip.open(SAVED / "markets" / entry["file"], "rt") as fh:
            problems.append(problem_from_json(json.load(fh)))
    return problems


def golden_markets():
    return {
        "seeded": SEEDED,
        "welfare_random": SMALL + [
            random_market(seed, n_d, n_r, colocated)
            for n_d, n_r in ((10, 10), (20, 12), (30, 16))
            for colocated in (False, True) for seed in range(2)],
        "sim_cell": sim_cell_markets(),
        "markets_large": saved_large_markets(),
    }


def settle_record(problem, objective):
    """What one settle under `objective` decides, as settle_epoch runs it."""
    problem = copy.copy(problem)
    problem.objective = objective
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    marginals = pricing.compute_marginals(problem, solution, index)
    return {
        "chosen": [list(e.pair) for e in solution.chosen],
        "objective": solution.objective_value.hex(),
        "welfare": solution.welfare_total.hex(),
        "removals": [[p, v.hex()] for p, v in marginals.items()],
    }


def records(markets):
    return {group: [[settle_record(p, asg.WELFARE),
                     settle_record(p, asg.SENSING)] for p in problems]
            for group, problems in markets.items()}


def test_settles_equal_the_golden_outputs():
    want = json.loads(GOLDEN.read_text())
    got = records(golden_markets())
    assert got.keys() == want.keys()
    for group in want:
        assert len(got[group]) == len(want[group]), group
        for k, (g, w) in enumerate(zip(got[group], want[group])):
            assert g == w, (group, k)


if __name__ == "__main__":
    doc = records(golden_markets())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(GOLDEN, GOLDEN.stat().st_size, "bytes")
