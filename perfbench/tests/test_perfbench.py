"""Tests for the benchmark harness itself (budgets, checks, tracing, workloads)."""

import contextlib
import dataclasses
import io
import json
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from senseauction import pricing, simengine  # noqa: E402
from senseauction.assignment import problem_from_json  # noqa: E402


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_op_over_budget_is_failed_and_the_run_continues():
    slow = harness.Op("slow", run=lambda: _spin(30.0), check=lambda r: [])
    fast = harness.Op("fast", run=lambda: _spin(0.001), check=lambda r: [])
    start = time.perf_counter()
    passes = harness.run_passes([slow, fast], budget_s=0.05, seconds=0.0)
    assert time.perf_counter() - start < 5.0
    (rec_slow, rec_fast), = passes
    assert rec_slow.status == "timeout" and rec_slow.charged >= 0.05
    assert rec_fast.status == "ok"
    summary = harness.summarize(passes)
    assert (summary.attempted, summary.failed, summary.wrong) == (2, 1, 0)
    assert summary.failures == {"slow": ["timeout"]}


def test_raising_op_and_failed_check_count_as_wrong():
    def boom():
        raise ValueError("bad")
    ops = [harness.Op("boom", run=boom, check=lambda r: []),
           harness.Op("wrong", run=lambda: 1, check=lambda r: ["objective"])]
    summary = harness.summarize(harness.run_passes(ops, 1.0, 0.0))
    assert summary.failed == summary.wrong == 2
    assert summary.failures["wrong"] == ["wrong", "objective"]
    assert summary.failures["boom"][0] == "raised"


def test_rounds_keep_the_median_and_a_failed_round_fails_the_op():
    times = {"steady": iter([0.03, 0.01, 0.02]), "flaky": iter([0.0, 0.0, 1.0])}

    def op(label):
        return harness.Op(label, run=lambda: _spin(next(times[label])),
                          check=lambda r: [])
    steady, flaky = harness.run_pass([op("steady"), op("flaky")], 0.5, rounds=3)
    assert steady.status == "ok" and steady.latencies == [steady.seconds]
    assert 0.02 <= steady.seconds < 0.03
    assert flaky.status == "timeout" and flaky.latencies == [flaky.charged]


def test_rounds_are_staggered_over_the_pass():
    order = []

    def op(label):
        return harness.Op(label, run=lambda: order.append(label),
                          check=lambda r: [])
    harness.run_pass([op("a"), op("b"), op("c")], 1.0, rounds=2)
    # Three sweeps: a and c start in the first, b in the second.
    assert order == ["a", "c", "a", "b", "c", "b"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    pct = harness.tail_percentile(len(values))
    assert pct == 90.0
    tail = harness.nearest_rank(values, pct)
    assert sum(v > tail for v in values) == 10


def _settled_small(mechanism):
    """A saved small market with two matches, settled under mechanism."""
    for mk in workloads.load_markets_small()[1]:
        problem = problem_from_json(mk.doc)
        st = workloads.settle(mechanism, problem)
        if len(st.solution.chosen) >= 2:
            return mk, problem, st
    raise AssertionError("no market with two matches")


def _check(mk, problem, st, mechanism, **changes):
    args = {"reference": mk.reference[mechanism],
            "digest": mk.digests[mechanism],
            "marginals": mk.marginals[mechanism], **changes}
    return checks.check_settlement(problem, st, mechanism, **args)


def test_corrupted_digest_is_caught():
    mk, problem, st = _settled_small(pricing.DS)
    good = mk.digests[pricing.DS]
    assert _check(mk, problem, st, pricing.DS) == []
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    assert _check(mk, problem, st, pricing.DS, digest=bad) == ["digest"]
    assert "objective" in _check(mk, problem, st, pricing.DS,
                                 reference=mk.reference[pricing.DS] + 1e-6)


@pytest.mark.parametrize("mechanism, field", [(pricing.VCG, "rho_d"),
                                              (pricing.DS, "share_r")])
def test_corrupted_price_is_caught(mechanism, field):
    mk, problem, st = _settled_small(mechanism)
    first = st.priced[0]
    bad = dataclasses.replace(first, **{field: getattr(first, field) + 1e-6})
    broken = dataclasses.replace(st, priced=(bad,) + st.priced[1:])
    assert _check(mk, problem, broken, mechanism, digest=None) == ["prices"]
    assert _check(mk, problem, broken, mechanism) == ["prices", "digest"]


def test_broken_matching_is_caught():
    mk, problem, st = _settled_small(pricing.DS)
    chosen = st.solution.chosen
    doubled = dataclasses.replace(st.solution, chosen=chosen + chosen[:1])
    broken = dataclasses.replace(st, solution=doubled)
    assert "matching" in _check(mk, problem, broken, pricing.DS)


def test_each_op_settles_a_fresh_problem():
    mk = workloads.load_markets_small()[1][0]
    ops = workloads.market_ops([mk], random.Random(0))
    seen = []
    for op in ops:
        op.run = lambda fresh, run=op.run: seen.append(fresh) or run(fresh)
    harness.run_passes(ops, 1.0, 0.0)
    harness.run_passes(ops, 1.0, 0.0)
    assert len(seen) == 4 and len({id(p) for p in seen}) == 4


def test_self_time_subtracts_covered_child_time_once():
    # parent [0, 10]; overlapping children [1, 3] and [2, 5]; grandchild
    # [2.5, 3] lies inside a child and does not count against the parent.
    starts = [0.0, 1.0, 2.0, 2.5]
    ends = [10.0, 3.0, 5.0, 3.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [6.0, 2.0, 2.5, 0.5])


def test_tracer_counts_calls_and_reports_missing_hooks():
    class Fake:
        pass
    mod = Fake()
    mod.solve = lambda x: x + 1
    t = tracing.Tracer()
    wrapped = t.wrap(mod.solve, "assignment.solve")
    root = t.open("bench.op")
    assert wrapped(1) == 2 and wrapped(2) == 3
    t.close(root)
    totals = tracing.layer_totals(t)
    assert totals["assignment.solve"]["calls"] == 2
    assert t.parents == [-1, 0, 0]

    empty = tracing.Tracer()
    empty.install({name: Fake() for name in ("simengine", "pricing", "assignment", "sensing")})
    assert len(empty.absent) == len(tracing.HOOKS)
    metrics = tracing.per_layer_metrics(empty, 1, 0.0)
    assert metrics["gridworld.route.calls"] == (0.0, "count")


def _one_pass(workload, pick=None):
    ops = workload.ops()
    if pick is not None:
        ops = [op for op in ops if pick(op.label)]
    try:
        return harness.summarize(harness.run_passes(ops, workload.budget_s, 0.0))
    finally:
        workload.close()


def test_smoke_sim_default_one_cell_matches_recorded_digest():
    summary = _one_pass(workloads.SimDefault(0), pick=lambda l: l == "vcg-f20-s0")
    assert (summary.attempted, summary.failed) == (1, 0)
    assert summary.samples == 72 and summary.epochs_per_s > 0
    assert simengine.SimulationState.step_epoch.__name__ == "step_epoch"


def test_smoke_markets_large_small_market_passes_checks():
    summary = _one_pass(workloads.MarketsLarge(0),
                        pick=lambda l: l.startswith("stress18-vcg-e10/"))
    assert (summary.attempted, summary.failed) == (2, 0)


def test_smoke_markets_small_pass_is_exact():
    # The 57 markets of sim seed 1's vcg run, each under both mechanisms.
    summary = _one_pass(workloads.MarketsSmall(5),
                        pick=lambda l: l.startswith("f8-s1-vcg-"))
    assert (summary.attempted, summary.failed) == (2 * 57, 0)


def test_run_prints_contract_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest, markets = workloads.load_markets_small()
    monkeypatch.setattr(workloads, "load_markets_small",
                        lambda: (manifest, markets[:10]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "markets-small", "--seed", "1",
                         "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {"setup_s", "epochs_per_s", "epoch_ms_p50",
                                    "epoch_ms_tail", "ok_frac", "peak_rss_mb"}
