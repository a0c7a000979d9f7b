"""The removal helper: a large DS settle shares its removal searches with one
forked process, and every value equals the in-process one bit for bit.

The saved markets-large markets are all above the helper's gate
(_HELPER_CELLS), so tests/data/settle_golden.json pins the helper path on
them; these tests pin the in-process path against the same file, and check
what forked children, a killed, stopped or failing helper, an interrupted
settle and the platform gates do.
"""

import array
import copy
import fcntl
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import termios
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from senseauction import assignment as asg
from senseauction import pricing, simengine
from senseauction.simengine import ScenarioConfig

from test_settle_golden import GOLDEN, SAVED, saved_large_markets

STRESS = "stress8-e00.json.gz"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def large():
    """The saved markets-large markets, as sensing problems, with their DS
    removal values from the golden file (float.hex)."""
    want = json.loads(GOLDEN.read_text())["markets_large"]
    problems = []
    for problem in saved_large_markets():
        problem = copy.copy(problem)
        problem.objective = asg.SENSING
        problems.append(problem)
    return problems, [dict(ds["removals"]) for _, ds in want]


def saved_market(large, name):
    """The saved market of file `name` and its golden removals."""
    manifest = json.loads((SAVED / "markets_large.json").read_text())
    k = [entry["file"] for entry in manifest["markets"]].index(name)
    return large[0][k], large[1][k]


@pytest.fixture(scope="module")
def stress(large):
    """stress8-e00, the largest saved market, and its golden removals."""
    return saved_market(large, STRESS)


def removal_hex(problem):
    """Every matched participant's DS removal value of one fresh settle, as
    float.hex."""
    problem = copy.copy(problem)
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    marginals = pricing.compute_marginals(problem, solution, index)
    return {p: v.hex() for p, v in marginals.items()}


def helper_pid():
    helper = asg._helper
    return None if helper is None else helper.proc.pid


def test_both_paths_equal_the_golden_removals(large, monkeypatch):
    problems, want = large
    for problem in problems:
        assert asg.settle_index(problem).s_raw.size >= asg._HELPER_CELLS
    assert [removal_hex(p) for p in problems] == want
    assert helper_pid() is not None
    monkeypatch.setattr(asg, "_HELPER_CELLS", float("inf"))
    assert [removal_hex(p) for p in problems] == want


def counting_removals(monkeypatch, before=None):
    """Patch _removal_value in this process (a helper forked earlier keeps
    its own) to record each call, after calling before() on the first one;
    the list of calls' arguments."""
    calls, real = [], asg._removal_value

    def counted(*args):
        if before is not None and not calls:
            before()
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(asg, "_removal_value", counted)
    return calls


def test_the_helper_takes_removals(large, monkeypatch):
    """Above the gate the helper computes some of the removals: a helper
    whose every removal failed would leave them all to this process, and
    the values would still be right."""
    problems, want = large
    calls = counting_removals(monkeypatch)
    assert [removal_hex(p) for p in problems] == want
    assert len(calls) < sum(map(len, want))


def unread(fd):
    """The number of bytes waiting in pipe fd."""
    buf = array.array("i", [0])
    fcntl.ioctl(fd, termios.FIONREAD, buf)
    return buf[0]


def test_a_stale_settle_is_passed_over(large, monkeypatch):
    """A helper stopped through one settle holds that settle's message when
    it takes the next settle's records: it reads on to the record's
    message, and both settles equal the golden removals."""
    stale, want_stale = saved_market(large, "stress18-ds-e06.json.gz")
    fresh, want_fresh = saved_market(large, "stress18-ds-e12.json.gz")
    assert removal_hex(stale) == want_stale
    helper = asg._helper
    pid = helper.proc.pid

    def resume():
        # Wait until the resumed helper has taken one of the records left.
        left = unread(helper.claims)
        os.kill(pid, signal.SIGCONT)
        deadline = time.monotonic() + 30
        while unread(helper.claims) == left and time.monotonic() < deadline:
            time.sleep(0.001)

    os.kill(pid, signal.SIGSTOP)
    try:
        assert removal_hex(stale) == want_stale     # every record taken here
        calls = counting_removals(monkeypatch, resume)
        assert removal_hex(fresh) == want_fresh
    finally:
        os.kill(pid, signal.SIGCONT)
    assert len(calls) < len(want_fresh)
    assert helper_pid() == pid


def test_platform_gates_keep_removals_in_process(stress, monkeypatch):
    """One allowed CPU, or a live second thread (fork would copy only this
    one), forks no helper, and the settle is still exact."""
    problem, want = stress
    if asg._helper is not None:
        asg._helper.close()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert removal_hex(problem) == want
    assert asg._helper is None
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert removal_hex(problem) == want
    finally:
        release.set()
        thread.join()
    assert asg._helper is None


def settle_in_child(problem):
    """removal_hex in a pool worker, and whether the worker started a
    helper of its own."""
    values = removal_hex(problem)
    own = asg._helper is not None and asg._helper.owner == os.getpid()
    return values, own


def test_forked_children_settle_in_process(stress):
    problem, want = stress
    assert removal_hex(problem) == want
    pid = helper_pid()
    assert pid is not None
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        assert pool.submit(settle_in_child, problem).result(timeout=60) == (
            want, False)
    with ctx.Pool(1) as pool:
        assert pool.apply_async(settle_in_child, (problem,)).get(
            timeout=60) == (want, False)
    # The parent's helper was not touched by its children.
    assert removal_hex(problem) == want
    assert helper_pid() == pid


def test_killed_helper_costs_only_speed(stress):
    problem, want = stress
    assert removal_hex(problem) == want
    first = asg._helper
    os.kill(first.proc.pid, signal.SIGKILL)
    first.proc.join(timeout=10)
    assert removal_hex(problem) == want
    assert helper_pid() not in (None, first.proc.pid)

    # Killed in the middle of a settle: what it claimed and did not return
    # is computed in-process.
    problem = copy.copy(problem)
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    second = asg._helper
    previous = signal.signal(
        signal.SIGALRM, lambda *_: os.kill(second.proc.pid, signal.SIGKILL))
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        marginals = pricing.compute_marginals(problem, solution, index)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert {p: v.hex() for p, v in marginals.items()} == want
    assert asg._helper is None      # the settle saw it die and closed it
    second.proc.join(timeout=10)
    assert not second.proc.is_alive()


class Alarm(BaseException):
    """Raised from a SIGALRM handler, as the benchmark's op budget does."""


def raise_alarm(signum, frame):
    raise Alarm


def test_removals_that_fail_in_the_helper_run_here(stress, monkeypatch):
    """A helper forked while _removal_value raises claims removals and
    returns none of them; the settle computes them all in-process."""
    problem, want = stress
    if asg._helper is not None:
        asg._helper.close()

    def broken(*args):
        raise RuntimeError("removal failed in the helper")

    with monkeypatch.context() as m:
        m.setattr(asg, "_removal_value", broken)
        helper = asg._removal_helper(asg.settle_index(problem), 2)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 60.0)   # no reply would hang
        assert removal_hex(problem) == want
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        helper.close()


def test_interrupted_settle_closes_the_helper(stress):
    problem, want = stress
    assert removal_hex(problem) == want
    helper = asg._helper
    problem = copy.copy(problem)
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        with pytest.raises(Alarm):
            pricing.compute_marginals(problem, solution, index)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert asg._helper is None
    assert helper.proc.exitcode is not None
    assert removal_hex(problem) == want
    assert helper_pid() not in (None, helper.proc.pid)


# A child process that settles stress8-e00 and prints its helper's pid.
SETTLE_SCRIPT = textwrap.dedent(f"""
    import gzip, json
    from senseauction import assignment as asg, pricing
    with gzip.open({str(SAVED / "markets" / STRESS)!r}, "rt") as fh:
        problem = asg.problem_from_json(json.load(fh))
    problem.objective = asg.SENSING
    index = asg.settle_index(problem)
    solution = asg.solve(problem, index)
    pricing.compute_marginals(problem, solution, index)
    print(asg._helper.proc.pid, flush=True)
""")
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def test_helper_exits_with_its_process():
    done = subprocess.run([sys.executable, "-c", SETTLE_SCRIPT], env=ENV,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    pid = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def running(pid) -> bool:
    """pid is a live process, not gone and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_helper_exits_when_its_process_is_killed():
    """SIGKILL runs no exit handler: the helper sees its message pipe end."""
    with subprocess.Popen(
            [sys.executable, "-c", SETTLE_SCRIPT + "input()\n"], env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        pid = int(proc.stdout.readline())
        proc.kill()
    deadline = time.monotonic() + 30
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        assert not running(pid)
    finally:
        if running(pid):
            os.kill(pid, signal.SIGKILL)


# run_scenario's queue: a DS settle hands its removals to the helper and the
# run goes on; the prices are collected before each interval's KPIs.

def run_lines(fleet, seed, one_cpu=False):
    """kpi_rows and event_log_lines of one ds run (scenario 3), and the
    number of its settles that were queued. With one_cpu, every removal
    runs in-process."""
    queued, settle = [], pricing.PendingSettlement.settle

    def counted(pending):
        queued.append(1)
        return settle(pending)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pricing.PendingSettlement, "settle", counted)
        if one_cpu:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
        report = simengine.run_scenario(ScenarioConfig(
            fleet_size=fleet, demand_scenario=3, seed=seed), pricing.DS)
    assert all(isinstance(o.settlement, pricing.EpochSettlement)
               for o in report.outcomes)
    lines = ([",".join(map(str, row)) for row in simengine.kpi_rows(report)]
             + simengine.event_log_lines(report))
    return lines, len(queued)


@pytest.fixture(scope="module")
def in_process_runs():
    """The in-process lines of the ds runs at fleets 20 and 60, seeds 0-2."""
    runs = {}
    for fleet in (20, 60):
        for seed in range(3):
            runs[fleet, seed], queued = run_lines(fleet, seed, one_cpu=True)
            assert queued == 0
    return runs


def test_queued_runs_equal_in_process_runs(in_process_runs):
    for (fleet, seed), want in in_process_runs.items():
        got, queued = run_lines(fleet, seed)
        assert queued > 0
        assert got == want


def with_alarm(fn, seconds=120.0):
    """fn() under a SIGALRM budget that raises Alarm, so a hang fails the
    test instead of holding it."""
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def live_helper(stress):
    """This process's helper, forked by a settle if there is none."""
    if asg._helper is None:
        removal_hex(stress[0])
    return asg._helper


def test_a_run_with_a_stopped_helper_drains_its_own_queue(
        in_process_runs, stress):
    """A helper stopped through a whole run takes no record: the run's
    process claims every queued removal at the drains, the queue's bound
    keeps it from blocking on a full pipe, and the outputs are exact."""
    helper = live_helper(stress)
    os.kill(helper.proc.pid, signal.SIGSTOP)
    try:
        got, queued = with_alarm(lambda: run_lines(60, 0))
        assert queued > 0
        assert got == in_process_runs[60, 0]
    finally:
        os.kill(helper.proc.pid, signal.SIGCONT)
    assert asg._helper is helper
    assert run_lines(60, 1)[0] == in_process_runs[60, 1]


class Stop(Exception):
    """Raised from a patched step_epoch to stop a run mid-horizon."""


def test_a_stopped_run_leaves_nothing_for_the_next(in_process_runs,
                                                   monkeypatch):
    """A run stopped mid-horizon, by an exception from a step or by an alarm
    as the benchmark's budget stops it, drops its queue; the next run equals
    the in-process one, so no reply of the stopped run prices it."""
    step = simengine.SimulationState.step_epoch

    def stopping(state, interval, epoch):
        if (interval, epoch) == (1, 12):
            raise Stop
        return step(state, interval, epoch)

    with monkeypatch.context() as m:
        m.setattr(simengine.SimulationState, "step_epoch", stopping)
        with pytest.raises(Stop):
            run_lines(60, 0)
    assert asg._helper is None or not asg._helper.queue
    assert run_lines(60, 0)[0] == in_process_runs[60, 0]
    start = time.perf_counter()
    assert run_lines(60, 2)[0] == in_process_runs[60, 2]
    took = time.perf_counter() - start
    for part in (0.1, 0.3, 0.5):
        with pytest.raises(Alarm):
            with_alarm(lambda: run_lines(60, 2), part * took)
        assert asg._helper is None or not asg._helper.queue
        assert run_lines(60, 2)[0] == in_process_runs[60, 2]


class EarlyError(Exception):
    pass


class LateError(Exception):
    pass


def test_the_earliest_failing_epoch_raises(monkeypatch):
    """A removal that raises surfaces from run_scenario with its own type,
    also when the helper took it, and of two failing epochs of one
    interval the earlier one's error wins. The earlier epoch's driver
    removals fail and the helper takes its rider removals slowly, so the
    drain finds that epoch still queued and claims the later one's
    records before its reply comes."""
    targets, real = [], asg._removal_value

    def recording(index, optimal, target, i, j):
        if not targets or targets[-1] != target:
            targets.append(target)
        return real(index, optimal, target, i, j)

    with monkeypatch.context() as m:
        m.setattr(asg, "_removal_value", recording)
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        report = simengine.run_scenario(ScenarioConfig(
            fleet_size=60, demand_scenario=3, seed=0), pricing.DS)
    # The first interval's settles in order, by their sensing optimum, and
    # two of them that no other settle shares it with.
    first = [o.settlement.sensing_total for o in report.outcomes[:18]
             if o.settlement.priced]
    unique = [t for t in first if targets.count(t) == 1]
    early, late = unique[1], unique[-1]
    parent = os.getpid()

    def failing(index, optimal, target, i, j):
        if target == early and j is None:
            raise EarlyError
        if target == early and os.getpid() != parent:
            time.sleep(0.5)
        if target == late:
            raise LateError
        return real(index, optimal, target, i, j)

    if asg._helper is not None:
        asg._helper.close()
    try:
        # Patched before the helper forks, so it fails there too.
        monkeypatch.setattr(asg, "_removal_value", failing)
        for one_cpu in (True, False):
            with pytest.raises(EarlyError):
                with_alarm(lambda: run_lines(60, 0, one_cpu))
    finally:
        if asg._helper is not None:
            asg._helper.close()
