"""The removal helper: a large DS settle shares its removal searches with one
forked process, and every value equals the in-process one bit for bit.

The saved markets-large markets are all above the helper's gate
(_HELPER_CELLS), so tests/data/settle_golden.json pins the helper path on
them; these tests pin the in-process path against the same file, and check
what forked children, a killed helper and an interrupted settle do.
"""

import copy
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from senseauction import assignment as asg
from senseauction import pricing

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


@pytest.fixture(scope="module")
def stress(large):
    """stress8-e00, the largest saved market, and its golden removals."""
    manifest = json.loads((SAVED / "markets_large.json").read_text())
    k = [entry["file"] for entry in manifest["markets"]].index(STRESS)
    return large[0][k], large[1][k]


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


def test_helper_exits_with_its_process():
    script = textwrap.dedent(f"""
        import gzip, json
        from senseauction import assignment as asg, pricing
        with gzip.open({str(SAVED / "markets" / STRESS)!r}, "rt") as fh:
            problem = asg.problem_from_json(json.load(fh))
        problem.objective = asg.SENSING
        index = asg.settle_index(problem)
        solution = asg.solve(problem, index)
        pricing.compute_marginals(problem, solution, index)
        print(asg._helper.proc.pid)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    pid = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
