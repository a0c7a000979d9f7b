"""Closed-loop op runner: per-op wall budgets, passes, and end-to-end metrics.

One caller issues each op only after the previous one has returned and been
checked. An op that runs past its budget is stopped by SIGALRM, recorded as
failed, and the run moves on to the next op.
"""

from __future__ import annotations

import gc
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field, replace


class OpTimeout(BaseException):
    """Raised inside an op when its wall budget expires.

    Derives from BaseException so a library `except Exception` cannot
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


def call_with_budget(fn, budget_s: float):
    """Run fn() under a wall budget; return (status, seconds, result, error).

    status is "ok", "timeout" or "raised". The handler fires between Python
    bytecodes, so a pure-Python search stops within milliseconds of the
    budget; a single native call finishes first.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return "ok", time.perf_counter() - start, result, None
    except OpTimeout:
        return "timeout", time.perf_counter() - start, None, None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return "raised", time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One closed-loop operation: run() is timed, make() and check() are not.

    make(), when set, builds the op's input, which is passed to run(). run()
    returns the op's result; check(result) returns the names of the output
    checks it fails; epochs(result) is the number of settled epochs.
    latencies, when set, is filled by run() with per-epoch seconds (used
    when one op settles many epochs).
    """
    label: str
    run: object
    check: object
    make: object = None
    epochs: object = None
    latencies: list | None = None


@dataclass
class OpRecord:
    label: str
    status: str            # ok | timeout | raised | wrong
    seconds: float         # measured wall
    charged: float         # wall counted in throughput (budget if failed)
    epochs: int            # epochs settled
    latencies: list        # per-epoch seconds; failures count at budget
    problems: list = field(default_factory=list)   # failed check names / error


def run_op(op: Op, budget_s: float) -> OpRecord:
    if op.latencies is not None:
        op.latencies.clear()
    args = () if op.make is None else (op.make(),)
    status, seconds, result, error = call_with_budget(lambda: op.run(*args),
                                                      budget_s)
    problems = [error] if error else []
    if status == "ok":
        problems = list(op.check(result))
        if problems:
            status = "wrong"
    ok = status == "ok"
    if not ok:
        # A stopped search leaves its state as cyclic garbage; collect it
        # here, untimed, so the next op does not pay for it.
        gc.collect()
    charged = seconds if ok else max(seconds, budget_s)
    if op.latencies is None:
        latencies = [charged]
        epochs = 1 if ok else 0
    else:
        latencies = list(op.latencies)
        epochs = op.epochs(result) if ok else 0
        if not ok:
            latencies.append(max(budget_s, seconds - sum(latencies)))
    return OpRecord(op.label, status, seconds, charged, epochs, latencies,
                    problems)


def run_pass(ops: list[Op], budget_s: float, rounds: int = 1) -> list[OpRecord]:
    """Run every op `rounds` times, stopping at its first failed round; each
    settled op's time is the median of its rounds.

    Starts are staggered: the pass is 2 * rounds - 1 sweeps over the op
    list, and op i runs in sweeps i % rounds to i % rounds + rounds - 1. The
    rounds of the ops, and the first tries of the ops that fail, are so
    spread over the whole pass instead of bunched in one part of it. Only
    single-epoch ops (no `latencies` list) take more than one round.
    """
    records: list = [None] * len(ops)
    times = [[] for _ in ops]
    for sweep in range(2 * rounds - 1):
        for i, op in enumerate(ops):
            first = i % rounds
            if not first <= sweep < first + rounds:
                continue
            if records[i] is not None:
                if records[i].status != "ok":
                    continue
                assert op.latencies is None, "rounds are for single-epoch ops"
            rec = run_op(op, budget_s)
            if records[i] is None or rec.status != "ok":
                records[i] = rec
            if rec.status == "ok":
                times[i].append(rec.seconds)
    for i, rec in enumerate(records):
        if rec.status == "ok" and len(times[i]) > 1:
            t = statistics.median(times[i])
            records[i] = replace(rec, seconds=t, charged=t, latencies=[t])
    return records


def run_passes(ops: list[Op], budget_s: float, seconds: float,
               rounds: int = 1) -> list[list[OpRecord]]:
    """Run whole passes over ops until the next one would overrun `seconds`.

    At least one pass always runs. Whole passes keep the op mix, and so the
    failure fraction, identical from run to run.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, budget_s, rounds))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tail_percentile(n_pass: int) -> float:
    """Highest percentile with at least ten of a pass's samples beyond it."""
    if n_pass < 20:
        return 50.0
    return 100.0 * (n_pass - 10) / n_pass


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Summary:
    attempted: int
    failed: int
    wrong: int             # ops whose output failed a check, or that raised
    epochs_per_s: float
    epoch_ms_p50: float
    epoch_ms_tail: float
    tail_pct: float
    samples: int
    failures: dict         # label -> status and problems, first pass only


def summarize(passes: list[list[OpRecord]]) -> Summary:
    records = [r for p in passes for r in p]
    latencies = [s for r in records for s in r.latencies]
    n_pass = sum(len(r.latencies) for r in passes[0])
    pct = tail_percentile(n_pass)
    failed = [r for r in records if r.status != "ok"]
    charged = sum(r.charged for r in records)
    return Summary(
        attempted=len(records),
        failed=len(failed),
        wrong=sum(1 for r in failed if r.status in ("wrong", "raised")),
        epochs_per_s=sum(r.epochs for r in records) / charged,
        epoch_ms_p50=1e3 * statistics.median(latencies),
        epoch_ms_tail=1e3 * nearest_rank(latencies, pct),
        tail_pct=pct,
        samples=len(latencies),
        failures={r.label: [r.status] + r.problems
                  for r in passes[0] if r.status != "ok"},
    )
