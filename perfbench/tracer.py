"""In-memory spans around the library's layer boundaries.

Each hook replaces a function at the module attribute its caller looks up
(for example `pricing.solve`, which `settle_epoch` calls), so the library is
traced from outside without edits. A hook whose attribute no longer exists is
recorded as absent and skipped, so a refactor that removes a function does not
break the traced run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (module, attribute path, span name). The span name is the layer that owns
# the function; the attribute is where its caller finds it.
HOOKS = [
    ("simengine", "SimulationState.step_epoch", "simengine.step_epoch"),
    ("simengine", "generate_demand", "simengine.generate_demand"),
    ("simengine", "reposition_vacant", "simengine.reposition_vacant"),
    ("simengine", "route", "gridworld.route"),
    ("simengine", "build_candidates", "assignment.build_candidates"),
    ("simengine", "commit_route", "sensing.commit_route"),
    ("sensing", "marginal_gain", "sensing.marginal_gain"),
    ("pricing", "settle_epoch", "pricing.settle_epoch"),
    ("pricing", "compute_marginals", "pricing.compute_marginals"),
    ("pricing", "solve", "assignment.solve"),
    ("pricing", "marginal_objective", "assignment.marginal_objective"),
    ("pricing", "vcg_prices", "pricing.prices"),
    ("pricing", "ds_prices", "pricing.prices"),
    ("assignment", "linear_sum_assignment", "assignment.lsa"),
    ("assignment", "linprog", "assignment.linprog"),
]

SETTLE = "pricing.settle_epoch"


class Tracer:
    """Records (name, start, end, parent) spans; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.markets: list[list] = []   # [drivers, riders, edges, matched]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def repair(self) -> None:
        """Drop the half-recorded span and close the open ones after an op.

        An op stopped at its budget unwinds through every wrapper's finally,
        so this only matters if the stop landed inside open() or close().
        """
        columns = (self.names, self.starts, self.ends, self.parents)
        n = min(len(c) for c in columns)
        for column in columns:
            del column[n:]
        now = time.perf_counter()
        for idx in self._stack:
            if idx < n and self.ends[idx] == 0.0:
                self.ends[idx] = now
        self._stack.clear()

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        if name != SETTLE:
            return traced

        def traced_settle(mechanism, problem, *args, **kwargs):
            row = [len(problem.drivers), len(problem.riders),
                   len(problem.edges), None]
            tracer.markets.append(row)
            settlement = traced(mechanism, problem, *args, **kwargs)
            row[3] = len(settlement.solution.chosen)
            return settlement

        return traced_settle

    def install(self, modules: dict) -> None:
        self.absent = []
        for mod_name, path, name in HOOKS:
            owner = modules[mod_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{mod_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, name))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(tracer: Tracer) -> dict:
    """name -> {"calls", "s", "self_s"} summed over all spans."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, start, end, own in zip(tracer.names, tracer.starts,
                                     tracer.ends, selfs):
        t = totals[name]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += own
    return totals


def per_layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict:
    """The per-layer metric set, each value per pass of the workload."""
    t = layer_totals(tracer)

    def get(name, key):
        return t[name][key] / passes if name in t else 0.0

    settles = get(SETTLE, "calls")
    matched = sum(m[3] for m in tracer.markets if m[3] is not None) / passes
    metrics = {
        "pricing.compute_marginals.s": (get("pricing.compute_marginals", "s"), "s"),
        "assignment.marginal_objective.s": (get("assignment.marginal_objective", "s"), "s"),
        "assignment.marginal_objective.calls": (get("assignment.marginal_objective", "calls"), "count"),
        "assignment.marginal_objective.per_matched": (
            get("assignment.marginal_objective", "calls") / matched if matched else 0.0, "ratio"),
        "assignment.solve.s": (get("assignment.solve", "s"), "s"),
        "assignment.solve.calls": (get("assignment.solve", "calls"), "count"),
        "assignment.lsa.calls": (get("assignment.lsa", "calls"), "count"),
        "assignment.lsa.s": (get("assignment.lsa", "s"), "s"),
        "assignment.lsa.per_epoch": (
            get("assignment.lsa", "calls") / settles if settles else 0.0, "ratio"),
        "assignment.linprog.calls": (get("assignment.linprog", "calls"), "count"),
        "assignment.build_candidates.s": (get("assignment.build_candidates", "s"), "s"),
        "assignment.build_candidates.calls": (get("assignment.build_candidates", "calls"), "count"),
        "sensing.marginal_gain.s": (get("sensing.marginal_gain", "s"), "s"),
        "sensing.marginal_gain.calls": (get("sensing.marginal_gain", "calls"), "count"),
        "simengine.step_epoch.self_s": (get("simengine.step_epoch", "self_s"), "s"),
        "simengine.generate_demand.s": (get("simengine.generate_demand", "s"), "s"),
        "simengine.reposition_vacant.s": (get("simengine.reposition_vacant", "s"), "s"),
        "gridworld.route.s": (get("gridworld.route", "s"), "s"),
        "gridworld.route.calls": (get("gridworld.route", "calls"), "count"),
        "sensing.commit_route.s": (get("sensing.commit_route", "s"), "s"),
        "pricing.settle_epoch.self_s": (get(SETTLE, "self_s"), "s"),
        "pricing.prices.s": (get("pricing.prices", "s"), "s"),
    }
    for col, key in ((0, "drivers"), (1, "riders"), (2, "edges")):
        sizes = [m[col] for m in tracer.markets] or [0]
        metrics[f"market.{key}.p50"] = (float(statistics.median(sizes)), "count")
        metrics[f"market.{key}.max"] = (float(max(sizes)), "count")
    metrics["market.matched.sum"] = (matched, "count")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics
