"""Output checks and independent exact references for settled markets.

The references do not share code with the library's solvers: welfare is one
scipy linear_sum_assignment on max(sigma, 0), and the sensing program is a
scipy.optimize.milp (HiGHS) model with the welfare floor as a row.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import coo_matrix

TOL = 1e-9


def reference_welfare(problem) -> float:
    """Maximum total welfare; edges with negative welfare are never taken."""
    if not problem.edges:
        return 0.0
    d_index = {d: i for i, d in enumerate(sorted({e.driver for e in problem.edges}))}
    r_index = {r: j for j, r in enumerate(sorted({e.rider for e in problem.edges}))}
    w = np.zeros((len(d_index), len(r_index)))
    for e in problem.edges:
        w[d_index[e.driver], r_index[e.rider]] = max(e.sigma, 0.0)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(sum(sorted(w[rows, cols])))


def reference_sensing(problem) -> float:
    """Maximum total sensing gain subject to total welfare >= 0.

    Markets built by the simulator carry the sensing gain per rider, so the
    MILP branches only on which riders are matched (binary y_r) and routes
    them with continuous edge variables x_e: for integral y the bipartite
    constraints have integral vertices, so the model is exact while HiGHS
    never branches on the thousands of edge variables.
    """
    edges = problem.edges
    if not edges:
        return 0.0
    zeta: dict = {}
    for e in edges:
        if zeta.setdefault(e.rider, e.zeta) != e.zeta:
            raise ValueError("reference_sensing needs one sensing gain per rider")
    drivers = {d: i for i, d in enumerate(sorted({e.driver for e in edges}))}
    riders = {r: j for j, r in enumerate(sorted(zeta))}
    n, n_d, n_r = len(edges), len(drivers), len(riders)
    # Rows: each driver serves at most once; each rider's edges sum to y_r.
    rows = np.concatenate([[drivers[e.driver] for e in edges],
                           [n_d + riders[e.rider] for e in edges],
                           n_d + np.arange(n_r)])
    cols = np.concatenate([np.arange(n), np.arange(n), n + np.arange(n_r)])
    vals = np.concatenate([np.ones(2 * n), -np.ones(n_r)])
    degree = coo_matrix((vals, (rows, cols)), shape=(n_d + n_r, n + n_r))
    welfare = np.concatenate([[e.sigma for e in edges], np.zeros(n_r)])
    res = milp(c=-np.concatenate([np.zeros(n), list(zeta[r] for r in riders)]),
               integrality=np.concatenate([np.zeros(n), np.ones(n_r)]),
               bounds=Bounds(0.0, 1.0),
               constraints=[LinearConstraint(degree,
                                             np.r_[np.full(n_d, -np.inf), np.zeros(n_r)],
                                             np.r_[np.ones(n_d), np.zeros(n_r)]),
                            LinearConstraint(welfare[None, :], 0.0, np.inf)],
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    if welfare @ res.x < -TOL:
        raise RuntimeError("reference MILP violates the welfare floor")
    matched = sorted(r for r, j in riders.items() if res.x[n + j] > 0.5)
    return float(sum(zeta[r] for r in matched))


def _ordered_sum(edges, attr: str) -> float:
    return float(sum(getattr(e, attr) for e in sorted(edges, key=lambda e: e.pair)))


def _money(x: float) -> str:
    # round() first so -1e-12 and 1e-12 both print as 0.000000000
    return f"{round(x, 9) + 0.0:.9f}"


def priced_digest(settlement) -> str:
    """Digest of the priced matches at 9 decimals, order-independent."""
    rows = sorted((m.driver, m.rider, _money(m.P_d), _money(m.P_r),
                   _money(m.rho_d), _money(m.rho_r), _money(m.q_d),
                   _money(m.q_r), _money(m.share_d), _money(m.share_r))
                  for m in settlement.priced)
    doc = json.dumps([rows, _money(settlement.revenue)])
    return hashlib.sha256(doc.encode()).hexdigest()


def check_settlement(problem, settlement, mechanism: str, reference: float,
                     digest: str | None = None,
                     marginals: dict | None = None) -> list[str]:
    """Names of the checks a settled market fails; empty when it passes.

    matching: one-to-one on existing edges, priced pairs equal chosen pairs.
    welfare_floor: (ds) total welfare >= -1e-9.
    objective: the matching's objective equals the reference within 1e-9.
    prices: (given reference removal marginals) each pivot bonus (vcg) or
    welfare share (ds) equals the one they imply within 1e-9.
    digest: the priced matches equal those recorded at the seed commit.
    """
    failed = []
    chosen = settlement.solution.chosen
    by_pair = {e.pair: e for e in problem.edges}
    drivers = [e.driver for e in chosen]
    riders = [e.rider for e in chosen]
    if (any(by_pair.get(e.pair) != e for e in chosen)
            or len(set(drivers)) != len(drivers)
            or len(set(riders)) != len(riders)
            or sorted((m.driver, m.rider) for m in settlement.priced)
            != sorted(e.pair for e in chosen)):
        failed.append("matching")
    if mechanism == "ds" and sum(e.sigma for e in chosen) < -TOL:
        failed.append("welfare_floor")
    attr = "sigma" if mechanism == "vcg" else "zeta"
    value = _ordered_sum(chosen, attr)
    if (abs(value - reference) > TOL
            or abs(settlement.solution.objective_value - value) > TOL):
        failed.append("objective")
    if marginals is not None and not _prices_match(settlement, mechanism,
                                                   reference, marginals):
        failed.append("prices")
    if digest is not None and priced_digest(settlement) != digest:
        failed.append("digest")
    return failed


def _prices_match(settlement, mechanism: str, reference: float,
                  marginals: dict) -> bool:
    """Compare rho (vcg) or shares (ds) with those the marginals imply."""
    got = {}
    for m in settlement.priced:
        if mechanism == "vcg":
            got[m.driver], got[m.rider] = m.rho_d, m.rho_r
        else:
            got[m.driver], got[m.rider] = m.share_d, m.share_r
    want = {p: reference - marginals.get(p, float("nan")) for p in got}
    if mechanism == "ds":
        total = sum(want.values())
        want = {p: (d / total if total > TOL else 1.0 / len(want))
                for p, d in want.items()}
    return all(abs(got[p] - want[p]) <= TOL for p in got)


def kpi_digest(report) -> str:
    """Digest of a run's KPI rows and event log, the byte-identical contract."""
    from senseauction.simengine import event_log_lines, kpi_rows
    text = "\n".join(",".join(str(v) for v in row) for row in kpi_rows(report))
    text += "\n" + "\n".join(event_log_lines(report))
    return hashlib.sha256(text.encode()).hexdigest()
