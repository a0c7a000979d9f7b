"""Spatio-temporal sensing-utility model.

Per-cell sensing quality is N^lambda with 0 < lambda < 1, so each extra visit
to a cell is worth less than the previous one. Coverage counts accumulate
within a sensing interval and reset when the interval advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SensingParams:
    exponent: float = 0.2          # concavity of per-cell quality
    temporal_weights: np.ndarray | None = None   # per interval, sums to 1
    spatial_weights: np.ndarray | None = None    # per cell, sums to 1

    def __post_init__(self):
        if not 0 < self.exponent < 1:
            raise ConfigurationError(f"exponent must be in (0,1), got {self.exponent}")
        for name in ("temporal_weights", "spatial_weights"):
            w = getattr(self, name)
            if w is not None:
                w = np.asarray(w, dtype=float)
                if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                    raise ConfigurationError(f"{name} must be non-negative and sum to 1")
                object.__setattr__(self, name, w)


def _weights(explicit: np.ndarray | None, n: int, what: str) -> np.ndarray:
    if explicit is None:
        return np.full(n, 1.0 / n)
    if explicit.size != n:
        raise ConfigurationError(f"{what} has {explicit.size} entries, expected {n}")
    return explicit


@dataclass
class CoverageState:
    """Per-(interval, cell) committed-trip counts for one simulation run."""
    n_cells: int
    n_intervals: int
    counts: np.ndarray = field(init=False)   # (n_intervals, n_cells) ints
    current_interval: int = 0

    def __post_init__(self):
        self.counts = np.zeros((self.n_intervals, self.n_cells), dtype=np.int64)

    def advance_interval(self) -> None:
        self.current_interval += 1


def sensing_quality(params: SensingParams, n: int) -> float:
    if n < 0:
        raise ConfigurationError("visit count must be non-negative")
    return float(n) ** params.exponent


def total_sensing_utility(params: SensingParams, state: CoverageState) -> float:
    """Weighted quality over all intervals and cells."""
    mu = _weights(params.temporal_weights, state.n_intervals, "temporal_weights")
    w = _weights(params.spatial_weights, state.n_cells, "spatial_weights")
    quality = state.counts.astype(float) ** params.exponent
    return float(mu @ quality @ w)


def marginal_gain(params: SensingParams, state: CoverageState,
                  route_cells) -> float:
    """Sensing externality of one extra trip over route_cells, unweighted.

    Evaluated against the counts committed so far in the current interval;
    strictly positive for any non-empty route.
    """
    counts = state.counts[state.current_interval]
    lam = params.exponent
    gain = 0.0
    for g in route_cells:
        n = counts.item(g)    # a Python int: numpy scalar arithmetic is slow
        gain += (n + 1.0) ** lam - float(n) ** lam
    return gain


def commit_route(state: CoverageState, route_cells,
                 interval: int | None = None) -> None:
    """Record a matched trip's scheduled coverage; increments apply immediately."""
    t = state.current_interval if interval is None else interval
    for g in route_cells:
        state.counts[t, g] += 1


def coverage_rate(state: CoverageState, through_interval: int | None = None) -> float:
    """Mean fraction of cells visited at least once per interval."""
    last = state.current_interval if through_interval is None else through_interval
    covered = (state.counts[:last + 1] >= 1).mean(axis=1)
    return float(covered.mean())
