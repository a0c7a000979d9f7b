"""Meshed study area: demand densities, routing, order prospect, opportunity cost.

The world is a rows x cols mesh of square cells. Cell ids run row-major,
id = row * cols + col, with cell (0, 0) in the lower-left corner. Points are
continuous (x, y) coordinates in km; x grows with columns, y with rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, GeometryError

_EPS = 1e-9


@dataclass(frozen=True)
class GridWorld:
    rows: int
    cols: int
    cell_size: float
    densities: np.ndarray        # normalized per-cell trip-demand mass
    centroids: np.ndarray        # (n_cells, 2) centroid coordinates in km
    max_centroid_dist: float     # largest centroid-to-centroid distance
    demand_cdf: np.ndarray       # cumsum of densities over its last entry

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def extent(self) -> tuple[float, float]:
        return self.cols * self.cell_size, self.rows * self.cell_size

    def contains(self, point: tuple[float, float]) -> bool:
        x, y = point
        ex, ey = self.extent
        return -_EPS <= x <= ex + _EPS and -_EPS <= y <= ey + _EPS

    def cell_of(self, point: tuple[float, float]) -> int:
        """Primary cell of a point (boundary points snap toward the origin-side cell)."""
        return int(self.cells_of([point])[0])

    def cells_of(self, points) -> np.ndarray:
        """cell_of for each row of an (n, 2) array of points."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        inside = (p >= -_EPS) & (p <= np.add(self.extent, _EPS))
        if not inside.all():
            point = tuple(p[~inside.all(axis=1)][0].tolist())
            raise GeometryError(f"point {point} outside grid extent {self.extent}")
        col = np.clip(np.floor(p[:, 0] / self.cell_size), 0, self.cols - 1)
        row = np.clip(np.floor(p[:, 1] / self.cell_size), 0, self.rows - 1)
        return (row * self.cols + col).astype(int)

    def centroid_dists(self, points) -> np.ndarray:
        """(n, n_cells) distances from each row of an (n, 2) array of points
        to every centroid: np.linalg.norm(centroids - p, axis=1) for each p,
        in norm's operations (square, add, sqrt), computed in place. norm's
        own sum over an axis of two costs more than the arithmetic."""
        x, y = self.centroids.T
        dx, dy = x - points[:, :1], y - points[:, 1:]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)


@dataclass(frozen=True)
class CellRoute:
    """Ordered, distinct cells traversed by a trip, plus its length in km."""
    cells: tuple[int, ...]
    length: float


@dataclass(frozen=True)
class ProspectModel:
    """Order-prospect field and the piecewise-linear opportunity-cost rule.

    Weights decay linearly with centroid distance, w = 1 - d/M; the cost is
    xi * (p_star - p) below the threshold p_star and zero above it.
    """
    xi: float
    p_star_frac: float
    prospects: np.ndarray    # prospect per cell
    p_min: float
    p_max: float
    low_cells: np.ndarray    # cells at or below the prospects' lower quartile

    @property
    def p_star(self) -> float:
        return self.p_star_frac * self.p_max


def build_grid(rows: int, cols: int, cell_size: float, densities) -> GridWorld:
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid must have at least one row and column")
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise ConfigurationError("cell_size must be finite and positive")
    dens = np.asarray(densities, dtype=float).ravel()
    if dens.size != rows * cols:
        raise ConfigurationError(
            f"expected {rows * cols} densities, got {dens.size}")
    if not np.all(np.isfinite(dens)) or np.any(dens < 0):
        raise ConfigurationError("densities must be finite and non-negative")
    total = dens.sum()
    if total <= 0:
        raise ConfigurationError("total demand density must be positive")
    dens = dens / total

    xs = (np.arange(cols) + 0.5) * cell_size
    ys = (np.arange(rows) + 0.5) * cell_size
    gx, gy = np.meshgrid(xs, ys)
    centroids = np.column_stack([gx.ravel(), gy.ravel()])
    if rows * cols == 1:
        m = cell_size  # degenerate world: avoid division by zero in weights
    else:
        # Subtraction, squares and sqrt are monotone in floats, so the two
        # corner centroids are exactly the farthest pair.
        m = float(np.sqrt(((centroids[-1] - centroids[0]) ** 2).sum()))
    cdf = dens.cumsum()
    return GridWorld(rows=rows, cols=cols, cell_size=float(cell_size),
                     densities=dens, centroids=centroids, max_centroid_dist=m,
                     demand_cdf=cdf / cdf[-1])


def route(world: GridWorld, origin: tuple[float, float],
          dest: tuple[float, float]) -> CellRoute:
    """Supercover traversal of the straight segment from origin to dest.

    Every cell the segment touches is included, in order of first touch;
    corner crossings pull in all cells meeting at the corner.
    """
    for p in (origin, dest):
        if not world.contains(p):
            raise GeometryError(f"point {p} outside grid extent {world.extent}")
    x0, y0 = origin
    x1, y1 = dest
    h = math.hypot(x1 - x0, y1 - y0)
    if h < _EPS:
        return CellRoute(cells=(world.cell_of(origin),), length=0.0)

    ts = {0.0, 1.0}
    cs, n_cols, n_rows = world.cell_size, world.cols, world.rows
    # Only grid lines between the endpoints can be crossed; test those, with
    # one line of margin on each side. A segment along them crosses none.
    for v0, v1, n in ((x0, x1, n_cols), (y0, y1, n_rows)):
        if abs(v1 - v0) < _EPS:
            continue
        lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
        for k in range(max(1, math.floor(lo / cs)), min(n, math.floor(hi / cs) + 2)):
            t = (k * cs - v0) / (v1 - v0)
            if _EPS < t < 1.0 - _EPS:
                ts.add(t)
    ts = sorted(ts)
    # Each span's midpoint, and each interior crossing before the span it
    # opens: corner cells count too.
    points = []
    for i in range(len(ts) - 1):
        if i:
            points.append(ts[i])
        points.append(0.5 * (ts[i] + ts[i + 1]))

    # Each point's cells are those whose closed boundary holds it: both
    # neighbours along an axis where it lies on a grid line (within _EPS),
    # else the one it lies in. Inlined, as route runs once per trip request.
    dx, dy, floor = x1 - x0, y1 - y0, math.floor
    ordered: list[int] = []
    seen: set[int] = set()
    for t in points:
        u, v = (x0 + t * dx) / cs, (y0 + t * dy) / cs
        ku, kv = round(u), round(v)
        if abs(u - ku) < _EPS and 0 < ku < n_cols:
            cols = (ku - 1, ku)
        else:
            c = floor(u)
            cols = (0 if c < 0 else n_cols - 1 if c >= n_cols else c,)
        if abs(v - kv) < _EPS and 0 < kv < n_rows:
            rows = (kv - 1, kv)
        else:
            r = floor(v)
            rows = (0 if r < 0 else n_rows - 1 if r >= n_rows else r,)
        for r in rows:
            for c in cols:
                cell = r * n_cols + c
                if cell not in seen:
                    seen.add(cell)
                    ordered.append(cell)
    return CellRoute(cells=tuple(ordered), length=h)


def order_prospect(world: GridWorld, dest_cell: int) -> float:
    """Weighted demand mass around a destination cell, in [0, 1]."""
    if not 0 <= dest_cell < world.n_cells:
        raise ConfigurationError(f"invalid cell id {dest_cell}")
    return _prospect_rows(world, dest_cell, dest_cell + 1)[0]


# Weights per block of build_prospect_model: 2**15 (256 KB a block array)
# stay in cache. On an 80x80 world that took 0.18 s, 2**18 0.39 s.
_PROSPECT_BLOCK = 2 ** 15


def _prospect_rows(world: GridWorld, lo: int, hi: int) -> list[float]:
    """order_prospect of cells lo..hi-1, from one block of weights. Each row
    keeps its own np.dot: a matrix-vector product may add in another order."""
    w = world.centroid_dists(world.centroids[lo:hi])
    w /= world.max_centroid_dist
    np.subtract(1.0, w, out=w)
    return [float(np.dot(row, world.densities)) for row in w]


def build_prospect_model(world: GridWorld, xi: float,
                         p_star_frac: float) -> ProspectModel:
    if not (math.isfinite(xi) and xi >= 0):
        raise ConfigurationError("xi must be finite and non-negative")
    if not 0.0 <= p_star_frac <= 1.0:
        raise ConfigurationError("p_star_frac must be in [0, 1]")
    n = world.n_cells
    step = max(1, _PROSPECT_BLOCK // n)
    prospects = np.array([p for lo in range(0, n, step)
                          for p in _prospect_rows(world, lo, min(lo + step, n))])
    return ProspectModel(xi=float(xi), p_star_frac=float(p_star_frac),
                         prospects=prospects,
                         p_min=float(prospects.min()), p_max=float(prospects.max()),
                         low_cells=np.flatnonzero(
                             prospects <= np.quantile(prospects, 0.25)))


def opportunity_cost(model: ProspectModel, p: float) -> float:
    """Expected cost of cruising for the next order after a drop-off at prospect p."""
    if p >= model.p_star:
        return 0.0
    return model.xi * (model.p_star - p)


def load_world(source) -> tuple[GridWorld, ProspectModel]:
    """Build a world and prospect model from a JSON document or parsed dict.

    Schema: {rows, cols, cell_size_km, densities: [...], xi, p_star_frac}.
    Densities may be unnormalized.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    try:
        world = build_grid(int(doc["rows"]), int(doc["cols"]),
                           float(doc.get("cell_size_km", 1.0)), doc["densities"])
        model = build_prospect_model(world, float(doc.get("xi", 50.0)),
                                     float(doc.get("p_star_frac", 0.9)))
    except KeyError as exc:
        raise ConfigurationError(f"world document missing field {exc}") from exc
    return world, model
