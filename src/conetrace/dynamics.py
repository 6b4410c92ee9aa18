"""Phase-space cells and statistical experiments on the geodesic flow.

Cells are axis-aligned position bins of a face's bounding box crossed with
direction sectors; membership is exact per trace segment, so hit times are
computed without sampling the flow in time.  All randomness is drawn from
per-sample seeded generators, making every report reproducible regardless of
scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError
from .geom import TWO_PI, clip_convex, norm_angle, signed_area
from .surface import ConeSurface
from .tracer import GeodesicPath, TangentState, min_cone_distance_profile, trace

# a face's bounding box is cut into NX x NY position boxes, the circle into NDIR sectors
NX = 16
NY = 16
NDIR = 64
MAX_ATTEMPTS = 64  # draws per flow sample; when every one hits a cone, the last is kept
HIT_FRACTION = 0.9  # share of time bins on [t0, horizon] that t0_estimate asks for


@dataclass(frozen=True)
class PhaseCell:
    """A bin of the unit tangent bundle: face x position box x direction sector."""

    face: int
    ix: int
    iy: int
    idir: int

    def box(self, s: ConeSurface):
        xs = [p[0] for p in s.faces[self.face]]
        ys = [p[1] for p in s.faces[self.face]]
        wx = (max(xs) - min(xs)) / NX
        wy = (max(ys) - min(ys)) / NY
        x0 = min(xs) + self.ix * wx
        y0 = min(ys) + self.iy * wy
        return (x0, y0, x0 + wx, y0 + wy)

    def dir_interval(self):
        w = TWO_PI / NDIR
        return (self.idir * w, (self.idir + 1) * w)

    def contains(self, s: ConeSurface, st: TangentState) -> bool:
        if st.face != self.face:
            return False
        x0, y0, x1, y1 = self.box(s)
        if not (x0 <= st.x <= x1 and y0 <= st.y <= y1):
            return False
        d0, d1 = self.dir_interval()
        d = norm_angle(st.direction)
        return d0 <= d <= d1


def cell_region(s: ConeSurface, cell: PhaseCell):
    """Intersection polygon of the cell's box with its face (possibly empty)."""
    return clip_convex(s.faces[cell.face], cell.box(s))


def _uniform_point(poly, rng) -> tuple[float, float]:
    """Uniform point of a convex polygon: a fan triangle by area, then two uniforms."""
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    areas = np.array([abs(signed_area(list(t))) for t in tris])
    k = int(rng.choice(len(tris), p=areas / areas.sum()))
    a, b, c = tris[k]
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    x = a[0] + u * (b[0] - a[0]) + v * (c[0] - a[0])
    y = a[1] + u * (b[1] - a[1]) + v * (c[1] - a[1])
    return x, y


def sample_cell(s: ConeSurface, cell: PhaseCell, rng) -> TangentState:
    """Uniform sample of (position, direction) in the cell; deterministic per generator."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    region = cell_region(s, cell)
    if len(region) < 3 or abs(signed_area(region)) < 1e-15:
        raise EmptyCellError(f"cell {cell} does not meet face {cell.face}")
    x, y = _uniform_point(region, rng)
    d0, d1 = cell.dir_interval()
    direction = d0 + rng.random() * (d1 - d0)
    return TangentState(cell.face, x, y, norm_angle(direction))


@dataclass
class MixingReport:
    cell_o: PhaseCell
    cell_u: PhaseCell
    horizon: float
    dt: float
    hit_bins: np.ndarray
    first_hit: float | None
    t0_estimate: float | None
    samples_used: int
    cone_discards: int


def _segment_hits(s, cell: PhaseCell, path: GeodesicPath, dt: float, nbins: int, hits):
    """Mark every time bin during which the path sits inside the cell."""
    x0, y0, x1, y1 = cell.box(s)
    d0, d1 = cell.dir_interval()
    arc = 0.0
    for seg in path.segments:
        if seg.face == cell.face and d0 <= seg.direction <= d1:
            lo, hi = _slab_clip(seg, x0, y0, x1, y1)
            if lo is not None:
                b0 = int((arc + lo) / dt)
                b1 = int((arc + hi) / dt)
                if b0 < nbins:
                    hits[b0 : min(b1, nbins - 1) + 1] = True
        arc += seg.length
    return hits


def _slab_clip(seg, x0, y0, x1, y1):
    """Arc-length interval of the segment inside the box, or (None, None)."""
    px, py = seg.entry
    ux, uy = math.cos(seg.direction), math.sin(seg.direction)
    lo, hi = 0.0, seg.length
    for p, u, lo_w, hi_w in ((px, ux, x0, x1), (py, uy, y0, y1)):
        if abs(u) < 1e-300:
            if not lo_w <= p <= hi_w:
                return None, None
            continue
        t0 = (lo_w - p) / u
        t1 = (hi_w - p) / u
        if t0 > t1:
            t0, t1 = t1, t0
        lo = max(lo, t0)
        hi = min(hi, t1)
        if lo > hi:
            return None, None
    return lo, hi


def _sample_trace(s, cell, horizon, seed, sample_idx):
    """Trace one sample from the cell, resampling cone hits; returns (path, discards)."""
    discards = 0
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, sample_idx, attempt])
        st = sample_cell(s, cell, rng)
        path = trace(s, st, horizon)
        if path.length >= horizon - 1e-9:
            return path, discards
        discards += 1
    return path, discards


def hit_times(
    s: ConeSurface,
    cell_o: PhaseCell,
    cell_u: PhaseCell,
    horizon: float,
    dt: float,
    n_samples: int,
    seed: int = 0,
) -> MixingReport:
    """Mark the time bins in which some flow sample from O visits U."""
    if horizon <= 0 or dt <= 0 or n_samples <= 0:
        raise ValueError("horizon, dt and n_samples must be positive")
    nbins = math.ceil(horizon / dt)
    hits = np.zeros(nbins, dtype=bool)
    discards = 0
    for i in range(n_samples):
        path, d = _sample_trace(s, cell_o, horizon, seed, i)
        discards += d
        _segment_hits(s, cell_u, path, dt, nbins, hits)
    first_hit = None
    idx = np.flatnonzero(hits)
    if idx.size:
        first_hit = idx[0] * dt
    t0_estimate = None
    # smallest t0 with hit fraction >= HIT_FRACTION on [t0, horizon]
    rev = hits[::-1]
    frac = np.cumsum(rev) / np.arange(1, nbins + 1)
    ok = np.flatnonzero(frac[::-1] >= HIT_FRACTION)
    if ok.size:
        t0_estimate = ok[0] * dt
    return MixingReport(
        cell_o, cell_u, horizon, dt, hits, first_hit, t0_estimate, n_samples, discards
    )


@dataclass
class TransitivityResult:
    times: list[float]
    success: bool
    reason: str | None
    report: MixingReport


def transitivity_scan(
    s: ConeSurface,
    cell_o: PhaseCell,
    cell_u: PhaseCell,
    horizon: float,
    dt: float,
    n_samples: int,
    seed: int = 0,
) -> TransitivityResult:
    """Increasing sequence of visit times; success requires hits in the last quarter."""
    report = hit_times(s, cell_o, cell_u, horizon, dt, n_samples, seed)
    idx = np.flatnonzero(report.hit_bins)
    times = [(k + 0.5) * dt for k in idx]
    success = any(t >= 0.75 * horizon for t in times)
    reason = None
    if not success:
        reason = "no-hit"
        if not times and cell_o.face == cell_u.face:
            bo, bu = cell_o.box(s), cell_u.box(s)
            co = (0.5 * (bo[0] + bo[2]), 0.5 * (bo[1] + bo[3]))
            cu = (0.5 * (bu[0] + bu[2]), 0.5 * (bu[1] + bu[3]))
            diam_o = math.hypot(bo[2] - bo[0], bo[3] - bo[1])
            diam_u = math.hypot(bu[2] - bu[0], bu[3] - bu[1])
            lower = math.dist(co, cu) - 0.5 * (diam_o + diam_u)
            if lower > horizon:
                reason = "distance"
    return TransitivityResult(times, success, reason, report)


def random_state(s: ConeSurface, rng) -> TangentState:
    """Uniform random unit tangent vector (area-weighted face, uniform direction)."""
    areas = np.array([signed_area(f) for f in s.faces])
    face = int(rng.choice(len(s.faces), p=areas / areas.sum()))
    x, y = _uniform_point(s.faces[face], rng)
    return TangentState(face, x, y, rng.random() * TWO_PI)


def cone_approach_experiment(s: ConeSurface, n_trajectories: int, length: float, seed: int = 0):
    """Final running-minimum cone distance of random trajectories.

    Returns (rows, quantiles): rows are (trajectory id, final running min);
    a trajectory that hits a cone point scores zero.
    """
    rows = []
    for i in range(n_trajectories):
        rng = np.random.default_rng([seed, i])
        st = random_state(s, rng)
        path = trace(s, st, length)
        if length > 0 and path.length < length - 1e-9:
            rows.append((i, 0.0))
            continue
        profile = min_cone_distance_profile(s, path)
        rows.append((i, profile[-1][1] if profile else math.inf))
    finals = np.array([r[1] for r in rows])
    quantiles = {
        q: float(np.quantile(finals, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)
    }
    return rows, quantiles
