"""Phase-space cells and statistical experiments on the geodesic flow.

Cells are axis-aligned position bins of a face's bounding box crossed with
direction sectors; membership is exact per trace segment, so hit times are
computed without sampling the flow in time.  All randomness is drawn from
per-sample seeded generators, making every report reproducible regardless of
scheduling.

`hit_times`, and so `transitivity_scan`, traces all samples of a scan at once
with the batched stepper `tracer._trace_batch` and clips its segments against
the target cell as arrays; a path that met a cone marks no bin unless it is
the last attempt's.  The result is bit-equal to tracing each sample with
`tracer.trace`, the reference the tests compare it with.  The other
experiments trace with `trace`.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError
from .geom import TWO_PI, clip_convex, norm_angle, signed_area
from .surface import ConeSurface
from .tracer import TangentState, _trace_batch, min_cone_distance_profile, trace

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
        """The position box in the face's chart; ValueError for a cell off the grid of s."""
        if not (
            0 <= self.face < len(s.faces)
            and 0 <= self.ix < NX
            and 0 <= self.iy < NY
            and 0 <= self.idir < NDIR
        ):
            raise ValueError(
                f"cell {self.face},{self.ix},{self.iy},{self.idir} is not on the"
                f" {NX}x{NY}x{NDIR} grid of a face of the surface"
            )
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


def cell_region(s: ConeSurface, cell: PhaseCell):
    """Intersection polygon of the cell's box with its face (possibly empty).

    Raises ValueError for a cell off the grid, as `PhaseCell.box` does.
    """
    box = cell.box(s)
    return clip_convex(s.faces[cell.face], box)


def _cdf(weights) -> list[float]:
    """Cumulative shares of the weights as `Generator.choice(p=shares)` builds them:
    `bisect_right(cdf, rng.random())` picks as choice does, without its checks of p."""
    shares = np.array(weights, dtype=float)
    cdf = (shares / shares.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _fan(poly):
    """Fan triangles of a convex polygon and the `_cdf` of their areas."""
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    return tris, _cdf([abs(signed_area(list(t))) for t in tris])


def _uniform_point(fan, rng) -> tuple[float, float]:
    """Uniform point of a convex polygon given by its `_fan`: a triangle by area, then two uniforms."""
    tris, cdf = fan
    k = bisect_right(cdf, rng.random())
    a, b, c = tris[k]
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    x = a[0] + u * (b[0] - a[0]) + v * (c[0] - a[0])
    y = a[1] + u * (b[1] - a[1]) + v * (c[1] - a[1])
    return x, y


def _cell_sampler(s: ConeSurface, cell: PhaseCell):
    """Draw function of `sample_cell` for one cell, with its region and fan computed once."""
    region = cell_region(s, cell)
    if len(region) < 3 or abs(signed_area(region)) < 1e-15:
        raise EmptyCellError(f"cell {cell} does not meet face {cell.face}")
    fan = _fan(region)
    d0, d1 = cell.dir_interval()

    def draw(rng) -> TangentState:
        x, y = _uniform_point(fan, rng)
        direction = d0 + rng.random() * (d1 - d0)
        return TangentState(cell.face, x, y, norm_angle(direction))

    return draw


def sample_cell(s: ConeSurface, cell: PhaseCell, rng) -> TangentState:
    """Uniform sample of (position, direction) in the cell; deterministic per generator.

    Raises ValueError for a cell off the grid and EmptyCellError for a cell
    that does not meet its face.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return _cell_sampler(s, cell)(rng)


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


def _box_interval(st, box):
    """Slab clip of every segment of a `tracer._Steps` against the box.

    Returns (lo, hi, meets): the arc-length interval [lo, hi] of each segment
    inside the box, valid where `meets` is True.
    """
    x0, y0, x1, y1 = box
    lo = np.zeros_like(st.length)
    hi = st.length
    meets = np.ones(lo.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p, u, lo_w, hi_w in ((st.x, st.dx, x0, x1), (st.y, st.dy, y0, y1)):
            flat = np.abs(u) < 1e-300
            meets &= ~flat | ((lo_w <= p) & (p <= hi_w))
            t0 = (lo_w - p) / u
            t1 = (hi_w - p) / u
            t0, t1 = np.where(t0 > t1, t1, t0), np.where(t0 > t1, t0, t1)
            lo = np.where(~flat & (t0 > lo), t0, lo)
            hi = np.where(~flat & (t1 < hi), t1, hi)
            meets &= ~(lo > hi)
    return lo, hi, meets


def hit_times(
    s: ConeSurface,
    cell_o: PhaseCell,
    cell_u: PhaseCell,
    horizon: float,
    dt: float,
    n_samples: int,
    seed: int = 0,
) -> MixingReport:
    """Mark the time bins in which some flow sample from O visits U.

    Sample i is drawn from O by `sample_cell` with the generator seeded
    [seed, i, attempt] and traced for `horizon`.  A sample that meets a cone
    point is drawn again with attempt + 1, and each such draw counts as a
    cone discard; after MAX_ATTEMPTS draws the last, short path is kept.  A
    sample marks every bin [k dt, (k+1) dt) in which one of its segments lies
    in U's box with a direction in U's sector.

    All pending samples of an attempt are traced as one batch by
    `tracer._trace_batch`, and its segments are clipped against U's box as
    arrays.  While the batch runs, each stretch a path spends in U is noted
    by (row, first bin, last bin); once it ends, the stretches of the paths
    that met no cone mark their bins, and so do all of the last attempt's.
    The report is bit-equal to tracing each sample with `tracer.trace`, which
    the tests use as the reference.  Raises ValueError for a horizon or dt
    that is not positive and finite, a non-positive n_samples, and a cell
    that is not on the NX x NY x NDIR grid of a face of the surface.
    """
    if not (0 < horizon < math.inf and 0 < dt < math.inf and n_samples > 0):
        raise ValueError("horizon and dt must be positive and finite, n_samples positive")
    nbins = math.ceil(horizon / dt)
    draw = _cell_sampler(s, cell_o)
    box = cell_u.box(s)
    d0, d1 = cell_u.dir_interval()
    # +1 where a range of visited bins starts, -1 just past its end
    marks = np.zeros(nbins + 1, dtype=np.int64)

    discards = 0
    pending = list(range(n_samples))
    for attempt in range(MAX_ATTEMPTS):
        states = (draw(np.random.default_rng([seed, i, attempt])) for i in pending)
        length = np.empty(len(pending))
        stretches = []  # (rows, first bins, last bins) of each step's visits to U
        for st in _trace_batch(s, states, horizon):
            np.copyto(length, st.arc + st.length, where=st.run)
            lo, hi, meets = _box_interval(st, box)
            meets &= st.run & (st.face == cell_u.face) & (d0 <= st.direction) & (st.direction <= d1)
            if meets.any():
                rows = np.flatnonzero(meets)
                arc = st.arc[rows]
                first = ((arc + lo[rows]) / dt).astype(np.int64)
                last = ((arc + hi[rows]) / dt).astype(np.int64)
                stretches.append((rows, first, last))
        short = length < horizon - 1e-9
        discards += int(short.sum())  # each path that met a cone
        final = attempt == MAX_ATTEMPTS - 1 or not short.any()
        if stretches:
            rows, first, last = (np.concatenate(a) for a in zip(*stretches))
            keep = first < nbins
            if not final:  # a path that met a cone is drawn again and marks nothing
                keep &= ~short[rows]
            np.add.at(marks, first[keep], 1)
            np.add.at(marks, np.minimum(last[keep], nbins - 1) + 1, -1)
        if final:
            break  # the last attempt keeps its short paths
        pending = [pending[i] for i in np.flatnonzero(short).tolist()]
    hits = np.cumsum(marks[:nbins]) > 0
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


def _state_sampler(s: ConeSurface):
    """Draw function of `random_state`, with the face table and the faces' fans computed once."""
    cdf, fans = _cdf([signed_area(f) for f in s.faces]), [_fan(f) for f in s.faces]

    def draw(rng) -> TangentState:
        face = bisect_right(cdf, rng.random())
        return TangentState(face, *_uniform_point(fans[face], rng), rng.random() * TWO_PI)

    return draw


def random_state(s: ConeSurface, rng) -> TangentState:
    """Uniform random unit tangent vector (area-weighted face, uniform direction)."""
    return _state_sampler(s)(rng)


def cone_approach_experiment(s: ConeSurface, n_trajectories: int, length: float, seed: int = 0):
    """Final running-minimum cone distance of random trajectories.

    Returns (rows, quantiles): rows are (trajectory id, final running min);
    a trajectory that hits a cone point scores zero.  Raises ValueError for
    fewer than one trajectory or a length that is negative or not finite.
    """
    if not (n_trajectories >= 1 and 0 <= length < math.inf):
        raise ValueError("n_trajectories must be positive and length finite and nonnegative")
    rows = []
    draw = _state_sampler(s)
    for i in range(n_trajectories):
        path = trace(s, draw(np.random.default_rng([seed, i])), length)
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
