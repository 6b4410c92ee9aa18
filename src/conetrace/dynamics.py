"""Phase-space cells and statistical experiments on the geodesic flow.

Cells are axis-aligned position bins of a face's bounding box crossed with
direction sectors; membership is exact per trace segment, so hit times are
computed without sampling the flow in time.  All randomness is drawn from
per-sample seeded generators, making every report reproducible regardless of
scheduling: sample i of a scan is the state that `sample_cell` draws from
`default_rng([seed, i, attempt])`, computed for all samples at once as arrays.

`hit_times`, and so `transitivity_scan`, traces all samples of a scan at once
with the batched stepper `tracer._trace_batch` and clips its segments against
the target cell as arrays; a path that met a cone marks no bin unless it is
the last attempt's.  The result is bit-equal to tracing each sample with
`tracer.trace`, the reference the tests compare it with.  The other
experiments trace with `trace`.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError, NoConePointsError
from .geom import TWO_PI, clip_convex, signed_area
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


def _cdf(weights) -> np.ndarray:
    """Cumulative shares of the weights as `Generator.choice(p=shares)` builds them:
    `searchsorted(cdf, u, side="right")` picks as choice does, without its checks of p."""
    shares = np.array(weights, dtype=float)
    cdf = (shares / shares.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _fan(poly):
    """`_cdf` of the areas of a convex polygon's fan triangles (a, b, c), and their
    (ax, ay, bx - ax, by - ay, cx - ax, cy - ay) as a (6, triangles) array."""
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    rows = [(a[0], a[1], b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]) for a, b, c in tris]
    return _cdf([abs(signed_area(list(t))) for t in tris]), np.array(rows).T


def _cell_fan(s: ConeSurface, cell: PhaseCell):
    """`_fan` of the cell's region; EmptyCellError for a cell that does not meet its face."""
    region = cell_region(s, cell)
    if len(region) < 3 or abs(signed_area(region)) < 1e-15:
        raise EmptyCellError(f"cell {cell} does not meet face {cell.face}")
    return _fan(region)


def _states(fans, face, u, d0: float, d1: float):
    """(face, x, y, direction) arrays of the states that the rows (u0, u1, u2, u3)
    of u draw: a triangle of `fans[face]` by area with u0, a uniform point of it
    with u1 and u2, and d0 + u3 (d1 - d0) reduced as `norm_angle` does."""
    x, y = np.empty(len(u)), np.empty(len(u))
    for f, (cdf, tris) in fans.items():
        rows = np.flatnonzero(face == f)
        ax, ay, bx, by, cx, cy = tris[:, np.searchsorted(cdf, u[rows, 0], side="right")]
        a, b = u[rows, 1], u[rows, 2]
        flip = a + b > 1.0
        a, b = np.where(flip, 1.0 - a, a), np.where(flip, 1.0 - b, b)
        x[rows] = ax + a * bx + b * cx
        y[rows] = ay + a * by + b * cy
    return face, x, y, np.fmod(d0 + u[:, 3] * (d1 - d0), TWO_PI)


def sample_cell(s: ConeSurface, cell: PhaseCell, rng: np.random.Generator) -> TangentState:
    """Uniform sample of (position, direction) in the cell; deterministic per generator.

    The sample is `_states` of the generator's next four doubles; `hit_times`
    computes sample i of an attempt as this draw from `default_rng([seed, i,
    attempt])`, for all samples at once as arrays.  Raises ValueError for a
    cell off the grid and EmptyCellError for a cell that does not meet its face.
    """
    fans = {cell.face: _cell_fan(s, cell)}
    st = _states(fans, np.full(1, cell.face), rng.random((1, 4)), *cell.dir_interval())
    return TangentState(*(c.item() for c in st))


def _seeded_uniforms(seed, rows, attempt: int, k: int) -> np.ndarray:
    """(len(rows), k) doubles; the row of i is `np.random.default_rng([seed, i,
    attempt]).random(k)` bit for bit, for rows and attempts below 2**32.

    SeedSequence hashes the entropy words into a pool of four and expands it
    to PCG64's seed and increment, in uint32 arithmetic held in uint64 arrays.
    PCG64 (O'Neill 2014) steps a 128-bit LCG, here as 64-bit halves with an
    explicit carry, and a double is the top 53 bits of its XSL-RR output.
    ValueError for a negative seed, TypeError for one that is not an integer,
    as `default_rng` raises.
    """
    m32 = 0xFFFFFFFF
    const = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal const
        v = (v ^ const) * (const := const * mult & m32) & m32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ r >> 16

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    rows = np.asarray(rows, dtype=np.uint64)  # entropy: 32-bit words of seed, row, attempt
    entropy = [seed >> b & m32 for b in range(0, max(seed.bit_length(), 1), 32)] + [rows, attempt]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = 0x8B51F9DD  # generate_state(4, uint64): eight words, paired low | high << 32
    words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1

    def step(hi, lo):  # state * multiplier + inc modulo 2**128, in 64-bit halves
        l0, l1 = lo & m32, lo >> 32  # lo times the multiplier's low half, by 32-bit parts
        p01, p10 = l0 * 0x4385DF64, l1 * 0x9FCCF645
        mid = (l0 * 0x9FCCF645 >> 32) + (p01 & m32) + (p10 & m32)
        hi = (l1 * 0x4385DF64 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + lo * 0x2360ED051FC65DA4 + hi * 0x4385DF649FCCF645 + inc_hi)
        lo = lo * 0x4385DF649FCCF645
        out = lo + inc_lo
        return hi + (out < lo), out

    lo = inc_lo + seed_lo  # from state 0: one step, the seed added, one more step
    hi, lo = step(inc_hi + seed_hi + (lo < inc_lo), lo)
    out = np.empty((len(rows), k))
    for j in range(k):
        hi, lo = step(hi, lo)
        v, rot = hi ^ lo, hi >> 58
        out[:, j] = ((v >> rot | v << (64 - rot & 63)) >> 11) * 2.0**-53
    return out


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
    exhausted: int  # samples whose MAX_ATTEMPTS draws all met a cone: their path is short


def _box_interval(st, box):
    """Slab clip of every segment of a `tracer._Steps` against the box.

    Returns (lo, hi, meets): the arc-length interval [lo, hi] of each segment
    inside the box, valid where `meets` is True; a zero bound has either sign.
    """
    x0, y0, x1, y1 = box
    lo = np.zeros_like(st.length)
    hi = st.length
    with np.errstate(divide="ignore", invalid="ignore"):
        for p, u, lo_w, hi_w in ((st.x, st.dx, x0, x1), (st.y, st.dy, y0, y1)):
            t0 = (lo_w - p) / u
            t1 = (hi_w - p) / u
            flat = np.abs(u) < 1e-300
            if flat.any():  # a flat axis clips nothing, or everything when p is outside
                t0 = np.where(flat, np.where((lo_w <= p) & (p <= hi_w), -np.inf, np.inf), t0)
                t1 = np.where(flat, np.inf, t1)
            # lo only grows and hi only shrinks, so lo > hi after one axis stays so
            lo = np.maximum(lo, np.minimum(t0, t1))
            hi = np.minimum(hi, np.maximum(t0, t1))
    return lo, hi, lo <= hi


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
    cone discard; after MAX_ATTEMPTS draws the last, short path is kept and
    the sample counts as exhausted.  A sample marks every bin [k dt, (k+1) dt)
    in which one of its segments lies in U's box with a direction in U's
    sector.

    The pending samples of an attempt are drawn as arrays, the generators'
    doubles by `_seeded_uniforms` and the states from them by `_states`, and
    traced as one batch by `tracer._trace_batch`, whose rows, one per path
    still running, are clipped against U's box as arrays.  Each row notes its
    path's length so far and the stretch it spends in U, as (lane, first bin,
    last bin); once the batch ends, the stretches of the paths that met no
    cone mark their bins, and so do all of the last attempt's.  The report is
    bit-equal to tracing each sample with `tracer.trace`, the tests'
    reference.  Raises ValueError for a horizon or dt that is not positive
    and finite, a non-positive n_samples, a negative seed, and a cell that is
    not on the NX x NY x NDIR grid of a face of the surface; TypeError for a
    seed that is not an int.
    """
    if not (0 < horizon < math.inf and 0 < dt < math.inf and n_samples > 0):
        raise ValueError("horizon and dt must be positive and finite, n_samples positive")
    nbins = math.ceil(horizon / dt)
    fans = {cell_o.face: _cell_fan(s, cell_o)}
    box = cell_u.box(s)
    d0, d1 = cell_u.dir_interval()
    # +1 where a range of visited bins starts, -1 just past its end
    marks = np.zeros(nbins + 1, dtype=np.int64)

    discards = 0
    pending = np.arange(n_samples)
    for attempt in range(MAX_ATTEMPTS):
        u = _seeded_uniforms(seed, pending, attempt, 4)
        states = _states(fans, np.full(len(pending), cell_o.face), u, *cell_o.dir_interval())
        length = np.empty(len(pending))
        stretches = []  # (lanes, first bins, last bins) of each step's visits to U
        for st in _trace_batch(s, states, horizon):
            length[st.lane] = st.arc + st.length
            lo, hi, meets = _box_interval(st, box)
            meets &= (st.face == cell_u.face) & (d0 <= st.direction) & (st.direction <= d1)
            if meets.any():
                rows = np.flatnonzero(meets)
                arc = st.arc[rows]
                first = ((arc + lo[rows]) / dt).astype(np.int64)
                last = ((arc + hi[rows]) / dt).astype(np.int64)
                stretches.append((st.lane[rows], first, last))
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
        pending = pending[short]
    exhausted = int(short.sum())  # nonzero only when the last attempt ends the loop
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
        cell_o, cell_u, horizon, dt, hits, first_hit, t0_estimate, n_samples, discards, exhausted
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
    cdf, fans = _cdf([signed_area(f) for f in s.faces]), dict(enumerate(map(_fan, s.faces)))

    def draw(rng) -> TangentState:
        u = rng.random((1, 5))  # a face by area, then `_states` in that face
        face = np.searchsorted(cdf, u[:, 0], side="right")
        return TangentState(*(c.item() for c in _states(fans, face, u[:, 1:], 0.0, TWO_PI)))

    return draw


def random_state(s: ConeSurface, rng) -> TangentState:
    """Uniform random unit tangent vector (area-weighted face, uniform direction)."""
    return _state_sampler(s)(rng)


def cone_approach_experiment(s: ConeSurface, n_trajectories: int, length: float, seed: int = 0):
    """Final running-minimum cone distance of random trajectories.

    Returns (rows, quantiles): rows are (trajectory id, final running min);
    a trajectory that hits a cone point scores zero.  Raises NoConePointsError
    on a surface without conical points, and ValueError for fewer than one
    trajectory or a length that is negative or not finite.
    """
    if not s.conical_classes:
        raise NoConePointsError("surface has no conical points")
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
