"""Exact geodesic tracing across face charts.

A trace is straight-line propagation inside each convex face, with chart
changes applied at glued edges.  Hitting a conical vertex (within the capture
radius) always ends a trace, with a ConeHit as its last event; cone_scatter
continues from the hit, and the continuation must keep both side angles at
least pi.

`trace` follows one geodesic and builds its segments and events as
NamedTuples.  It solves exit times only for the edges its ray faces, listed
again when the face or the direction changes.  Every caller uses it except
the transitivity scans of `dynamics.hit_times`, which trace all their
samples at once through the private `_trace_batch`.  That stepper repeats
`trace`'s arithmetic operation for operation on numpy arrays, so each of
its lanes is bit-equal to `trace`, which stays the reference it is tested
against.  Both hand an exit point to `_cone_at` only when it lies in the
box of twice the capture radius about an end of its exit edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ChartMismatchError,
    EventBudgetExceededError,
    InvalidScatterError,
    NotALoopError,
    OutOfWindowError,
)
from .geom import EPS_ANGLE, TWO_PI, PlaneIsometry, ang_diff, norm_angle
from .surface import ConeSurface, SurfacePoint, places_along

if TYPE_CHECKING:
    import numpy as np

MAX_EVENTS = 1_000_000  # events in one trace before EventBudgetExceededError


@dataclass(frozen=True)
class TangentState:
    """A unit tangent vector: face chart, base point, and a direction angle that traces keep
    as `norm_angle` reduces it: in [0, 2*pi), except that -0.0 and exactly 2*pi occur."""

    face: int
    x: float
    y: float
    direction: float


class Segment(NamedTuple):
    face: int
    entry: tuple[float, float]
    exit: tuple[float, float]
    length: float
    direction: float


class EdgeCross(NamedTuple):
    gluing: int
    forward: bool
    placement: PlaneIsometry  # entered chart -> leaving chart
    arc_length: float


class ConeHit(NamedTuple):
    vclass: int
    arc_length: float
    face: int
    vertex: int
    direction: float  # incoming chart direction of travel


@dataclass
class GeodesicPath:
    start: TangentState
    end: TangentState
    segments: list[Segment]
    events: list
    length: float

    @property
    def cone_hits(self):
        return [e for e in self.events if isinstance(e, ConeHit)]

    @property
    def edge_crossings(self):
        return [e for e in self.events if isinstance(e, EdgeCross)]


def _cone_at(s: ConeSurface, face: int, edge: int, qx: float, qy: float):
    """(vclass, vertex) of the cone that captures a path leaving `face` through `edge` at (qx, qy), or None.

    The first endpoint of the edge within `eps_vertex` of the exit point
    decides: a conical endpoint captures the path, a regular one lets it cross.
    """
    ax, ay, _, _, bx, by = s.edge_rows[face][edge]
    if math.hypot(qx - ax, qy - ay) <= s.eps_vertex:
        vidx = edge
    elif math.hypot(qx - bx, qy - by) <= s.eps_vertex:
        vidx = (edge + 1) % len(s.faces[face])
    else:
        return None
    cid = s.vertex_class[(face, vidx)]
    return (cid, vidx) if s.is_conical(cid) else None


def trace(s: ConeSurface, start: TangentState, length: float) -> GeodesicPath:
    """Trace the geodesic from `start` for the given arc length, or to the first cone hit.

    A crossing captured by `_cone_at` ends the trace with a ConeHit.  Raises
    ValueError for a length that is negative or not finite, a start point
    that is not in its face (a face that is not on the surface included), or
    a direction that is not finite.
    """
    if not 0 <= length < math.inf:
        raise ValueError("length must be finite and nonnegative")
    if not s.contains(SurfacePoint(start.face, start.x, start.y)):
        raise ValueError("start point is not inside its face")
    if not math.isfinite(start.direction):
        raise ValueError("start direction is not finite")

    face = start.face
    px, py = start.x, start.y
    d = norm_angle(start.direction)
    dx, dy = math.cos(d), math.sin(d)

    segments: list[Segment] = []
    events: list = []
    arc = 0.0
    remaining = length
    guard = -100.0 * s.eps_geom
    box = 2.0 * s.eps_vertex
    facing = None

    while True:
        if facing is None:  # (edge, ax, ay, nx, ny, denom) of each edge the ray faces
            facing = [(e, ax, ay, nx, ny, denom)
                      for e, (ax, ay, nx, ny, _, _) in enumerate(s.edge_rows[face])
                      if (denom := dx * nx + dy * ny) > 1e-300]
        best_t = math.inf
        best_e = -1
        for e, ax, ay, nx, ny, denom in facing:
            t = ((ax - px) * nx + (ay - py) * ny) / denom
            if guard < t < best_t:
                best_t = t
                best_e = e
        if best_t < 0.0:
            best_t = 0.0

        if best_t >= remaining or best_e < 0:
            qx, qy = px + remaining * dx, py + remaining * dy
            segments.append(Segment(face, (px, py), (qx, qy), remaining, d))
            arc += remaining
            px, py = qx, qy
            break

        qx, qy = px + best_t * dx, py + best_t * dy
        segments.append(Segment(face, (px, py), (qx, qy), best_t, d))
        arc += best_t
        remaining -= best_t

        ax, ay, _, _, bx, by = s.edge_rows[face][best_e]
        if (abs(qx - ax) <= box and abs(qy - ay) <= box) or (
            abs(qx - bx) <= box and abs(qy - by) <= box
        ):
            hit = _cone_at(s, face, best_e, qx, qy)
            if hit is not None:
                events.append(ConeHit(hit[0], arc, face, hit[1], d))
                px, py = qx, qy
                break

        if len(events) >= MAX_EVENTS:
            raise EventBudgetExceededError(f"more than {MAX_EVENTS} events")

        nb = s.neighbours[face][best_e]
        trans = nb.transition
        events.append(EdgeCross(nb.gluing, nb.forward, nb.placement, arc))
        px, py = trans.apply(qx, qy)
        # a translation keeps a direction in (0, 2*pi) bit for bit; -0.0 and
        # 2*pi (which norm_angle can return) turn to 0.0 as apply_dir does
        if trans.rot != 0.0 or not 0.0 < d < TWO_PI:
            d = trans.apply_dir(d)
            dx, dy = math.cos(d), math.sin(d)
            facing = None
        if nb.face != face:
            face = nb.face
            facing = None

    end = TangentState(face, px, py, d)
    return GeodesicPath(start, end, segments, events, arc)


class _Steps(NamedTuple):
    """One step of `_trace_batch`: the next segment of every lane still running.

    Row i belongs to lane `lane[i]`, the index of its start, in increasing
    order; a lane has a row in every step up to the one where its length ends
    or a cone captures it, and none after.  A segment is as `trace` records
    it: chart `face`, entry (x, y), exit (qx, qy), `length` and `direction`,
    with (dx, dy) the cos/sin `trace` uses for that direction and `arc` the
    arc length at the entry.  `cone` is the vertex class of the cone hit that
    ends the segment, or -1, and `vertex` the corner of `face` at that hit;
    in a step without a hit both are one read-only array of -1.  A lane's
    last segment ends at its end state, and `arc + length` there is its path
    length.
    """

    lane: np.ndarray
    face: np.ndarray
    x: np.ndarray
    y: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    length: np.ndarray
    direction: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    arc: np.ndarray
    cone: np.ndarray
    vertex: np.ndarray


def _trace_batch(s: ConeSurface, starts, length: float):
    """Trace the starts (face, x, y, direction), one array each, for `length` at once.

    Yields one `_Steps` per face crossing.  Each step finds the exit edge of
    every running lane with one vectorised ray/edge solve against its face's
    edge rows, then moves the lanes that cross into the next chart.  A lane
    stops at the end of its length or at a cone hit, and the next step drops
    its row.  A lane whose exit point lies near an end of its exit edge is
    handed to `_cone_at`.  Lane i is `trace(s, TangentState(face[i], x[i],
    y[i], direction[i]), length)` operation for operation, with the same
    errors: its segments are that trace's segments bit for bit, and a hit is
    its ConeHit.  The per-face tables are built in each call.
    """
    # imported here so that importing the package loads numpy no earlier than
    # `dynamics` does: loading it first raised the import's peak memory ~2 MB
    import numpy as np

    if not 0 <= length < math.inf:
        raise ValueError("length must be finite and nonnegative")
    face = np.asarray(starts[0], dtype=np.int64)
    px, py, d = (np.asarray(c, dtype=float) for c in starts[1:])
    # edge rows and chart steps of every face, padded to the largest face; a
    # padding edge has a zero normal, so no ray leaves through it
    nf, width = len(s.faces), max(len(f) for f in s.faces)
    rows = np.zeros((6, nf, width))
    steps = np.zeros((5, nf * width))
    enter = np.zeros(nf * width, dtype=np.int64)
    for f in range(nf):
        for e, (row, nb) in enumerate(zip(s.edge_rows[f], s.neighbours[f])):
            rows[:, f, e] = row
            tr = nb.transition
            steps[:, f * width + e] = (tr.c, tr.s, tr.tx, tr.ty, tr.rot)
            enter[f * width + e] = nb.face
    ax, ay, nx, ny = rows[:4]
    corners = rows[[0, 1, 4, 5]].reshape(4, -1)  # (ax, ay, bx, by) by face * width + edge
    # `contains` as arrays: point_in_convex's test of every edge, expression for
    # expression; a padding edge passes a finite point, and NaN or inf fails
    on = (0 <= face) & (face < nf)
    a_x, a_y, b_x, b_y = corners.reshape(4, nf, width).take(np.where(on, face, 0), 1)
    with np.errstate(invalid="ignore"):
        on &= ((b_x - a_x) * (py[:, None] - a_y) - (b_y - a_y) * (px[:, None] - a_x)
               >= -(10 * s.eps_geom)).all(1)
    if not on.all():
        raise ValueError("start point is not inside its face")
    if not np.isfinite(d).all():
        raise ValueError("start direction is not finite")
    d = np.fmod(d, TWO_PI)  # norm_angle
    d = np.where(d < 0.0, d + TWO_PI, d)

    n = len(face)
    lane = np.arange(n)
    dx = np.array([*map(math.cos, d.tolist())])
    dy = np.array([*map(math.sin, d.tolist())])
    arc = np.zeros(n)
    remaining = np.full(n, float(length))
    first_edge = lane * width  # offset of row i in the flattened (rows, width) solve
    no_cone = np.broadcast_to(np.int64(-1), n)  # read-only: a step with a hit copies it
    crossed = 0  # crossings so far, the same for every running lane
    guard = -100.0 * s.eps_geom
    box = 2.0 * s.eps_vertex

    while lane.size:
        m = lane.size
        # t = ((ax - px) nx + (ay - py) ny) / (dx nx + dy ny) per lane and edge,
        # in place in four (lanes, width) arrays
        fn_x, fn_y = nx.take(face, 0), ny.take(face, 0)
        denom = dx[:, None] * fn_x
        t = dy[:, None] * fn_y
        denom += t
        ax.take(face, 0, out=t)
        t -= px[:, None]
        t *= fn_x
        u = ay.take(face, 0, out=fn_x)
        u -= py[:, None]
        u *= fn_y
        t += u
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= denom
        # trace's first strict minimum of guard < t, over edges facing the ray
        t[~((denom > 1e-300) & (t > guard))] = math.inf
        e = t.argmin(axis=1)
        best = t.take(first_edge[:m] + e)
        best = np.where(best < 0.0, 0.0, best)
        ends = best >= remaining  # an inf best is no exit edge
        seg = np.where(ends, remaining, best)
        qx = px + seg * dx
        qy = py + seg * dy
        cone = vertex = no_cone[:m]

        # cone capture: a box of twice the capture radius about either end of
        # the exit edge picks the lanes that `_cone_at` decides
        k = face * width + e
        va_x, va_y, vb_x, vb_y = corners.take(k, 1)
        near = ~ends & (
            ((np.abs(qx - va_x) <= box) & (np.abs(qy - va_y) <= box))
            | ((np.abs(qx - vb_x) <= box) & (np.abs(qy - vb_y) <= box))
        )
        for i in np.flatnonzero(near).tolist():
            hit = _cone_at(s, int(face[i]), int(e[i]), float(qx[i]), float(qy[i]))
            if hit is not None:
                if not cone.flags.writeable:
                    cone, vertex = cone.copy(), vertex.copy()
                cone[i], vertex[i] = hit

        go = ~ends & (cone < 0)
        if crossed >= MAX_EVENTS and go.any():
            raise EventBudgetExceededError(f"more than {MAX_EVENTS} events")
        yield _Steps(lane, face, px, py, qx, qy, seg, d, dx, dy, arc, cone, vertex)

        if not go.all():
            keep = np.flatnonzero(go)
            lane, k, qx, qy, d, dx, dy, arc, seg, remaining = (
                a.take(keep) for a in (lane, k, qx, qy, d, dx, dy, arc, seg, remaining))
        c, sn, tx, ty, rot = steps.take(k, 1)
        px = c * qx - sn * qy + tx
        py = sn * qx + c * qy + ty
        turned = np.fmod(d + rot, TWO_PI)
        turned = np.where(turned < 0.0, turned + TWO_PI, turned)
        # a direction the chart step changed (bitwise, so 0.0 differs from -0.0)
        # gets trace's math.cos/math.sin; np.cos may differ from them by an ulp
        moved = np.flatnonzero(turned.view(np.int64) != d.view(np.int64))
        d = turned
        if moved.size:
            a = d[moved].tolist()
            dx, dy = dx.copy(), dy.copy()
            dx[moved] = [*map(math.cos, a)]
            dy[moved] = [*map(math.sin, a)]
        face = enter.take(k)
        arc = arc + seg
        remaining = remaining - seg
        crossed += 1


def state_at(path: GeodesicPath, t: float) -> TangentState:
    """State of the flow at arc length t along the path."""
    if t < -1e-12 or t > path.length + 1e-12:
        raise OutOfWindowError(f"t={t} outside [0, {path.length}]")
    acc = 0.0
    for seg in path.segments:
        if t <= acc + seg.length or seg is path.segments[-1]:
            u = t - acc
            return TangentState(
                seg.face,
                seg.entry[0] + u * math.cos(seg.direction),
                seg.entry[1] + u * math.sin(seg.direction),
                seg.direction,
            )
        acc += seg.length
    return path.end


def point_at(path: GeodesicPath, t: float) -> SurfacePoint:
    st = state_at(path, t)
    return SurfacePoint(st.face, st.x, st.y)


def time_shift(path: GeodesicPath, t: float) -> GeodesicPath:
    """Re-base the path so the state at arc length t becomes the start."""
    if t < -1e-12 or t > path.length + 1e-12:
        raise OutOfWindowError(f"t={t} outside [0, {path.length}]")
    if t <= 0.0:
        return path
    new_start = state_at(path, t)
    segments = []
    acc = 0.0
    for seg in path.segments:
        if acc + seg.length <= t + 1e-15 and acc + seg.length < path.length:
            acc += seg.length
            continue
        if acc < t:
            u = t - acc
            entry = (
                seg.entry[0] + u * math.cos(seg.direction),
                seg.entry[1] + u * math.sin(seg.direction),
            )
            segments.append(seg._replace(entry=entry, length=seg.length - u))
        else:
            segments.append(seg)
        acc += seg.length
    events = []
    for ev in path.events:
        if ev.arc_length >= t - 1e-15:
            events.append(ev._replace(arc_length=ev.arc_length - t))
    return GeodesicPath(new_start, path.end, segments, events, path.length - t)


def reverse(path: GeodesicPath) -> GeodesicPath:
    """The same curve traversed backwards."""
    L = path.length
    segments = [
        Segment(s.face, s.exit, s.entry, s.length, norm_angle(s.direction + math.pi))
        for s in reversed(path.segments)
    ]
    events = []
    for ev in reversed(path.events):
        if isinstance(ev, EdgeCross):
            events.append(
                EdgeCross(ev.gluing, not ev.forward, ev.placement.inverse(), L - ev.arc_length)
            )
        else:
            events.append(ev._replace(arc_length=L - ev.arc_length))
    start = TangentState(path.end.face, path.end.x, path.end.y, norm_angle(path.end.direction + math.pi))
    end = TangentState(path.start.face, path.start.x, path.start.y, norm_angle(path.start.direction + math.pi))
    return GeodesicPath(start, end, segments, events, L)


# ---------------------------------------------------------------------------
# development

def develop(path: GeodesicPath):
    """Develop the segment chain into the chart of the first face.

    Returns (isometries, polyline): isometries[i] maps segment i's chart into
    the start chart; the polyline is the developed image (a straight segment
    for a geodesic).  Interior cone hits are not developable.
    """
    hits = path.cone_hits
    if hits and any(h.arc_length < path.length - 1e-12 for h in hits):
        raise ChartMismatchError("path has interior cone hits")
    isos = [PlaneIsometry.identity()]
    for ev in path.events:
        if isinstance(ev, EdgeCross):
            isos.append(isos[-1].compose(ev.placement))
    polyline = []
    if path.segments:
        polyline.append(isos[0].apply(*path.segments[0].entry))
        for iso, seg in zip(isos, path.segments):
            polyline.append(iso.apply(*seg.exit))
    else:
        p = (path.start.x, path.start.y)
        polyline = [p, p]
    return isos, polyline


def holonomy(s: ConeSurface, loop: GeodesicPath) -> PlaneIsometry:
    """Deck transformation of a traced loop: the developed end chart in start coordinates."""
    a, b = loop.start, loop.end
    if (
        a.face != b.face
        or math.hypot(a.x - b.x, a.y - b.y) > 100 * s.eps_geom
        or abs(ang_diff(a.direction, b.direction)) > 1e-7
    ):
        raise NotALoopError("path does not return to its initial state")
    return places_along(s, [(ev.gluing, ev.forward) for ev in loop.edge_crossings])[-1]


def word_holonomy(s: ConeSurface, word: list[tuple[int, bool]]) -> PlaneIsometry:
    """Holonomy of an edge-crossing word [(gluing, forward), ...]."""
    return places_along(s, word)[-1]


# ---------------------------------------------------------------------------
# cone continuations

def cone_scatter(s: ConeSurface, hit: ConeHit, outgoing: float) -> TangentState:
    """Continue through a cone point.

    `outgoing` is the angular separation in [0, theta) from the reversed
    incoming direction, measured counterclockwise around the cone point.  The
    continuation is geodesic only when both side angles (outgoing, theta -
    outgoing) are at least pi.
    """
    theta = s.cone_angles[hit.vclass]
    if not 0.0 <= outgoing < theta:
        raise ValueError(f"outgoing coordinate must lie in [0, {theta})")
    gamma_l = outgoing
    gamma_r = theta - outgoing
    if min(gamma_l, gamma_r) < math.pi - EPS_ANGLE:
        raise InvalidScatterError(gamma_l, gamma_r)
    back = norm_angle(hit.direction + math.pi)
    coord_in = s.cone_coordinate(hit.face, hit.vertex, back)
    face, vertex, direction = s.from_cone_coordinate(hit.vclass, coord_in + outgoing)
    vx, vy = s.faces[face][vertex]
    return TangentState(face, vx, vy, direction)


# ---------------------------------------------------------------------------
# cone-distance profiles

def min_cone_distance_profile(s: ConeSurface, path: GeodesicPath):
    """Running minimum of developed distance from the path to nearby conical vertices.

    For each segment the candidate cone points are the conical vertices of the
    segment's face copy and of its immediately adjacent copies, all placed in
    the development.  Returns [(arc_length, running_min)], non-increasing in
    the second component.
    """
    isos, _ = develop(path)
    out = []
    run = math.inf
    arc = 0.0
    for iso, seg in zip(isos, path.segments):
        cand = _placed_cone_vertices(s, seg.face, iso)
        ex, ey = iso.apply(*seg.entry)
        ux, uy = math.cos(seg.direction + iso.rot), math.sin(seg.direction + iso.rot)
        marks = [0.0, seg.length]
        for vx, vy in cand:
            proj = (vx - ex) * ux + (vy - ey) * uy
            proj = min(max(proj, 0.0), seg.length)
            marks.append(proj)
        for m in sorted(set(marks)):
            d = math.inf
            for vx, vy in cand:
                px_, py_ = ex + m * ux, ey + m * uy
                d = min(d, math.hypot(vx - px_, vy - py_))
            if d < run:
                run = d
            out.append((arc + m, run))
        arc += seg.length
    return out


def _placed_cone_vertices(s: ConeSurface, face: int, iso: PlaneIsometry):
    """Conical vertices of a placed face copy and of its edge-adjacent copies."""
    pts = []
    for v in s.conical_vertices[face]:
        pts.append(iso.apply(*s.faces[face][v]))
    for nb in s.neighbours[face]:
        nb_iso = iso.compose(nb.placement)
        for v in s.conical_vertices[nb.face]:
            pts.append(nb_iso.apply(*s.faces[nb.face][v]))
    return pts
