"""Geodesic distances by windowed unfolding, Busemann estimates, convergence profiles.

One unfolding engine, the windowed chord search `_chords`, serves every
measurement.  `local_distance` is the honest metric on the surface itself:
any geodesic is a chain of straight chords whose interior breakpoints are
conical points, so a small Dijkstra runs over the cone classes as hubs with
chord legs found by best-first unfolding under angular-window pruning.  The
asymptotic operations (`busemann`, `equidistant_reparam`,
`convergence_profile`) instead measure separations between developed lifts in
a shared development frame: a traced geodesic develops to a straight line, a
point is lifted to the developed endpoint of a minimiser (`lift_point`), or,
to find a fellow traveller, to every copy that a straight chord reaches
(`_enumerate_lifts`), and each reported distance is the Euclidean separation
of the developed images.  That separation equals the geodesic distance
between the lifts whenever the straight chord between them is realizable on
the surface, and is a lower bound in general, since any lifted path develops
to a plane path of the same length.  Working with the developed lines keeps
the Busemann limit available in closed form and makes convergence profiles of
asymptotic pairs exactly monotone, which no quotient measurement can provide:
quotient distances are bounded by the diameter and oscillate as foreign
sheets dip closer.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import (
    ConeOnRayError,
    ExceedsRadiusError,
    NoBracketError,
    NoConePointsError,
    SearchTruncatedError,
)
from .geom import (
    PlaneIsometry,
    ang_diff,
    dist_point_segment,
    subtend,
    window_contains,
    window_intersect,
)
from .surface import ConeSurface, SurfacePoint
from .tracer import ConeHit, GeodesicPath, TangentState

MAX_DEPTH = 64
NODE_BUDGET = 1_000_000
MAX_TILT = 0.3  # radians between developed directions that can still fellow-travel


@dataclass
class _ChordResult:
    to_target: float = math.inf
    to_class: dict = field(default_factory=dict)
    complete: bool = True
    nodes: int = 0
    root: int = 0
    place: PlaneIsometry | None = None
    copies: list = field(default_factory=list)


def _chords(s: ConeSurface, roots, target, cap: float,
            every_copy: bool = False) -> _ChordResult:
    """Minimal realizable straight chords from the given sources.

    roots: list of (face, px, py, window, place) sources sharing one notional
    origin (a point gets one full-circle root; a cone apex gets one wedge root
    per corner, and no chord from an apex ends at that apex).  target: a point
    (face, x and y) or None.  The search is best-first by the distance to a
    node's entry edge and stops at `cap` or, once a chord to the target is
    known, at that chord: a node farther out cannot shorten it (the pruning
    rule of window propagation).  So `to_target` is the minimal chord to the
    target of length at most `cap`; it leaves root index `root` and reaches
    the target's face copy placed by `place` in that root's chart.
    `to_class` maps a cone class to the (length, root, place, corner) of its
    chord, `corner` being the (face, vertex) of the placed face copy where
    the chord meets the apex; it is exact only for the cone classes closer
    than `to_target`, and a class farther out may be missing or carry a
    longer chord.  With `every_copy` the search does not stop at its best
    chord: `copies` collects the placement of every target copy that a chord
    of length at most `cap` reaches, and `to_target` stays infinite.
    `complete` is False when the node budget or the depth cap cut the search
    short.
    """
    res = _ChordResult()
    to_class = res.to_class
    skip_zero = roots[0][3] is not None  # only apex roots carry a window
    tface, tx, ty = (-1, 0.0, 0.0) if target is None else (target.face, target.x, target.y)
    heap = [(0.0, i, face, px, py, place, -1, window, 0, i)
            for i, (face, px, py, window, place) in enumerate(roots)]
    counter = len(heap)

    while heap:
        lb, _, face, px, py, place, entry, window, depth, root = heapq.heappop(heap)
        if lb > cap or lb > res.to_target:
            break
        res.nodes += 1
        if res.nodes > NODE_BUDGET:
            res.complete = False
            break
        placed = place.apply_polygon(s.faces[face])
        if face == tface:
            qx, qy = place.apply(tx, ty)
            d = math.hypot(qx - px, qy - py)
            if d < res.to_target and d <= cap:
                if depth == 0 or window_contains(window, math.atan2(qy - py, qx - px)):
                    if every_copy:
                        res.copies.append(place)
                    else:
                        res.to_target, res.root, res.place = d, root, place
        for v in s.conical_vertices[face]:
            vx, vy = placed[v]
            d = math.hypot(vx - px, vy - py)
            if skip_zero and d <= 1e-12:
                continue
            if d > cap:
                continue
            corner = (face, v)
            key = s.vertex_class[corner]
            if key in to_class and d >= to_class[key][0]:
                continue
            if depth == 0 or window_contains(window, math.atan2(vy - py, vx - px)):
                to_class[key] = (d, root, place, corner)
        if depth >= MAX_DEPTH:
            res.complete = False
            continue
        n = len(placed)
        for e in range(n):
            if e == entry:
                continue
            ax, ay = placed[e]
            bx, by = placed[(e + 1) % n]
            lb2 = dist_point_segment(px, py, ax, ay, bx, by)
            if lb2 > cap or lb2 > res.to_target:
                continue
            w2 = window_intersect(window, subtend(px, py, ax, ay, bx, by))
            if w2 is None:
                continue
            nb = s.neighbours[face][e]
            heapq.heappush(
                heap,
                (lb2, counter, nb.face, px, py, place.compose(nb.placement), nb.edge, w2, depth + 1,
                 root),
            )
            counter += 1
    return res


def _complete(res: _ChordResult) -> _ChordResult:
    """The search result, or SearchTruncatedError when a limit cut the search short."""
    if not res.complete:
        raise SearchTruncatedError(res.nodes)
    return res


def _point_roots(p: SurfacePoint):
    return [(p.face, p.x, p.y, None, PlaneIsometry.identity())]


def _class_roots(s: ConeSurface, cid: int):
    roots = []
    for c in s.class_corners[cid]:
        vx, vy = s.faces[c.face][c.vertex]
        roots.append((c.face, vx, vy, (c.out_dir, c.out_dir + c.interior_angle),
                      PlaneIsometry.identity()))
    return roots


def _check_on_surface(s: ConeSurface, *points: SurfacePoint):
    """ValueError unless each point lies in its face (`ConeSurface.contains`)."""
    for p in points:
        if not s.contains(p):
            raise ValueError(f"{p} is not on the surface")


def local_distance(s: ConeSurface, x: SurfacePoint, y: SurfacePoint, radius: float) -> float:
    """Exact geodesic distance d(x, y) on the surface when it is at most `radius`.

    Straight chords are combined with routes through cone apices by a Dijkstra
    whose hubs are the conical classes.  Raises ValueError for a point that is
    not on the surface, ExceedsRadius when the distance exceeds the radius, and
    SearchTruncated when the node budget or the depth cap stops an unfolding
    search before it could prove its answer minimal.
    """
    return lift_point(s, x, y, radius)[0]


def lift_point(s: ConeSurface, x: SurfacePoint, y: SurfacePoint,
               radius: float) -> tuple[float, PlaneIsometry]:
    """`local_distance` together with the developed lift of y along a minimiser.

    The lift is the chart placement, in x's chart, of the copy of y's face at
    the developed endpoint of the minimiser from x to y.  A straight minimiser
    ends in the face copy its chord reaches, at distance exactly d from x.  A
    bent minimiser is the chain of chords through the cone apices the
    Dijkstra settled; it develops chord by chord, turning counterclockwise
    about each apex from the corner where one chord arrives to the corner
    where the next leaves.  The developed chain has length d, so the lift lies
    within d of x.  Raises as `local_distance` does.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_on_surface(s, x, y)
    if x.face == y.face and x.x == y.x and x.y == y.y:
        return 0.0, PlaneIsometry.identity()

    first = _complete(_chords(s, _point_roots(x), y, radius))
    best, last = first.to_target, (None, first.root, first.place)
    # reach[c]: (distance to class c, the class before it or None, the chord into it)
    reach = {c: (hit[0], None, hit) for c, hit in first.to_class.items()}
    settled: set[int] = set()
    heap = [(r[0], c) for c, r in reach.items()]
    heapq.heapify(heap)
    while heap:
        d, c = heapq.heappop(heap)
        if c in settled or d > reach[c][0] or d >= best or d > radius:
            continue
        settled.add(c)
        leg = _complete(_chords(s, _class_roots(s, c), y, min(radius, best) - d))
        if d + leg.to_target < best:
            best, last = d + leg.to_target, (c, leg.root, leg.place)
        for c2, hit in leg.to_class.items():
            nd = d + hit[0]
            if nd < best and (c2 not in reach or nd < reach[c2][0]):
                reach[c2] = (nd, c, hit)
                heapq.heappush(heap, (nd, c2))
    if best > radius:
        raise ExceedsRadiusError(radius, None if math.isinf(best) else best)
    # develop back from y: the leg out of class c leaves its corner `root`, and
    # the chord into c arrives at `corner`, placed by `turn` in the chart of the
    # leg before
    c, root, place = last
    while c is not None:
        _, prev, (_, prev_root, turn, corner) = reach[c]
        out = s.class_corners[c][root]
        while corner != (out.face, out.vertex):
            nb, corner = s._turn(*corner)
            turn = turn.compose(nb.placement)
        place = turn.compose(place)
        c, root = prev, prev_root
    return best, place


def shortest_saddle_connection(s: ConeSurface) -> float:
    """Minimal positive distance between conical points (classes may coincide).

    Raises NoConePointsError on a surface without conical points, and
    SearchTruncated when the node budget or the depth cap stops a search.
    """
    classes = s.conical_classes
    if not classes:
        raise NoConePointsError("surface has no conical points")
    best = math.inf
    cap = 4.0 * s.diam_hint
    while math.isinf(best) and cap <= 64.0 * s.diam_hint:
        for c in classes:
            res = _complete(_chords(s, _class_roots(s, c), None, cap))
            for d, *_ in res.to_class.values():
                if d < best:
                    best = d
        cap *= 2.0
    return best


# ---------------------------------------------------------------------------
# developed lifts

def _check_cone_free(hits: list[ConeHit], t: float):
    """Raise ConeOnRayError if one of a path's cone `hits` lies at arc length t or before."""
    for hit in hits:
        if hit.arc_length <= t + 1e-12:
            raise ConeOnRayError(f"ray hits a cone point at arc length {hit.arc_length}")


def _ray_line(start: TangentState):
    """Developed image of a traced geodesic: the straight line b + t*e."""
    return start.x, start.y, math.cos(start.direction), math.sin(start.direction)


def _enumerate_lifts(s: ConeSurface, base, target, radius: float) -> list[PlaneIsometry]:
    """Placements of every copy of target's face whose target copy a straight chord reaches.

    The chords leave the base point and have length at most `radius`; one
    complete windowed search, not stopped at its best chord, finds them all.
    Base and target need only a face, x and y, so traced states serve.
    Raises SearchTruncated when the node budget or the depth cap cuts the
    search short.
    """
    return _complete(_chords(s, _point_roots(base), target, radius, every_copy=True)).copies


# ---------------------------------------------------------------------------
# Busemann machinery

@dataclass
class BusemannEstimate:
    value: float
    t_used: float
    converged: bool
    history: list[tuple[float, float]]


def busemann(
    s: ConeSurface,
    ray: GeodesicPath,
    x: SurfacePoint,
    x_prime: SurfacePoint,
    schedule: list[float] | None = None,
) -> BusemannEstimate:
    """Estimate the Busemann difference d(x', ray(t)) - d(x, ray(t)) along the schedule.

    The ray develops to a straight line from its start chart; x is lifted to
    the developed endpoint of the minimiser from the ray's base, and x' to the
    developed endpoint of the minimiser from x's lift (`lift_point`).  A
    developed minimiser has the length of the geodesic, so the separation of
    the two lifts never exceeds d(x, x'), and equals it when the minimiser
    from x to x' is straight; a bent one develops strictly shorter unless its
    turns add up to a straight line.  Each alpha_t is the difference of the
    Euclidean separations from the lifts to the developed ray point.  The
    estimate has converged once two successive alpha_t agree within
    1e-4 * diam_hint.  Raises ValueError when x or x' is not on the surface.
    """
    if schedule is None:
        schedule = [s.diam_hint * 2.0 ** k for k in range(8)]
        schedule = [t for t in schedule if t <= ray.length] or [ray.length]
    tol = 1e-4 * s.diam_hint
    if sorted(schedule) != list(schedule):
        raise ValueError("schedule must be increasing")
    if schedule[-1] > ray.length + 1e-9:
        raise ValueError(
            f"schedule horizon {schedule[-1]} exceeds the traced ray length {ray.length}"
        )
    bx, by, ex, ey = _ray_line(ray.start)
    base_pt = SurfacePoint(ray.start.face, ray.start.x, ray.start.y)
    _, place_x = lift_point(s, base_pt, x, 16.0 * s.diam_hint)
    place_xp = place_x.compose(lift_point(s, x, x_prime, 16.0 * s.diam_hint)[1])
    lx = place_x.apply(x.x, x.y)
    lxp = place_xp.apply(x_prime.x, x_prime.y)
    hits = ray.cone_hits
    history = []
    converged = False
    for t in schedule:
        _check_cone_free(hits, t)
        qx, qy = bx + t * ex, by + t * ey
        d = math.hypot(lx[0] - qx, lx[1] - qy)
        dp = math.hypot(lxp[0] - qx, lxp[1] - qy)
        history.append((t, dp - d))
        if len(history) >= 2 and abs(history[-1][1] - history[-2][1]) < tol:
            converged = True
            break
    t_used, value = history[-1]
    return BusemannEstimate(value, t_used, converged, history)


# ---------------------------------------------------------------------------
# equidistant reparametrization and convergence profiles

def _frame_candidates(s: ConeSurface, g1: GeodesicPath, g2: GeodesicPath, radius: float):
    """Lifts of g2's development into g1's frame, roughly co-directed.

    The lifts are the copies of g2's base that a straight chord of length at
    most `radius` from g1's base reaches, so each is realizable and none lies
    closer than the surface distance of the two bases.  Each candidate is
    (z0, e2): the placed base point and unit direction of g2's developed
    line.  Copies whose direction differs from g1's by more than MAX_TILT
    cannot fellow-travel and are dropped.
    """
    out = []
    for place in _enumerate_lifts(s, g1.start, g2.start, radius):
        tilt = abs(ang_diff(place.apply_dir(g2.start.direction), g1.start.direction))
        if tilt > MAX_TILT:
            continue
        z0 = place.apply(g2.start.x, g2.start.y)
        d2 = place.apply_dir(g2.start.direction)
        out.append((z0, (math.cos(d2), math.sin(d2))))
    return out


def _pair_sep(line1, z0, e2, c: float, u: float) -> float:
    """Separation of the developed lines at parameters u + c and u."""
    bx, by, ex, ey = line1
    return math.hypot(bx + (u + c) * ex - z0[0] - u * e2[0],
                      by + (u + c) * ey - z0[1] - u * e2[1])


def _closest_u(line1, z0, e2, c: float) -> float:
    """Parameter of closest approach of the developed lines (inf when parallel).

    The squared separation is a convex quadratic in u, so the pair is
    non-increasing on [0, h] exactly when the minimizer lies at or beyond h.
    """
    bx, by, ex, ey = line1
    ax_, ay_ = bx + c * ex - z0[0], by + c * ey - z0[1]
    dx, dy = ex - e2[0], ey - e2[1]
    den = dx * dx + dy * dy
    if den < 1e-24:
        return math.inf
    return -(ax_ * dx + ay_ * dy) / den


def equidistant_reparam(s: ConeSurface, g1: GeodesicPath, g2: GeodesicPath) -> float:
    """Time shift c making g1(c) equidistant with g2(0) from g1's endpoint at infinity.

    g2 is lifted to every copy of its base that a straight chord from g1's
    base reaches within 2 * (d + diam_hint) + 2 * diam_hint, d being the
    distance of the bases, and whose direction can fellow-travel g1's
    developed line; for each, the Busemann limit along a straight line is
    available in closed form, so c is the projection of the base offset onto
    g1's direction.  Candidates whose separation grows over the traced window are
    rejected; ties (a flat cylinder defines c only up to its period) resolve
    to the smallest shift.  Both paths must be cone-free up to
    min(128 * diam_hint, g1.length).  Raises NoBracket when no lift
    fellow-travels, e.g. for an anti-parallel pair.
    """
    tol = 1e-4 * s.diam_hint
    t_ref = min(128.0 * s.diam_hint, g1.length)
    _check_cone_free(g1.cone_hits, t_ref)
    _check_cone_free(g2.cone_hits, min(t_ref, g2.length))
    sep = local_distance(
        s,
        SurfacePoint(g1.start.face, g1.start.x, g1.start.y),
        SurfacePoint(g2.start.face, g2.start.x, g2.start.y),
        16.0 * s.diam_hint,
    )
    c_max = 2.0 * (sep + s.diam_hint)
    line1 = _ray_line(g1.start)
    candidates = _frame_candidates(s, g1, g2, c_max + 2.0 * s.diam_hint)
    if not candidates:
        raise NoBracketError("no development-aligned lift of g2 near g1's base")

    last_reason = "paths spread apart after reparametrization"
    roots = []
    for z0, e2 in candidates:
        # Busemann limit of g1's line at the lifted base of g2, in closed form
        c = (z0[0] - line1[0]) * line1[2] + (z0[1] - line1[1]) * line1[3]
        # fellow-traveling check over the whole traced window: an asymptotic
        # pair is non-increasing there, i.e. its closest approach lies beyond
        u0 = max(0.0, -c)
        u_chk = min(g2.length, g1.length - max(c, 0.0))
        if u_chk <= u0:
            continue
        d0 = _pair_sep(line1, z0, e2, c, u0)
        du = _pair_sep(line1, z0, e2, c, u_chk)
        # a lift tracing the same developed line (separation at rounding
        # scale) identifies g2 as a reparametrization of g1 itself; such
        # shifts are exact and exempt from the |c| cap, which only guards
        # merely-bounded fellow travelers against runaway deck translates
        same_line = du <= 1e-9 * (1.0 + u_chk)
        if not same_line and abs(c) > c_max:
            last_reason = f"equidistant shift {c:.6g} outside [-{c_max:.6g}, {c_max:.6g}]"
            continue
        if du <= d0 + 10.0 * tol and _closest_u(line1, z0, e2, c) >= u_chk - 1e-9:
            roots.append((same_line, c))
    if roots:
        # a flat cylinder defines c only up to its period: among equally
        # good lifts ties resolve to the smallest shift
        return min(roots, key=lambda rc: (not rc[0], abs(rc[1])))[1]
    raise NoBracketError(last_reason)


def convergence_profile(
    s: ConeSurface,
    g1: GeodesicPath,
    g2: GeodesicPath,
    horizon: float,
    n_samples: int = 33,
):
    """Sampled distances d(g1(t), g2(t)) on [0, horizon]; callers reparametrize first.

    The distance follows the pair: among the copies of g2's base that a
    straight chord from g1's base reaches within d + 2 * diam_hint (d being
    the distance of the bases), g2 is lifted once to the one that
    fellow-travels g1's developed line, and every sample is the separation of
    the developed lifts at parameter t.  That separation is convex in t, which
    is what makes asymptotic profiles non-increasing; the quotient distance is
    a minimum over all sheets and rebounds after a foreign sheet dips below
    the tracked one, so it cannot certify convergence.  Samples beyond 4x the
    initial separation raise ExceedsRadius, and fewer than two samples ValueError.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    h = min(horizon, g1.length, g2.length)
    tol = 1e-4 * s.diam_hint
    sep = local_distance(
        s,
        SurfacePoint(g1.start.face, g1.start.x, g1.start.y),
        SurfacePoint(g2.start.face, g2.start.x, g2.start.y),
        16.0 * s.diam_hint,
    )
    line1 = _ray_line(g1.start)
    candidates = _frame_candidates(s, g1, g2, sep + 2.0 * s.diam_hint)
    # the tracked lift: fellow-travels (non-increasing separation) and starts
    # nearest; deck translates along the flight direction shrink from farther out
    best = None
    for z0, e2 in candidates:
        d0 = _pair_sep(line1, z0, e2, 0.0, 0.0)
        du = _pair_sep(line1, z0, e2, 0.0, h)
        if du <= d0 + 10.0 * tol and _closest_u(line1, z0, e2, 0.0) >= h - 1e-9:
            if best is None or (du, d0) < best[0]:
                best = ((du, d0), z0, e2)
    if best is None:
        raise NoBracketError("no fellow-traveling lift of g2; reparametrize first")
    (_, start_gap), z0, e2 = best
    radius = max(4.0 * start_gap, 0.1 * s.diam_hint)
    out = []
    for k in range(n_samples):
        t = h * k / (n_samples - 1)
        d = _pair_sep(line1, z0, e2, 0.0, t)
        if d > radius:
            raise ExceedsRadiusError(radius, d)
        out.append((t, d))
    return out
