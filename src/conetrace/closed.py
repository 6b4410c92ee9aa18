"""Closed geodesic representatives of free homotopy classes.

A class is carried by its cyclic word of edge crossings.  Shortening develops
the corridor of the word into the plane and pulls the loop tight: a cone-free
representative is an invariant axis of the holonomy translation, and when the
axis leaves the corridor the offending crossing snaps to a conical vertex,
splitting the loop into geodesic arcs between cone anchors.  Anchors whose
side angles drop below pi are released again through the deficient wedge.
Stationarity (all side angles >= pi, straight arcs) is the exit condition.
An iteration reads only the cyclic word, or each arc's word and end corners,
so a state that recurs cycles for ever: the shortener raises NoConvergenceError
at the first repeat.  Snaps only add anchors, so every cycle passes a state that
the removal of an anchor left, and only those states are recorded.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .errors import (
    BudgetExhaustedError,
    NoConePointsError,
    NoConvergenceError,
    NotConeFreeError,
    NullHomotopicError,
)
from .geom import EPS_ANGLE, PlaneIsometry, norm_angle
from .surface import ConeSurface, places_along
from .tracer import (
    ConeHit,
    EdgeCross,
    GeodesicPath,
    Segment,
    TangentState,
    _placed_cone_vertices,
)


@dataclass(frozen=True)
class Crossing:
    gluing: int
    forward: bool
    t: float = 0.5  # param along the side-A directed edge


@dataclass(frozen=True)
class Passage:
    vclass: int
    corner_in: tuple[int, int]
    corner_out: tuple[int, int]
    theta_l: float
    theta_r: float


@dataclass
class Loop:
    """A closed piecewise-geodesic loop given by its crossing word.

    Kinks are interior breakpoints (after_crossing_index, (x, y)) in the chart
    of the face entered by that crossing; they only affect the initial length
    accounting, the homotopy class is carried entirely by the crossings.
    """

    crossings: list[Crossing]
    kinks: list[tuple[int, tuple[float, float]]] = field(default_factory=list)


def loop_length(s: ConeSurface, loop: Loop) -> float:
    """Length of the piecewise-geodesic loop as given (before shortening)."""
    word = loop.crossings
    # slot j is the face between crossings j-1 and j; slot 0 is the base face
    places, edges = _corridor(s, word)
    chain = []
    for k, (c, (p0, p1, _, _)) in enumerate(zip(word, edges)):
        chain.append((p0[0] + c.t * (p1[0] - p0[0]), p0[1] + c.t * (p1[1] - p0[1])))
        for idx, (kx, ky) in loop.kinks:
            if idx == k:
                chain.append(places[k + 1].apply(kx, ky))
    if not chain:
        return 0.0
    H = places[-1]
    chain.append(H.apply(*chain[0]))
    return sum(math.dist(chain[i], chain[i + 1]) for i in range(len(chain) - 1))


@dataclass
class ClosedGeodesic:
    cycle: GeodesicPath
    period: float
    passages: list[Passage]
    through_cones: bool
    crossings: list[Crossing]
    anchors: list[tuple[tuple[int, int], tuple[int, int]]]  # (corner_in, corner_out)
    holonomy: PlaneIsometry | None
    width_left: float | None = None
    width_right: float | None = None


@dataclass
class FlatCylinder:
    core: ClosedGeodesic
    width_left: float
    width_right: float
    circumference: float


# ---------------------------------------------------------------------------
# word utilities

def pre_face(s, c: Crossing) -> int:
    return s.step(c.gluing, c.forward)[0]


def post_face(s, c: Crossing) -> int:
    return s.step(c.gluing, c.forward)[2].face


def _endpoint_corners(s: ConeSurface, c: Crossing):
    """(corner_in, corner_out) of endpoints 0 and 1 of a crossing, indexed by `which`.

    Endpoint 0 starts the side-A directed edge, so a crossing's param t runs
    from endpoint 0 to endpoint 1; corner_in is in the face the letter leaves,
    corner_out in the face it enters.
    """
    face, edge, nb = s.step(c.gluing, c.forward)
    n, m = len(s.faces[face]), len(s.faces[nb.face])
    corners = []
    for which in (0, 1):
        k = which if c.forward else 1 - which
        corners.append(((face, (edge + k) % n), (nb.face, (nb.edge + 1 - k) % m)))
    return corners


def _corridor(s: ConeSurface, word: list[Crossing]):
    """Placements along the word and each crossing edge (P0, P1, corner0, corner1).

    P0 and P1 are the developed endpoints 0 and 1 (lerp(P0, P1, t) is the
    crossing point) and corner0, corner1 their corners in the face left.
    """
    places = places_along(s, [(c.gluing, c.forward) for c in word])
    edges = []
    for place, c in zip(places, word):
        (corner0, _), (corner1, _) = _endpoint_corners(s, c)
        poly = s.faces[corner0[0]]
        edges.append((place.apply(*poly[corner0[1]]), place.apply(*poly[corner1[1]]), corner0, corner1))
    return places, edges


def cyclic_reduce(s: ConeSurface, word: list[Crossing]) -> list[Crossing]:
    word = list(word)
    changed = True
    while changed and word:
        changed = False
        n = len(word)
        for i in range(n):
            a, b = word[i], word[(i + 1) % n]
            if a.gluing == b.gluing and a.forward != b.forward:
                for j in sorted({i, (i + 1) % n}, reverse=True):
                    word.pop(j)
                changed = True
                break
    return word


def validate_word(s: ConeSurface, word: list[Crossing]):
    for i, c in enumerate(word):
        if not 0 <= c.gluing < len(s.gluings):
            raise ValueError(f"crossing word names gluing {c.gluing} at position {i}; "
                             f"the surface has gluings 0..{len(s.gluings) - 1}")
    for i, c in enumerate(word):
        nxt = word[(i + 1) % len(word)]
        if post_face(s, c) != pre_face(s, nxt):
            raise ValueError(f"crossing word breaks the face chain at position {i}")


# ---------------------------------------------------------------------------
# corridor development

@dataclass
class _Arc:
    """Arc between two cone anchors; _tighten_arc returns it with its straight chord filled in."""

    word: list[Crossing]
    start_corner: tuple[int, int]  # corner_out of the starting anchor
    end_corner: tuple[int, int]  # corner_in of the ending anchor
    points: list = None  # developed chord breakpoints (start apex ... end apex)
    places: list = None
    params: list = None
    length: float = 0.0


@dataclass
class _Axis:
    """Cone-free result: the holonomy's invariant axis through the word's corridor."""

    word: list[Crossing]
    places: list[PlaneIsometry]
    edges: list
    holonomy: PlaneIsometry
    direction: tuple[float, float]
    offset: float
    length: float


def _tighten_cyclic(s: ConeSurface, word: list[Crossing]):
    """Fit an invariant axis through the corridor: (_Axis, None) or (None, violation (k, which))."""
    places, edges = _corridor(s, word)
    H = places[-1]
    if abs(H.rot) > 1e-7:
        # rotational holonomy has no axis; pin the corridor vertex nearest
        # the fixed point of the rotation
        cx, cy = _rotation_fixed_point(H)
        best = None
        for k, edge in enumerate(edges):
            for which in (0, 1):
                px, py = edge[which]
                d = math.hypot(px - cx, py - cy)
                if (best is None or d < best[0]) and s.is_conical(s.vertex_class[edge[2 + which]]):
                    best = (d, k, which)
        if best is None:
            raise NoConvergenceError(0)
        return None, (best[1], best[2])
    ux, uy = H.tx, H.ty
    tl = math.hypot(ux, uy)
    if tl <= 100 * s.eps_geom:
        raise NullHomotopicError("holonomy is the identity")
    axis_dir = (ux / tl, uy / tl)

    crossval = _crossval(axis_dir)
    intervals = []
    for p0, p1, _, _ in edges:
        c0 = crossval(p0)
        c1 = crossval(p1)
        intervals.append((min(c0, c1), max(c0, c1), c0, c1))
    lo = max(iv[0] for iv in intervals)
    hi = min(iv[1] for iv in intervals)
    if lo <= hi:
        return _Axis(word, places, edges, H, axis_dir, 0.5 * (lo + hi), tl), None
    mid = 0.5 * (lo + hi)
    worst, at = -1.0, None
    for k, iv in enumerate(intervals):
        viol = max(iv[0] - mid, mid - iv[1], 0.0)
        if viol > worst:
            worst = viol
            which = 0 if abs(iv[2] - mid) < abs(iv[3] - mid) else 1
            at = (k, which)
    return None, at


def _tighten_arc(s: ConeSurface, arc: _Arc):
    """Straight chord between the arc's anchors: (tightened _Arc, violation (k, which) or None)."""
    places, edges = _corridor(s, arc.word)
    f0, v0 = arc.start_corner
    p_start = s.faces[f0][v0]
    f1, v1 = arc.end_corner
    p_end = places[-1].apply(*s.faces[f1][v1])
    ax, ay = p_start
    bx, by = p_end
    mx, my = bx - ax, by - ay
    pts = [p_start]
    params = []
    violation = None
    worst = 0.0
    for k, (p0, p1, cv0, cv1) in enumerate(edges):
        ex, ey = p1[0] - p0[0], p1[1] - p0[1]
        den = ex * my - ey * mx
        if abs(den) < 1e-300:
            tau = math.inf
        else:
            tau = ((ax - p0[0]) * my - (ay - p0[1]) * mx) / den
        edge_len = math.hypot(ex, ey)
        if not 0.0 <= tau <= 1.0:
            viol = (0.0 - tau) * edge_len if tau < 0.5 else (tau - 1.0) * edge_len
            if not math.isfinite(viol):
                viol = edge_len
            if viol > worst:
                worst = viol
                violation = (k, 0 if tau < 0.5 else 1)
            tau = min(max(tau, 0.0), 1.0)
        else:
            # capture-disc rule near conical endpoints
            for which, corner in ((0, cv0), (1, cv1)):
                dvert = tau * edge_len if which == 0 else (1.0 - tau) * edge_len
                if dvert <= s.eps_vertex and s.is_conical(s.vertex_class[corner]):
                    if 1.0 > worst:
                        worst = 1.0
                        violation = (k, which)
        params.append(tau)
        pts.append((p0[0] + tau * (p1[0] - p0[0]), p0[1] + tau * (p1[1] - p0[1])))
    pts.append(p_end)
    length = sum(math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
    return _Arc(arc.word, arc.start_corner, arc.end_corner, pts, places, params, length), violation


def _snap(s: ConeSurface, word: list[Crossing], k: int, which: int, it: int):
    """Snap crossing k to its conical endpoint `which`: (before, corner_in, corner_out, after)."""
    corner_in, corner_out = _endpoint_corners(s, word[k])[which]
    if not s.is_conical(s.vertex_class[corner_in]):
        raise NoConvergenceError(it)
    return word[:k], corner_in, corner_out, word[k + 1 :]


def _anchor_angles(s: ConeSurface, arc_in: _Arc, arc_out: _Arc):
    """Side angles (ccw from reversed-in to out, and the complement) at the anchor between two arcs."""
    corner_in, corner_out = arc_in.end_corner, arc_out.start_corner
    # reversed incoming direction, in the chart of corner_in's face
    pts = arc_in.points
    apex = pts[-1]
    prev = pts[-2]
    base_dir = math.atan2(prev[1] - apex[1], prev[0] - apex[0])
    local_rev = norm_angle(base_dir - arc_in.places[-1].rot)
    coord_in = s.cone_coordinate(corner_in[0], corner_in[1], local_rev)
    # outgoing direction in the chart of corner_out's face (arc base chart)
    pts_o = arc_out.points
    out_dir = math.atan2(pts_o[1][1] - pts_o[0][1], pts_o[1][0] - pts_o[0][0])
    coord_out = s.cone_coordinate(corner_out[0], corner_out[1], norm_angle(out_dir))
    theta = s.cone_angles[s.vertex_class[corner_in]]
    gamma = math.fmod(coord_out - coord_in, theta)
    if gamma < 0:
        gamma += theta
    return gamma, theta - gamma


def _wedge_letters(s: ConeSurface, corner_in, corner_out, ccw: bool) -> list[Crossing]:
    """Crossing letters collected walking around a vertex class between two corners."""
    letters = []
    cur = corner_in
    for _ in range(sum(len(fan) for fan in s.class_corners) + 3):
        if cur == corner_out:
            return letters
        nb, cur = s._turn(*cur, ccw)
        letters.append(Crossing(nb.gluing, nb.forward, 0.5))
    raise NoConvergenceError(0)


def _merge_degenerate_anchors(s: ConeSurface, arcs: list[_Arc]):
    """The arcs without the first empty zero-length one, whose anchors fuse; None if there is none."""
    if len(arcs) < 2:
        return None
    for i, arc in enumerate(arcs):
        if arc.word:
            continue
        if math.dist(arc.points[0], arc.points[-1]) > 10 * s.eps_geom:
            continue
        # the anchors on either side fuse into (arcs[i-1] end, arcs[i+1] start)
        return arcs[:i] + arcs[i + 1 :]
    return None


def _run(s: ConeSurface, word: list[Crossing], max_iters: int):
    """Shorten the word: (_Axis, []) if cone-free, else (None, arcs) with anchor i before arcs[i]."""
    arcs = []
    seen = {}  # state left by a step that removed an anchor -> that step's iteration
    for it in range(max_iters):
        if not arcs:
            word = cyclic_reduce(s, word)
            if not word:
                raise NullHomotopicError("crossing word reduces to nothing")
            axis, violation = _tighten_cyclic(s, word)
            if violation is None:
                return axis, []
            before, corner_in, corner_out, after = _snap(s, word, *violation, it)
            arcs = [_Arc(after + before, corner_out, corner_in)]
            continue
        violation = None
        for j, arc in enumerate(arcs):
            arcs[j], v = _tighten_arc(s, arc)
            if v is not None and violation is None:
                violation = (j, v)
        fused = _merge_degenerate_anchors(s, arcs)
        if fused is not None:
            arcs = fused
        elif violation is not None:
            j, (k, which) = violation
            arc = arcs[j]
            before, corner_in, corner_out, after = _snap(s, arc.word, k, which, it)
            arcs[j : j + 1] = [_Arc(before, arc.start_corner, corner_in),
                               _Arc(after, corner_out, arc.end_corner)]
            continue
        else:
            # all arcs straight: release the first deficient anchor, or stop
            for i in range(len(arcs)):
                gl, gr = _anchor_angles(s, arcs[i - 1], arcs[i])
                if min(gl, gr) < math.pi - EPS_ANGLE:
                    break
            else:
                return None, arcs
            arc_in, arc_out = arcs[i - 1], arcs[i]
            wedge = _wedge_letters(s, arc_in.end_corner, arc_out.start_corner, gl < math.pi - EPS_ANGLE)
            # wedge letters cross from corner_in's face chain into corner_out's face
            if len(arcs) == 1:
                # single anchor: merging returns to the cyclic state
                word = arc_in.word + wedge
                arcs = []
            else:
                merged = _Arc(arc_in.word + wedge + arc_out.word, arc_in.start_corner, arc_out.end_corner)
                if i > 0:
                    arcs[i - 1 : i + 1] = [merged]
                else:  # wrapped
                    arcs = arcs[1:-1] + [merged]
        # an anchor was removed; with no arcs left the state is the cyclic word
        state = tuple((tuple((c.gluing, c.forward) for c in a.word), a.start_corner, a.end_corner)
                      for a in arcs) or tuple((c.gluing, c.forward) for c in word)
        first = seen.setdefault(state, it)
        if first != it:
            raise NoConvergenceError(it + 1, it - first)
    raise NoConvergenceError(max_iters)


def _crossval(u):
    """Signed offset of a developed point across the unit axis direction u."""
    ux, uy = u
    return lambda p: ux * p[1] - uy * p[0]


def _rotation_fixed_point(iso: PlaneIsometry):
    # solve (I - R) p = t
    a, b = 1.0 - iso.c, iso.s
    det = a * a + b * b
    return ((a * iso.tx - b * iso.ty) / det, (b * iso.tx + a * iso.ty) / det)


# ---------------------------------------------------------------------------
# public operations

def shorten(
    s: ConeSurface,
    loop: Loop | ClosedGeodesic,
    max_iters: int = 100_000,
) -> ClosedGeodesic:
    """Shortest representative of the loop's free homotopy class.

    The shortener's first step reduces the word cyclically and fits the
    holonomy's axis; a word that reduces to nothing, or whose holonomy is the
    identity, raises NullHomotopicError there.  NoConvergenceError is raised at
    the first repeated state (see the module docstring), so max_iters bounds
    only a run that neither converges nor repeats a state.
    """
    word = list(loop.crossings)
    validate_word(s, word)
    axis, arcs = _run(s, word, max_iters)
    return _assemble_anchored(s, arcs) if arcs else _assemble_cyclic(s, axis)


def _chart_segment(face: int, place: PlaneIsometry, a, b) -> Segment:
    """Segment from developed point a to b, in the chart of a face copy placed by `place`."""
    inv = place.inverse()
    direction = norm_angle(math.atan2(b[1] - a[1], b[0] - a[0]) - place.rot)
    return Segment(face, inv.apply(*a), inv.apply(*b), math.dist(a, b), direction)


def _cycle(segments: list[Segment], events: list, period: float) -> GeodesicPath:
    """Closed path starting and ending where its first segment starts."""
    first = segments[0]
    start = TangentState(first.face, first.entry[0], first.entry[1], first.direction)
    return GeodesicPath(start, start, segments, events, period)


def _assemble_cyclic(s: ConeSurface, axis: _Axis) -> ClosedGeodesic:
    word, places, H = axis.word, axis.places, axis.holonomy

    # cylinder widths about the axis, using one period of face copies plus guards:
    # the nearest cone offset on each side, among the copies' cone vertices and
    # their images under H and H^-1
    slots = [(pre_face(s, word[0]), places[0])]
    for k, c in enumerate(word):
        slots.append((post_face(s, c), places[k + 1]))
    H_inv = H.inverse()
    crossval = _crossval(axis.direction)
    left, right = math.inf, -math.inf
    for face, place in slots:
        for p in _placed_cone_vertices(s, face, place):
            for o in (crossval(p), crossval(H.apply(*p)), crossval(H_inv.apply(*p))):
                if axis.offset + s.eps_geom < o < left:
                    left = o
                if right < o < axis.offset - s.eps_geom:
                    right = o
    c_star = axis.offset
    w_l = w_r = None
    if left < math.inf and right > -math.inf:
        c_star = 0.5 * (left + right)
        w_l = left - c_star
        w_r = c_star - right

    # cross each corridor edge on the axis at offset c_star
    crossings = []
    pts = []
    for c, (p0, p1, _, _) in zip(word, axis.edges):
        c0, c1 = crossval(p0), crossval(p1)
        tau = 0.5 if c1 == c0 else (c_star - c0) / (c1 - c0)
        crossings.append(replace(c, t=tau))
        pts.append((p0[0] + tau * (p1[0] - p0[0]), p0[1] + tau * (p1[1] - p0[1])))

    segments = []
    events = []
    arc = 0.0
    m = len(word)
    for j in range(1, m + 1):
        b = pts[j] if j < m else H.apply(*pts[0])
        seg = _chart_segment(post_face(s, word[j - 1]), places[j], pts[j - 1], b)
        segments.append(seg)
        arc += seg.length
        cr = word[j % m]
        nb = s.step(cr.gluing, cr.forward)[2]
        events.append(EdgeCross(cr.gluing, cr.forward, nb.placement, arc))

    return ClosedGeodesic(
        _cycle(segments, events, axis.length), axis.length, [], False, crossings, [], H, w_l, w_r,
    )


def _assemble_anchored(s: ConeSurface, arcs: list[_Arc]) -> ClosedGeodesic:
    segments = []
    events = []
    passages = []
    crossings = []
    arc_len = 0.0
    for i, arc in enumerate(arcs):
        pts = arc.points
        for j in range(len(pts) - 1):
            face = arc.start_corner[0] if j == 0 else post_face(s, arc.word[j - 1])
            seg = _chart_segment(face, arc.places[j], pts[j], pts[j + 1])
            segments.append(seg)
            arc_len += seg.length
            if j < len(arc.word):
                cr = arc.word[j]
                nb = s.step(cr.gluing, cr.forward)[2]
                events.append(EdgeCross(cr.gluing, cr.forward, nb.placement, arc_len))
                crossings.append(replace(cr, t=arc.params[j]))
        # passage at the anchor that ends this arc
        nxt = (i + 1) % len(arcs)
        gl, gr = _anchor_angles(s, arc, arcs[nxt])
        corner_in, corner_out = arc.end_corner, arcs[nxt].start_corner
        cid = s.vertex_class[corner_in]
        passages.append(Passage(cid, corner_in, corner_out, gl, gr))
        events.append(
            ConeHit(cid, arc_len, segments[-1].face, corner_in[1], segments[-1].direction)
        )
    return ClosedGeodesic(
        _cycle(segments, events, arc_len), arc_len, passages, True, crossings,
        [(arcs[i - 1].end_corner, arcs[i].start_corner) for i in range(len(arcs))], None, None, None,
    )


def is_unique_in_class(g: ClosedGeodesic):
    """Uniqueness certificate: strict side angles on both sides of some passages.

    Returns (unique, certificate).  Cone-free geodesics sit inside a flat
    cylinder and are never unique.
    """
    if not g.through_cones:
        return False, {"translatable": ["left", "right"], "reason": "cone-free core of a flat cylinder"}
    left = [p for p in g.passages if p.theta_l > math.pi + EPS_ANGLE]
    right = [p for p in g.passages if p.theta_r > math.pi + EPS_ANGLE]
    if left and right:
        return True, {"witness_left": left[0], "witness_right": right[0]}
    sides = []
    if not left:
        sides.append("left")
    if not right:
        sides.append("right")
    return False, {"translatable": sides}


def flat_cylinder(s: ConeSurface, g: ClosedGeodesic) -> FlatCylinder:
    """Maximal flat cylinder around a cone-free closed geodesic.

    NoConePointsError when no conical point bounds it, as on a cone-free surface.
    """
    if g.through_cones:
        raise NotConeFreeError("core passes through cone points")
    if g.width_left is None:
        raise NoConePointsError("no conical point bounds the cylinder")
    return FlatCylinder(g, g.width_left, g.width_right, g.period)


def verify_stationarity(s: ConeSurface, g: ClosedGeodesic) -> bool:
    """Independent certificate check: straight arcs and side angles >= pi.

    Recomputes the geometry from the raw crossing word and anchors rather than
    trusting the optimizer's stored angles.
    """
    if g.anchors:
        tight = [_tighten_arc(s, arc) for arc in _arcs_from_anchors(s, g)]
        if any(violation is not None for _, violation in tight):
            return False
        arcs = [arc for arc, _ in tight]
        for i in range(len(arcs)):
            gl, gr = _anchor_angles(s, arcs[i - 1], arcs[i])
            if min(gl, gr) < math.pi - 10 * EPS_ANGLE:
                return False
        return abs(sum(a.length for a in arcs) - g.period) <= 1e-6 * max(1.0, g.period)
    axis, violation = _tighten_cyclic(s, list(g.crossings))
    if violation is not None:
        return False
    return abs(axis.length - g.period) <= 1e-6 * max(1.0, g.period)


def _arcs_from_anchors(s: ConeSurface, g: ClosedGeodesic):
    # split the crossing word at the anchors in cycle order
    arcs = []
    word = list(g.crossings)
    # reconstruct arc lengths by walking the stored cycle events
    counts = []
    cur = 0
    for ev in g.cycle.events:
        if isinstance(ev, ConeHit):
            counts.append(cur)
            cur = 0
        else:
            cur += 1
    if len(counts) < len(g.anchors):
        counts.append(cur)
    pos = 0
    for i, n in enumerate(counts):
        start_corner = g.anchors[i][1]
        end_corner = g.anchors[(i + 1) % len(g.anchors)][0]
        arcs.append(_Arc(word[pos : pos + n], start_corner, end_corner))
        pos += n
    return arcs


def find_unique_closed(
    s: ConeSurface, budget: int, seed: int = 0, max_word_len: int = 5
) -> ClosedGeodesic:
    """Search random homotopy classes of 2 to max_word_len crossings for a geodesic unique in its class."""
    if not s.conical_classes:
        raise NoConePointsError("surface has no conical points")
    if max_word_len < 2:
        raise ValueError("max_word_len must be at least 2")
    rng = random.Random(seed)
    for _ in range(budget):
        length = rng.randint(2, max_word_len)
        face = rng.randrange(len(s.faces))
        word = []
        for _ in range(length):
            nb = s.neighbours[face][rng.randrange(len(s.faces[face]))]
            word.append(Crossing(nb.gluing, nb.forward, 0.5))
            face = nb.face
        if pre_face(s, word[0]) != face:
            continue  # word does not close up to a loop
        try:
            g = shorten(s, Loop(word), max_iters=10_000)
        except (NullHomotopicError, NoConvergenceError):
            continue
        unique, _ = is_unique_in_class(g)
        if unique:
            return g
    raise BudgetExhaustedError(f"no unique-in-class geodesic found in {budget} random loops")


def certificate_text(s: ConeSurface, g: ClosedGeodesic) -> str:
    """Human-checkable certificate: period, passages, verdict, holonomy entries."""
    unique, cert = is_unique_in_class(g)
    lines = [
        f"period {g.period:.17g}",
        f"through_cones {g.through_cones}",
        f"passages {len(g.passages)}",
    ]
    for p in g.passages:
        lines.append(
            f"passage class={p.vclass} theta_l={p.theta_l:.17g} theta_r={p.theta_r:.17g}"
        )
    lines.append(f"unique_in_class {unique}")
    if not unique and "translatable" in cert:
        lines.append("translatable " + ",".join(cert["translatable"]))
    if g.holonomy is not None:
        m = g.holonomy.matrix()
        lines.append("holonomy " + " ".join(f"{v:.17g}" for v in m))
    if g.width_left is not None:
        lines.append(f"width_left {g.width_left:.17g}")
        lines.append(f"width_right {g.width_right:.17g}")
    return "\n".join(lines) + "\n"
