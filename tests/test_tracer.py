"""Geodesic tracing, development, holonomy, cone-distance profiles."""
import math

import numpy as np
import pytest

from conetrace import (
    TangentState,
    builtin,
    cone_scatter,
    develop,
    holonomy,
    min_cone_distance_profile,
    point_at,
    reverse,
    state_at,
    time_shift,
    trace,
    word_holonomy,
)
from conetrace import tracer
from conetrace.dynamics import random_state
from conetrace.surface import SurfacePoint, parse_surface
from conetrace.errors import (
    EventBudgetExceededError,
    InvalidScatterError,
    NotALoopError,
    OutOfWindowError,
)

APOTHEM = math.cos(math.pi / 8)
VERTEX_DIR = math.pi / 8  # direction from the center to vertex (cos pi/8, sin pi/8)


def test_straight_trace_inside_face(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 0.5)
    assert p.end.face == 0
    assert abs(p.end.x - 0.5) < 1e-12 and abs(p.end.y) < 1e-12
    assert not p.events


def test_single_crossing_trace(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 2.5)
    assert len(p.edge_crossings) == 1
    assert abs(p.edge_crossings[0].arc_length - APOTHEM) < 1e-12
    assert abs(p.end.x - (2.5 - 2 * APOTHEM)) < 1e-12
    assert abs(p.end.y) < 1e-12


def test_cone_hit_at_circumradius(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, VERTEX_DIR), 2.0)
    assert len(p.cone_hits) == 1
    assert abs(p.cone_hits[0].arc_length - 1.0) < 1e-12
    assert abs(p.length - 1.0) < 1e-12  # a cone hit ends the trace


def test_length_not_finite(octagon):
    start = TangentState(0, 0.0, 0.0, 0.37)
    for length in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            trace(octagon, start, length)
        with pytest.raises(ValueError):
            list(tracer._trace_batch(octagon, _columns([start]), length))


def test_event_budget(octagon, monkeypatch):
    monkeypatch.setattr(tracer, "MAX_EVENTS", 5)
    with pytest.raises(EventBudgetExceededError):
        trace(octagon, TangentState(0, 0.0, 0.0, 0.37), 50.0)
    with pytest.raises(EventBudgetExceededError):
        list(tracer._trace_batch(octagon, _columns([TangentState(0, 0.0, 0.0, 0.37)]), 50.0))


# two unit squares glued into a torus: two faces, and vertices that are not conical
TWO_SQUARES = (
    "surface two_squares\nface 0 4 0 0 1 0 1 1 0 1\nface 1 4 0 0 1 0 1 1 0 1\n"
    "glue 0.0 1.2\nglue 0.2 1.0\nglue 0.1 1.3\nglue 0.3 1.1\n"
)


def _octagon_cut():
    """octagon6pi cut along the diagonal v0-v3 into a quad and a hexagon: faces of unequal size."""
    v = [(math.cos((2 * k - 1) * math.pi / 8), math.sin((2 * k - 1) * math.pi / 8)) for k in range(8)]
    face = lambda i, idx: f"face {i} {len(idx)} " + " ".join(f"{c!r}" for k in idx for c in v[k])
    return parse_surface(
        "surface octagon_cut\n" + face(0, [0, 1, 2, 3]) + "\n" + face(1, [3, 4, 5, 6, 7, 0]) + "\n"
        "glue 0.0 1.1\nglue 0.1 1.2\nglue 0.2 1.3\nglue 1.0 1.4\nglue 0.3 1.5\n"
    )


def _batch_starts(s, seed):
    """200 seeded random states, starts aimed at and leaving every corner, starts
    a hair outside every edge heading out (an exit at t <= 0: trace's guard and clamp),
    and horizontal starts of direction 0.0 and -0.0 from inside every face (the sign
    bit, and chart steps to a direction of exactly 2*pi that a translation must reset)."""
    rng = np.random.default_rng(seed)
    starts = [random_state(s, rng) for _ in range(200)]
    for f, poly in enumerate(s.faces):
        cx = sum(p[0] for p in poly) / len(poly)
        cy = sum(p[1] for p in poly) / len(poly)
        starts += [TangentState(f, cx, cy, 0.0), TangentState(f, cx, cy, -0.0)]
        for vx, vy in poly:
            starts.append(TangentState(f, cx, cy, math.atan2(vy - cy, vx - cx)))
            starts.append(TangentState(f, vx, vy, math.atan2(cy - vy, cx - vx)))
        for ax, ay, nx, ny, bx, by in s.edge_rows[f]:
            k = 5 * s.eps_geom / math.hypot(nx, ny)
            starts.append(TangentState(f, (ax + bx) / 2 + k * nx, (ay + by) / 2 + k * ny,
                                       math.atan2(ny, nx) + 0.3))
    return starts


def _scalar_lane(s, start, length):
    """trace's path as the batch reports it: segment rows, end state, cone hit, length."""
    path = trace(s, start, length)
    rows, arc = [], 0.0
    for seg in path.segments:
        rows.append((seg.face, *seg.entry, *seg.exit, seg.length, seg.direction,
                     math.cos(seg.direction), math.sin(seg.direction), arc))
        arc += seg.length
    hits = [(h.vclass, h.face, h.vertex, h.arc_length) for h in path.cone_hits]
    end = (path.end.face, path.end.x, path.end.y, path.end.direction)
    return rows, end, hits, path.length


def _columns(starts):
    """The (face, x, y, direction) arrays that `_trace_batch` takes for a list of states."""
    face, x, y, direction = zip(*((st.face, st.x, st.y, st.direction) for st in starts))
    return np.array(face), np.array(x), np.array(y), np.array(direction)


def _batch_lanes(s, starts, length):
    rows = [[] for _ in starts]
    hits = [[] for _ in starts]
    for st in tracer._trace_batch(s, _columns(starts), length):
        for i in np.flatnonzero(st.run).tolist():
            rows[i].append(tuple(col[i].item() for col in st[1:11]))
            if st.cone[i] >= 0:
                hits[i].append((st.cone[i].item(), st.face[i].item(), st.vertex[i].item(),
                                (st.arc[i] + st.length[i]).item()))
    out = []
    for r, h in zip(rows, hits):
        face, _, _, qx, qy, seg_len, direction, _, _, arc = r[-1]
        out.append((r, (face, qx, qy, direction), h, arc + seg_len))
    return out


def test_non_finite_start_rejected(octagon):
    # a NaN coordinate fails every edge test of contains; an infinite one fails some edge
    for x, y in ((math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                 (0.0, -math.inf)):
        assert not octagon.contains(SurfacePoint(0, x, y))
        with pytest.raises(ValueError, match="not inside its face"):
            trace(octagon, TangentState(0, x, y, 0.3), 5.0)
    for direction in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="direction is not finite"):
            trace(octagon, TangentState(0, 0.0, 0.0, direction), 5.0)
        starts = [TangentState(0, 0.0, 0.0, 0.3), TangentState(0, 0.1, 0.0, direction)]
        with pytest.raises(ValueError, match="direction is not finite"):
            list(tracer._trace_batch(octagon, _columns(starts), 5.0))


@pytest.mark.parametrize("bad", [(0, 5.0, 5.0), (-1, 0.0, 0.0), (2, 0.0, 0.0),
                                 (0, math.nan, 0.0), (1, 0.5, math.nan)],
                         ids=["outside", "face-neg", "face-len", "nan-x", "nan-y"])
def test_batch_rejects_bad_start(bad):
    # one bad lane among good starts stops the batch before its first step
    s = _octagon_cut()
    starts = [random_state(s, np.random.default_rng([5, i])) for i in range(20)]
    starts.insert(7, TangentState(*bad, 0.3))
    with pytest.raises(ValueError, match="not inside its face"):
        next(tracer._trace_batch(s, _columns(starts), 10.0))


@pytest.mark.parametrize("name", ["octagon6pi", "decagon4pi4pi", "two_squares", "octagon_cut"])
@pytest.mark.parametrize("length", [0.0, 40.0])
def test_batch_matches_trace(name, length):
    # every lane of the batched stepper is bit-equal to the scalar trace:
    # segments, end state, cone hit and length (repr tells -0.0 from 0.0)
    surfaces = {"two_squares": lambda: parse_surface(TWO_SQUARES), "octagon_cut": _octagon_cut}
    s = surfaces.get(name, lambda: builtin(name))()
    starts = _batch_starts(s, seed=71)
    lanes = _batch_lanes(s, starts, length)
    for start, lane in zip(starts, lanes):
        assert repr(lane) == repr(_scalar_lane(s, start, length)), start
    if length and s.conical_classes:
        # each start aimed at a conical corner ends there
        assert sum(bool(lane[2]) for lane in lanes) >= sum(
            len(s.conical_vertices[f]) for f in range(len(s.faces)))


def _hit(octagon):
    return trace(octagon, TangentState(0, 0.0, 0.0, VERTEX_DIR), 2.0).cone_hits[0]


def test_cone_scatter_symmetric(octagon):
    # split the 6pi cone angle evenly: 3pi on each side
    st = cone_scatter(octagon, _hit(octagon), 3 * math.pi)
    assert st.face == 0


def test_cone_scatter_too_shallow(octagon):
    # one side angle of 0.5 < pi: not length-minimizing
    with pytest.raises(InvalidScatterError):
        cone_scatter(octagon, _hit(octagon), 0.5)


def test_cone_scatter_boundary_pi(octagon):
    cone_scatter(octagon, _hit(octagon), math.pi)


def test_develop_single_face(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 0.5)
    isos, polyline = develop(p)
    assert len(polyline) == 2
    assert len(isos) == 1
    assert isos[0].almost_equal(isos[0].identity(), 1e-12)


def test_develop_is_isometric(octagon, decagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 2.5)
    isos, polyline = develop(p)
    assert math.dist(polyline[0], polyline[-1]) == pytest.approx(2.5, abs=1e-9)
    # translation gluing: no rotation picked up
    assert abs(isos[-1].rot) < 1e-12
    # reversed multi-crossing traces must carry chart placements that develop straight
    for s in (octagon, decagon):
        for direction in (0.3, 1.1, 2.0, 4.4):
            p = trace(s, TangentState(0, 0.1, -0.05, direction), 12.0)
            assert not p.cone_hits and len(p.edge_crossings) >= 5
            for q in (p, reverse(p)):
                _, polyline = develop(q)
                assert math.dist(polyline[0], polyline[-1]) == pytest.approx(12.0, abs=1e-9)


def test_scattered_continuation_traces(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, VERTEX_DIR), 2.0)
    ext = trace(octagon, cone_scatter(octagon, p.cone_hits[0], 3 * math.pi), 0.5)
    assert ext.length == pytest.approx(0.5, abs=1e-9)


def test_holonomy_mid_loop(octagon):
    period = 2 * APOTHEM
    loop = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), period)
    h = holonomy(octagon, loop)
    assert abs(h.rot) < 1e-12
    assert (h.tx, h.ty) == pytest.approx((period, 0.0), abs=1e-9)
    assert holonomy(octagon, reverse(loop)).almost_equal(h.inverse(), 1e-12)


def test_holonomy_requires_loop(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 0.7)
    with pytest.raises(NotALoopError):
        holonomy(octagon, p)


def test_holonomy_functoriality(octagon):
    rng = np.random.default_rng(5)
    for _ in range(100):
        w1 = [(int(rng.integers(4)), bool(rng.integers(2))) for _ in range(int(rng.integers(1, 4)))]
        w2 = [(int(rng.integers(4)), bool(rng.integers(2))) for _ in range(int(rng.integers(1, 4)))]
        ha, hb = word_holonomy(octagon, w1), word_holonomy(octagon, w2)
        assert word_holonomy(octagon, w1 + w2).almost_equal(hb.compose(ha), 1e-8)


def test_itinerary(octagon):
    def letters(path):
        return [(ev.gluing, ev.forward) for ev in path.edge_crossings]

    assert letters(trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 0.5)) == []
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 2.5)
    assert letters(p) == [(0, True)]
    assert letters(reverse(p)) == [(0, False)]


def test_time_shift_identity_and_full(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.37), 3.0)
    assert time_shift(p, 0.0).length == pytest.approx(p.length)
    tail = time_shift(p, p.length)
    assert tail.length == pytest.approx(0.0, abs=1e-12)


def test_time_shift_example(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 2.5)
    q = time_shift(p, 1.0)
    assert q.length == pytest.approx(1.5, abs=1e-12)
    assert q.start.x == pytest.approx(-APOTHEM + (1.0 - APOTHEM), abs=1e-12)


def test_time_shift_composes(octagon):
    p = trace(octagon, TangentState(0, 0.05, 0.02, 1.1), 5.0)
    a, b = 1.3, 0.9
    q1 = time_shift(time_shift(p, a), b)
    q2 = time_shift(p, a + b)
    assert q1.start.face == q2.start.face
    assert (q1.start.x, q1.start.y) == pytest.approx((q2.start.x, q2.start.y), abs=1e-9)
    assert q1.length == pytest.approx(q2.length, abs=1e-9)


def test_time_shift_out_of_window(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(OutOfWindowError):
        time_shift(p, 2.0)


def test_state_point_consistency(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.37), 5.0)
    st = state_at(p, 2.2)
    pt = point_at(p, 2.2)
    assert (st.face, st.x, st.y) == (pt.face, pt.x, pt.y)


def test_determinism(octagon):
    a = trace(octagon, TangentState(0, 0.01, 0.02, 0.777), 30.0)
    b = trace(octagon, TangentState(0, 0.01, 0.02, 0.777), 30.0)
    assert a.end == b.end
    assert [s.length for s in a.segments] == [s.length for s in b.segments]


def test_ray_uniqueness_surrogate(octagon):
    # distinct directions from one point: developed images share only the start
    p1 = trace(octagon, TangentState(0, 0.0, 0.0, 0.3), 10.0)
    p2 = trace(octagon, TangentState(0, 0.0, 0.0, 0.9), 10.0)
    _, l1 = develop(p1)
    _, l2 = develop(p2)
    assert l1[0] == l2[0]
    assert math.dist(l1[-1], l2[-1]) > 1.0


def test_min_cone_profile_mid_loop(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 2 * APOTHEM)
    prof = min_cone_distance_profile(octagon, p)
    assert prof[-1][1] == pytest.approx(math.sin(math.pi / 8), abs=1e-9)
    assert min(v for _, v in prof) == pytest.approx(math.sin(math.pi / 8), abs=1e-9)


def test_min_cone_profile_reaches_zero_on_hit(octagon):
    p = trace(octagon, TangentState(0, 0.0, 0.0, VERTEX_DIR), 2.0)
    prof = min_cone_distance_profile(octagon, p)
    assert prof[-1][1] == pytest.approx(0.0, abs=1e-9)


def test_min_cone_profile_non_increasing(octagon):
    p = trace(octagon, TangentState(0, 0.03, -0.04, 0.73), 40.0)
    prof = min_cone_distance_profile(octagon, p)
    vals = [v for _, v in prof]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
