"""Distances, saddle connections, Busemann estimates, reparametrization."""
import hashlib
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from conetrace import (
    ConetraceError,
    SurfacePoint,
    TangentState,
    builtin,
    busemann,
    convergence_profile,
    equidistant_reparam,
    local_distance,
    point_at,
    shortest_saddle_connection,
    state_at,
    trace,
)
from conetrace import metric
from conetrace.errors import ExceedsRadiusError, NoBracketError, SearchTruncatedError

APOTHEM = math.cos(math.pi / 8)


# ---------------------------------------------------------------------------
# local_distance: spot values

def test_same_face_chord(octagon):
    d = local_distance(octagon, SurfacePoint(0, 0.0, 0.0), SurfacePoint(0, 0.3, 0.0), 16.0)
    assert d == pytest.approx(0.3, abs=1e-9)


def test_zero_distance(octagon):
    p = SurfacePoint(0, 0.17, -0.05)
    assert local_distance(octagon, p, p, 16.0) == 0.0


def test_through_gluing_beats_interior_chord(octagon):
    # antipodal pair near opposite edges: the glued copy is much closer
    d = local_distance(octagon, SurfacePoint(0, 0.9, 0.0), SurfacePoint(0, -0.9, 0.0), 16.0)
    assert d == pytest.approx(2 * APOTHEM - 1.8, abs=1e-9)


def test_near_apex_chord(octagon):
    # angular separation 0.5 < pi around the cone: straight chord, law of cosines
    a = octagon.cone_chart_point(0, 0.2, 0.1)
    c = octagon.cone_chart_point(0, 0.2, 0.6)
    want = math.sqrt(0.08 - 0.08 * math.cos(0.5))
    assert local_distance(octagon, a, c, 16.0) == pytest.approx(want, abs=1e-9)


def test_near_apex_far_sector(octagon):
    # separation 3pi: the apex route gives 0.4, but a glued copy is closer still
    a = octagon.cone_chart_point(0, 0.2, 0.1)
    b = octagon.cone_chart_point(0, 0.2, 0.1 + 3 * math.pi)
    d = local_distance(octagon, a, b, 16.0)
    assert d <= 0.4 + 1e-9
    assert d == pytest.approx(0.36952924502541795, abs=1e-9)


def test_exceeds_radius(octagon):
    with pytest.raises(ExceedsRadiusError):
        local_distance(octagon, SurfacePoint(0, 0.0, 0.0), SurfacePoint(0, 0.3, 0.0), 0.1)


def _random_points(s, rng, n):
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-1, 1, size=2)
        if s.contains(SurfacePoint(0, x, y)):
            pts.append(SurfacePoint(0, x, y))
    return pts


def test_symmetry_and_triangle(octagon):
    rng = np.random.default_rng(11)
    pts = _random_points(octagon, rng, 12)
    d = {}
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i < j:
                d[i, j] = local_distance(octagon, a, b, 16.0)
                assert d[i, j] == pytest.approx(local_distance(octagon, b, a, 16.0), abs=1e-9)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(len(pts)):
                if k in (i, j):
                    continue
                a, b = min(i, k), max(i, k)
                c, e = min(k, j), max(k, j)
                assert d[i, j] <= d[a, b] + d[c, e] + 1e-9


# ---------------------------------------------------------------------------
# local_distance: grid-graph shortest-path oracle

def _grid_oracle(s, queries):
    """Dijkstra over a dense grid graph stitched across gluings.

    16-neighborhood (kings + knights) keeps the metric anisotropy below ~3%;
    the returned lengths over-estimate the true distances by at most that
    factor plus a couple of grid pitches.
    """
    p = 0.01
    verts = np.array(s.faces[0])
    xs = np.arange(-1.0, 1.0 + p / 2, p)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    def inside(q):
        q = np.atleast_2d(q)
        ok = np.ones(len(q), bool)
        for k in range(len(verts)):
            a, b = verts[k], verts[(k + 1) % len(verts)]
            cross = (b[0] - a[0]) * (q[:, 1] - a[1]) - (b[1] - a[1]) * (q[:, 0] - a[0])
            ok &= cross >= -1e-9
        return ok

    mask = inside(pts)
    idx = -np.ones(len(pts), dtype=np.int64)
    idx[mask] = np.arange(mask.sum())
    nodes = pts[mask]
    n_grid = len(nodes)
    nx = len(xs)

    rows, cols, wts = [], [], []
    for dx, dy in [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)]:
        shift = dx * nx + dy
        i = np.arange(len(pts))
        j = i + shift
        ok = (j >= 0) & (j < len(pts)) & mask
        # avoid wrapping across grid rows
        col = i % nx
        ok &= (col + dy >= 0) & (col + dy < nx)
        ok &= mask[np.clip(j, 0, len(pts) - 1)]
        rows.append(idx[i[ok]])
        cols.append(idx[j[ok]])
        wts.append(np.full(ok.sum(), p * math.hypot(dx, dy)))

    # stitch glued edges: samples q on edge k and their translates q' on the
    # partner edge act as zero-length portals anchored to nearby grid nodes
    extra_nodes = []
    portal_pairs = []
    for (fa, ea), (fb, eb) in s.gluings:
        a0, a1 = verts[ea], verts[(ea + 1) % len(verts)]
        mid = (a0 + a1) / 2.0
        t_vec = -2.0 * APOTHEM * mid / np.linalg.norm(mid)
        m = int(np.ceil(np.linalg.norm(a1 - a0) / (p / 2)))
        for k in range(m + 1):
            q = a0 + (a1 - a0) * k / m
            portal_pairs.append((len(extra_nodes), len(extra_nodes) + 1))
            extra_nodes.append(q)
            extra_nodes.append(q + t_vec)
    extra = np.array(extra_nodes)
    all_nodes = np.vstack([nodes, extra, np.array([[q.x, q.y] for ab in queries for q in ab])])

    def anchor(point_rows, base):
        for r, q in enumerate(point_rows):
            lo = np.maximum(q - 2.2 * p, -1.0)
            i0 = np.searchsorted(xs, lo[0])
            i1 = np.searchsorted(xs, q[0] + 2.2 * p)
            j0 = np.searchsorted(xs, lo[1])
            j1 = np.searchsorted(xs, q[1] + 2.2 * p)
            for ii in range(i0, min(i1 + 1, nx)):
                for jj in range(j0, min(j1 + 1, nx)):
                    flat = ii * nx + jj
                    if mask[flat]:
                        w = math.dist(q, pts[flat])
                        if w <= 2.2 * p:
                            rows.append(np.array([base + r]))
                            cols.append(np.array([idx[flat]]))
                            wts.append(np.array([w]))

    anchor(extra, n_grid)
    anchor(all_nodes[n_grid + len(extra):], n_grid + len(extra))
    for a, b in portal_pairs:
        rows.append(np.array([n_grid + a]))
        cols.append(np.array([n_grid + b]))
        wts.append(np.array([0.0]))

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    w = np.concatenate(wts)
    n = len(all_nodes)
    g = coo_matrix((np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
                   shape=(n, n)).tocsr()
    q0 = n_grid + len(extra)
    srcs = np.arange(q0, n, 2)
    dist = dijkstra(g, directed=False, indices=srcs)
    return [dist[k, q0 + 2 * k + 1] for k in range(len(queries))]


def test_against_grid_oracle(octagon):
    rng = np.random.default_rng(23)
    queries = []
    for _ in range(100):
        a, b = _random_points(octagon, rng, 2)
        queries.append((a, b))
    oracle = _grid_oracle(octagon, queries)
    p = 0.01
    bad = 0
    for (a, b), o in zip(queries, oracle):
        d = local_distance(octagon, a, b, 16.0)
        assert d <= o + 1e-9  # the graph length can only over-estimate
        if abs(o - d) > 0.03 * d + 2 * p:
            bad += 1
    assert bad <= 1


# ---------------------------------------------------------------------------
# saddle connections

def test_saddle_connection_octagon(octagon):
    assert shortest_saddle_connection(octagon) == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-9)


def test_saddle_connection_decagon(decagon):
    assert shortest_saddle_connection(decagon) == pytest.approx(2 * math.sin(math.pi / 10), abs=1e-9)


# ---------------------------------------------------------------------------
# Busemann estimates

def test_busemann_identical_points(octagon):
    ray = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 130.0)
    est = busemann(octagon, ray, SurfacePoint(0, 0.1, 0.05), SurfacePoint(0, 0.1, 0.05))
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_busemann_along_ray(octagon):
    # xp ahead of x on the ray by less than half the systole, so the lifts
    # land on the developed ray itself and the difference is exactly -0.3
    ray = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 130.0)
    x = SurfacePoint(0, 0.0, 0.0)
    xp = point_at(ray, 0.3)
    est = busemann(octagon, ray, x, xp)
    assert est.value == pytest.approx(-0.3, abs=1e-9)
    assert est.converged


def test_busemann_horocycle_offset(octagon):
    # perpendicular offset 0.15: alpha decays like 0.15^2 / (2t)
    ray = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 130.0)
    est = busemann(octagon, ray, SurfacePoint(0, 0.0, 0.0), SurfacePoint(0, 0.0, 0.15))
    assert est.converged
    assert abs(est.value) < 1e-4


def test_busemann_lipschitz_and_monotone(octagon):
    # base point taken on the ray: the history is then exactly non-increasing
    rng = np.random.default_rng(3)
    for _ in range(10):
        ray = trace(octagon, TangentState(0, 0.0, 0.0, rng.uniform(0, 2 * math.pi)), 130.0)
        x = point_at(ray, rng.uniform(0.0, 0.3))
        (xp,) = _random_points(octagon, rng, 1)
        d = local_distance(octagon, x, xp, 16.0)
        est = busemann(octagon, ray, x, xp)
        assert abs(est.value) <= d + 1e-6
        vals = [v for _, v in est.history]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def _seeded_queries(s, seed):
    """Ten seeded Busemann queries (ray, x, x'): x near the base of a cone-free ray."""
    rng = np.random.default_rng(seed)
    queries = []
    while len(queries) < 10:
        ray = trace(s, TangentState(0, 0.0, 0.0, rng.uniform(0, 2 * math.pi)), 130.0)
        if not ray.cone_hits:
            x = point_at(ray, rng.uniform(0.0, 0.3))
            queries.append((ray, x, _random_points(s, rng, 1)[0]))
    return queries


# the seeded queries whose minimiser from x to x' bends at a cone
SEEDED_BENT = {"octagon6pi": [], "decagon4pi4pi": [7]}
# sha256 of the reprs of the straight queries' estimates
STRAIGHT_DIGESTS = {
    "octagon6pi": "193bf35f089fedd37243121ef5e2e6830c0278c95d211e36e566396d083b657e",
    "decagon4pi4pi": "535064bb17415ae72233d429b8bf69b7c444270ad4c6eaba5eb359c7b2aabe99",
}


@pytest.mark.parametrize("name,seed", [("octagon6pi", 61), ("decagon4pi4pi", 67)])
def test_busemann_lifts_match_enumeration(name, seed):
    # a straight minimiser lifts x' to the nearest copy that a straight chord
    # from x reaches, among all the copies `_enumerate_lifts` collects, and the
    # estimates of the straight queries stay bit-exact
    s = builtin(name)
    reprs = []
    for i, (ray, x, xp) in enumerate(_seeded_queries(s, seed)):
        d, place = metric.lift_point(s, x, xp, 16.0)
        lifted = place.apply(xp.x, xp.y)
        # a straight minimiser's lift lies at the distance d(x, x')
        straight = abs(math.dist(lifted, (x.x, x.y)) - d) <= 1e-12
        assert straight == (i not in SEEDED_BENT[name])
        if not straight:
            continue
        copies = [p.apply(xp.x, xp.y) for p in metric._enumerate_lifts(s, x, xp, d + 1e-9)]
        nearest = min(copies, key=lambda q: math.dist(q, (x.x, x.y)))
        assert math.dist(nearest, lifted) <= 1e-12
        reprs.append(repr(busemann(s, ray, x, xp)))
    assert hashlib.sha256(repr(reprs).encode()).hexdigest() == STRAIGHT_DIGESTS[name]


# queries whose minimiser from x to x' bends at a cone: (ray direction, x, x');
# the octagon's is criterion 7's, the decagon's second is its seeded query 7 above
BENT_QUERIES = [
    ("octagon6pi", 2.847227441940403, (-0.2780692674681221, 0.08430308071884868),
     (-0.3602186753525416, -0.9165558827092606)),
    ("decagon4pi4pi", 3.8485628675173906, (-0.21464231561794903, -0.18336338656569978),
     (0.6176876180693398, -0.6942699537086543)),
    ("decagon4pi4pi", 2.0597490972164887, (-0.12117642454808385, 0.22775651369842115),
     (-0.665481530168798, -0.6148644891462276)),
]


@pytest.mark.parametrize("name,theta,x,xp", BENT_QUERIES)
def test_busemann_bent_lift_develops_minimiser(name, theta, x, xp):
    # the lift of x' is the developed end of the chain x -> apex -> x', whose
    # length is d(x, x'); it bends, so the lift lies strictly closer than d
    s = builtin(name)
    x, xp = SurfacePoint(0, *x), SurfacePoint(0, *xp)
    d, place = metric.lift_point(s, x, xp, 16.0)
    lx, ly = place.apply(xp.x, xp.y)
    assert math.hypot(lx - x.x, ly - x.y) < d - 1e-9
    apices = metric._chords(s, metric._point_roots(x), None, d).to_class.values()
    chains = []
    for to_apex, _, apex_place, (face, vertex) in apices:
        ax, ay = apex_place.apply(*s.faces[face][vertex])
        chains.append(to_apex + math.hypot(lx - ax, ly - ay))
    assert min(abs(c - d) for c in chains) <= 1e-12
    est = busemann(s, trace(s, TangentState(0, 0.0, 0.0, theta), 130.0), x, xp)
    assert abs(est.value) <= d


def test_point_not_on_surface(octagon):
    origin = SurfacePoint(0, 0.0, 0.0)
    # a NaN coordinate used to pass contains and ran the search to its node budget
    for bad in (SurfacePoint(0, 5.0, 5.0), SurfacePoint(2, 0.0, 0.0), SurfacePoint(-1, 0.0, 0.0),
                SurfacePoint(0, math.nan, 0.0), SurfacePoint(0, 0.0, math.nan)):
        with pytest.raises(ValueError):
            local_distance(octagon, bad, origin, 16.0)
    ray = trace(octagon, TangentState(0, 0.0, 0.0, 0.3), 10.0)
    with pytest.raises(ValueError):
        busemann(octagon, ray, origin, SurfacePoint(0, 5.0, 5.0))
    for args in ((SurfacePoint(0, 5.0, 5.0), origin), (origin, SurfacePoint(0, 5.0, 5.0))):
        with pytest.raises(ValueError):
            metric.lift_point(octagon, *args, 16.0)
    # a point on an edge, as point_at returns it, is on the surface
    on_edge = point_at(trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 5.0), APOTHEM)
    assert local_distance(octagon, origin, on_edge, 16.0) == pytest.approx(APOTHEM, abs=1e-12)


def test_busemann_bad_schedule(octagon):
    ray = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 10.0)
    with pytest.raises(ValueError):
        busemann(octagon, ray, SurfacePoint(0, 0.0, 0.0), SurfacePoint(0, 0.1, 0.0),
                 schedule=[2.0, 1.0])
    with pytest.raises(ValueError):
        busemann(octagon, ray, SurfacePoint(0, 0.0, 0.0), SurfacePoint(0, 0.1, 0.0),
                 schedule=[5.0, 50.0])


# ---------------------------------------------------------------------------
# equidistant reparametrization

def test_reparam_recovers_time_shift(octagon):
    g1 = trace(octagon, TangentState(0, 0.0, 0.0, 0.4), 40.0)
    g2 = trace(octagon, state_at(g1, 3.0), 30.0)
    c = equidistant_reparam(octagon, g1, g2)
    assert c == pytest.approx(3.0, abs=1e-9)


def test_reparam_cylinder_shift_mod_period(octagon):
    # direction 0 through the center is a closed cylinder core; the shift is
    # defined only mod the period 2 cos(pi/8) and ties resolve to least |c|
    period = 2 * APOTHEM
    g1 = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 40.0)
    g2 = trace(octagon, state_at(g1, 3.0), 30.0)
    c = equidistant_reparam(octagon, g1, g2)
    assert c == pytest.approx(3.0 - 2 * period, abs=1e-9)


def test_reparam_parallel_offset_is_zero(octagon):
    g1 = trace(octagon, TangentState(0, 0.0, -0.025, 0.0), 40.0)
    g2 = trace(octagon, TangentState(0, 0.0, 0.025, 0.0), 40.0)
    assert equidistant_reparam(octagon, g1, g2) == pytest.approx(0.0, abs=1e-9)


def test_reparam_anti_parallel_raises(octagon):
    g1 = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 40.0)
    g2 = trace(octagon, TangentState(0, 0.0, 0.1, math.pi), 40.0)
    with pytest.raises(NoBracketError):
        equidistant_reparam(octagon, g1, g2)


# ---------------------------------------------------------------------------
# convergence profiles

def _aimed_pair(octagon, theta, span, length):
    far = 1000.0
    qx, qy = far * math.cos(theta), far * math.sin(theta)
    out = []
    for sgn in (-1.0, 1.0):
        bx, by = sgn * span * -math.sin(theta), sgn * span * math.cos(theta)
        d = math.atan2(qy - by, qx - bx)
        out.append(trace(octagon, TangentState(0, bx, by, d), length))
    return out


def test_profile_flat_strip_constant(octagon):
    g1 = trace(octagon, TangentState(0, 0.0, -0.025, 0.0), 40.0)
    g2 = trace(octagon, TangentState(0, 0.0, 0.025, 0.0), 40.0)
    prof = convergence_profile(octagon, g1, g2, 35.0)
    for _, d in prof:
        assert d == pytest.approx(0.05, abs=1e-9)
    for n in (0, 1):
        with pytest.raises(ValueError):
            convergence_profile(octagon, g1, g2, 35.0, n_samples=n)


def test_profile_converging_pair(octagon):
    g1, g2 = _aimed_pair(octagon, 0.23, 0.5, 950.0)
    c = equidistant_reparam(octagon, g1, g2)
    if c >= 0:
        g1 = trace(octagon, state_at(g1, c), 930.0)
    else:
        g2 = trace(octagon, state_at(g2, -c), 930.0)
    prof = convergence_profile(octagon, g1, g2, 920.0)
    vals = [d for _, d in prof]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5 * vals[0]


def test_reparam_shift_of_the_shared_copy(octagon):
    # criterion 9's pairs start in one chart, aimed at a common far point: the
    # shift is that of the copy of g2 they share, the projection of b2 - b1 onto e1
    rng = np.random.default_rng(9)
    for _ in range(20):
        g1, g2 = _aimed_pair(octagon, rng.uniform(0, 2 * math.pi), 0.5, 950.0)
        b1, b2 = g1.start, g2.start
        want = (b2.x - b1.x) * math.cos(b1.direction) + (b2.y - b1.y) * math.sin(b1.direction)
        assert equidistant_reparam(octagon, g1, g2) == pytest.approx(want, abs=1e-12)


def test_profile_requires_fellow_traveler(octagon):
    g1 = trace(octagon, TangentState(0, 0.0, 0.0, 0.0), 40.0)
    g2 = trace(octagon, TangentState(0, 0.0, 0.1, math.pi), 40.0)
    with pytest.raises(NoBracketError):
        convergence_profile(octagon, g1, g2, 35.0)


# ---------------------------------------------------------------------------
# exactness gate: shortcuts in the unfolding search must not move any
# distance bit (sha256 of the repr of seeded outputs)

EXACT_RADII = (0.3, 1.0, 2.0, 16.0)


def _exactness_records(s, seed):
    rng = np.random.default_rng(seed)
    pts = [SurfacePoint(0, float(p.x), float(p.y)) for p in _random_points(s, rng, 10)]
    pairs = [(pts[2 * k], pts[2 * k + 1]) for k in range(5)]
    for p in pts[:3]:
        # a near partner, so that the small radii find chords too
        while True:
            r, a = rng.uniform(0.05, 0.28), rng.uniform(0.0, 2 * math.pi)
            q = SurfacePoint(0, p.x + float(r * math.cos(a)), p.y + float(r * math.sin(a)))
            if s.contains(q):
                break
        pairs.append((p, q))
    for cid in s.conical_classes:
        # a straight chord past the apex, and a pair 3*pi apart around it
        for sep in (1.0, 3 * math.pi):
            pairs.append((s.cone_chart_point(cid, 0.2, 0.1), s.cone_chart_point(cid, 0.2, 0.1 + sep)))
    rec = []
    for a, b in pairs:
        for r in EXACT_RADII:
            try:
                rec.append(("d", r, local_distance(s, a, b, r)))
            except ConetraceError as exc:
                rec.append(("d", r, type(exc).__name__, getattr(exc, "best", None)))
    return rec


@pytest.mark.parametrize("name,seed,digest", [
    ("octagon6pi", 41, "51996bd636bd571844d1675c8a83aeee6a3f81c04de09ce906fff28084a4a90c"),
    ("decagon4pi4pi", 43, "bccb82377ef80e0f2a92cb2cf16e661e24c7ab2ab4172abfb323c5c65d81c216"),
])
def test_distances_bit_exact(name, seed, digest):
    rec = _exactness_records(builtin(name), seed)
    assert hashlib.sha256(repr(rec).encode()).hexdigest() == digest


def test_chord_search_stops_at_target(octagon):
    # once the chord to the target is known, nodes farther out cannot shorten it
    x, y = SurfacePoint(0, 0.1, -0.2), SurfacePoint(0, -0.15, 0.05)
    roots = metric._point_roots(x)
    to_y = metric._chords(octagon, roots, y, 16.0)
    everything = metric._chords(octagon, roots, None, 16.0)
    assert to_y.to_target == pytest.approx(math.hypot(0.25, 0.25), abs=1e-15)
    assert to_y.complete and everything.complete
    assert 50 * to_y.nodes < everything.nodes


@pytest.mark.parametrize("limit,value", [("NODE_BUDGET", 1), ("MAX_DEPTH", 0)])
def test_truncated_search_raises(octagon, monkeypatch, limit, value):
    monkeypatch.setattr(metric, limit, value)
    # the chord to the glued copy crosses an edge, so one node cannot find it
    with pytest.raises(SearchTruncatedError):
        local_distance(octagon, SurfacePoint(0, 0.9, 0.0), SurfacePoint(0, -0.9, 0.0), 16.0)
    with pytest.raises(SearchTruncatedError):
        shortest_saddle_connection(octagon)
    with pytest.raises(SearchTruncatedError):
        metric._enumerate_lifts(octagon, SurfacePoint(0, 0.9, 0.0), SurfacePoint(0, -0.9, 0.0), 2.0)
