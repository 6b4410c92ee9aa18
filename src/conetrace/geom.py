"""Plane geometry primitives: rigid motions, convex polygons, angular windows.

Everything here works on plain floats and tuples; the tracing and unfolding
hot loops call into these helpers, so they avoid per-call array allocation.
"""
from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
EPS_ANGLE = 1e-9  # radians; angles closer than this count as equal


def norm_angle(a: float) -> float:
    """Reduce an angle modulo 2*pi.  The result lies in [0, 2*pi), except that a remainder
    of -0.0 (from -0.0 or -2*pi) stays -0.0 and one in [-4.4e-16, 0) rounds up to 2*pi."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def ang_diff(a: float, b: float) -> float:
    """Signed difference a-b wrapped to (-pi, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d <= -math.pi:
        d += TWO_PI
    elif d > math.pi:
        d -= TWO_PI
    return d


class PlaneIsometry:
    """Orientation-preserving rigid motion: rotation by `rot` followed by translation.

    `c` and `s` are cos(rot) and sin(rot), computed once when the isometry is
    built; every method reads them, so applying, composing or inverting an
    isometry calls no trig and every placement by one isometry uses the same
    two values.  Treat an isometry as immutable: `c` and `s` follow `rot` only
    through the constructor.  Equality, hashing and the repr use (rot, tx, ty).
    """

    __slots__ = ("rot", "tx", "ty", "c", "s")

    def __init__(self, rot: float, tx: float, ty: float):
        self.rot = rot
        self.tx = tx
        self.ty = ty
        self.c = math.cos(rot)
        self.s = math.sin(rot)

    def __repr__(self) -> str:
        return f"PlaneIsometry(rot={self.rot!r}, tx={self.tx!r}, ty={self.ty!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneIsometry):
            return NotImplemented
        return (self.rot, self.tx, self.ty) == (other.rot, other.tx, other.ty)

    def __hash__(self) -> int:
        return hash((self.rot, self.tx, self.ty))

    def apply(self, x: float, y: float) -> tuple[float, float]:
        c, s = self.c, self.s
        return (c * x - s * y + self.tx, s * x + c * y + self.ty)

    def apply_polygon(self, poly) -> list[tuple[float, float]]:
        """Each vertex placed as by `apply`."""
        c, s, tx, ty = self.c, self.s, self.tx, self.ty
        return [(c * x - s * y + tx, s * x + c * y + ty) for x, y in poly]

    def apply_dir(self, a: float) -> float:
        return norm_angle(a + self.rot)

    def compose(self, other: "PlaneIsometry") -> "PlaneIsometry":
        """self after other: (self.compose(other)).apply(p) == self.apply(*other.apply(p))."""
        c, s = self.c, self.s
        return PlaneIsometry(
            self.rot + other.rot,
            c * other.tx - s * other.ty + self.tx,
            s * other.tx + c * other.ty + self.ty,
        )

    def inverse(self) -> "PlaneIsometry":
        c, s = self.c, self.s
        return PlaneIsometry(-self.rot, -(c * self.tx + s * self.ty), s * self.tx - c * self.ty)

    @staticmethod
    def identity() -> "PlaneIsometry":
        return PlaneIsometry(0.0, 0.0, 0.0)

    @staticmethod
    def mapping_segment(
        q0: tuple[float, float],
        q1: tuple[float, float],
        p0: tuple[float, float],
        p1: tuple[float, float],
    ) -> "PlaneIsometry":
        """The rigid motion taking the directed segment q0->q1 onto p0->p1."""
        rot = math.atan2(p1[1] - p0[1], p1[0] - p0[0]) - math.atan2(q1[1] - q0[1], q1[0] - q0[0])
        r = PlaneIsometry(rot, 0.0, 0.0)
        tx = p0[0] - (r.c * q0[0] - r.s * q0[1])
        ty = p0[1] - (r.s * q0[0] + r.c * q0[1])
        return PlaneIsometry(rot, tx, ty)

    def almost_equal(self, other: "PlaneIsometry", tol: float) -> bool:
        return (
            abs(ang_diff(self.rot, other.rot)) <= tol
            and abs(self.tx - other.tx) <= tol
            and abs(self.ty - other.ty) <= tol
        )

    def matrix(self) -> tuple[float, float, float, float, float, float]:
        """Row-major 2x3 affine matrix (a, b, tx, c, d, ty)."""
        return (self.c, -self.s, self.tx, self.s, self.c, self.ty)


# ---------------------------------------------------------------------------
# polygons

def signed_area(poly: list[tuple[float, float]]) -> float:
    a = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def is_convex_ccw(poly: list[tuple[float, float]]) -> bool:
    """True when the polygon is convex and counterclockwise (no repeated points)."""
    n = len(poly)
    if n < 3:
        return False
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        cx, cy = poly[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross <= 0.0:
            return False
    return True


def centroid(poly: list[tuple[float, float]]) -> tuple[float, float]:
    n = len(poly)
    return (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n)


def circumradius(poly: list[tuple[float, float]]) -> float:
    cx, cy = centroid(poly)
    return max(math.hypot(p[0] - cx, p[1] - cy) for p in poly)


def point_in_convex(poly: list[tuple[float, float]], x: float, y: float, tol: float = 0.0) -> bool:
    """True when (x, y) is in the convex CCW polygon, within tol; never for a NaN coordinate."""
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if not (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= -tol:
            return False
    return True


def clip_convex(poly: list[tuple[float, float]], box: tuple[float, float, float, float]):
    """Sutherland-Hodgman clip of a convex CCW polygon against an axis box."""
    xlo, ylo, xhi, yhi = box
    pts = list(poly)
    # each half-plane keeps side * p[axis] >= side * bound; negation is exact
    for axis, bound, side in ((0, xlo, 1.0), (0, xhi, -1.0), (1, ylo, 1.0), (1, yhi, -1.0)):
        if not pts:
            return []
        inside = [side * p[axis] >= side * bound for p in pts]
        out = []
        for a, b, ia, ib in zip(pts, pts[1:] + pts[:1], inside, inside[1:] + inside[:1]):
            if ia:
                out.append(a)
            if ia != ib:
                t = (bound - a[axis]) / (b[axis] - a[axis])
                cut = a[1 - axis] + t * (b[1 - axis] - a[1 - axis])
                out.append((bound, cut) if axis == 0 else (cut, bound))
        pts = out
    return pts


def dist_point_segment(px, py, ax, ay, bx, by) -> float:
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    if vv <= 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


# ---------------------------------------------------------------------------
# angular windows for unfolding searches
#
# A window is either None (all directions) or a pair (lo, hi) of unnormalized
# angles with 0 < hi - lo < pi.  All windows produced by edge subtension have
# width below pi, so intersections stay representable.

WINDOW_MIN_WIDTH = 1e-14  # an intersection no wider than this is empty
WINDOW_TOL = 1e-12  # slack of window_contains at both ends


def subtend(px, py, ax, ay, bx, by):
    """Angular interval of directions from (px,py) that cross segment a-b, or None-width pair."""
    a1 = math.atan2(ay - py, ax - px)
    a2 = math.atan2(by - py, bx - px)
    d = ang_diff(a2, a1)
    if d >= 0.0:
        return (a1, a1 + d)
    return (a1 + d, a1)


def window_intersect(w, v):
    """Intersect two windows; None input means the full circle. Returns None when empty."""
    if w is None:
        lo, hi = v
        return (lo, hi) if hi - lo > WINDOW_MIN_WIDTH else None
    lo, hi = w
    a, b = v
    k = round(((lo + hi) - (a + b)) / (2.0 * TWO_PI))
    a += TWO_PI * k
    b += TWO_PI * k
    nlo = lo if lo > a else a
    nhi = hi if hi < b else b
    if nhi - nlo <= WINDOW_MIN_WIDTH:
        return None
    return (nlo, nhi)


def window_contains(w, ang) -> bool:
    if w is None:
        return True
    lo, hi = w
    k = round(((lo + hi) * 0.5 - ang) / TWO_PI)
    ang += TWO_PI * k
    return lo - WINDOW_TOL <= ang <= hi + WINDOW_TOL
