"""Surfaces built from convex Euclidean polygons glued along edges.

A surface is a list of convex CCW faces plus a perfect matching of directed
edges.  Glued edges are identified with reversed orientation, so the derived
chart-to-chart transitions are orientation preserving.  Vertex corners are
merged into classes by walking the gluings; the total corner angle of a class
is its cone angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DanglingEdgeError,
    NonConvexFaceError,
    SurfaceSyntaxError,
    UnknownBuiltinError,
)
from .geom import (
    EPS_ANGLE,
    TWO_PI,
    PlaneIsometry,
    circumradius,
    is_convex_ccw,
    norm_angle,
    point_in_convex,
    signed_area,
)


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the surface given in the chart of one face."""

    face: int
    x: float
    y: float


@dataclass
class Corner:
    """One polygon corner inside a vertex class, with its fan bookkeeping."""

    face: int
    vertex: int
    out_dir: float  # chart direction of the outgoing edge, where the wedge begins
    interior_angle: float
    fan_start: float  # cumulative cone coordinate where this corner's wedge begins


class Neighbour(NamedTuple):
    """One chart step across a glued edge: the face entered and its charts."""

    gluing: int
    forward: bool  # True when leaving through side A of the gluing
    face: int  # face entered
    edge: int  # edge of the entered face that was crossed
    transition: PlaneIsometry  # leaving chart -> entered chart
    placement: PlaneIsometry  # entered chart -> leaving chart, transition.inverse()


class ConeSurface:
    """Immutable glued-polygon surface. Build through parse_surface/builtin."""

    def __init__(self, name, faces, gluings, warnings=None):
        self.name = name
        self.faces = [list(map(tuple, f)) for f in faces]
        self.gluings = [((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))) for a, b in gluings]
        self.warnings = list(warnings or [])
        self._build_edges()
        self._build_transitions()
        self._build_vertex_classes()
        self.diam_hint = max(circumradius(f) for f in self.faces)
        self.eps_geom = 1e-9 * self.diam_hint
        self.eps_vertex = 1e-7 * self.diam_hint

    # -- construction helpers ------------------------------------------------

    def _build_edges(self):
        self.edge_of: dict[tuple[int, int], tuple[int, bool]] = {}
        for gi, (a, b) in enumerate(self.gluings):
            for side, is_a in ((a, True), (b, False)):
                if side in self.edge_of:
                    raise SurfaceSyntaxError(0, f"edge {side[0]}.{side[1]} glued twice")
                self.edge_of[side] = (gi, is_a)
        for fi, poly in enumerate(self.faces):
            for e in range(len(poly)):
                if (fi, e) not in self.edge_of:
                    raise DanglingEdgeError(fi, e)

    def edge_endpoints(self, face: int, edge: int):
        poly = self.faces[face]
        return poly[edge], poly[(edge + 1) % len(poly)]

    def _build_transitions(self):
        # to_b[gi] maps side-A chart coordinates to side-B chart coordinates,
        # matching the directed edges with reversed orientation (A start <-> B end).
        # neighbours[face][edge]: the chart step out of `face` through `edge`;
        # edge_rows[face][edge]: (ax, ay, nx, ny, bx, by) with the outward normal
        # (unnormalized) of the CCW edge a->b
        to_b = []
        for a, b in self.gluings:
            q0, q1 = self.edge_endpoints(*b)
            to_b.append(PlaneIsometry.mapping_segment(*self.edge_endpoints(*a), q1, q0))
        self.neighbours: list[list[Neighbour]] = []
        self.edge_rows: list[list[tuple]] = []
        for fi, poly in enumerate(self.faces):
            nbs, rows = [], []
            for e, (ax, ay) in enumerate(poly):
                gi, is_a = self.edge_of[(fi, e)]
                other = self.gluings[gi][1] if is_a else self.gluings[gi][0]
                trans = to_b[gi] if is_a else to_b[gi].inverse()
                nbs.append(Neighbour(gi, is_a, other[0], other[1], trans, trans.inverse()))
                bx, by = poly[(e + 1) % len(poly)]
                rows.append((ax, ay, by - ay, -(bx - ax), bx, by))
            self.neighbours.append(nbs)
            self.edge_rows.append(rows)

    def _corner(self, face: int, vertex: int, fan_start: float) -> Corner:
        poly = self.faces[face]
        n = len(poly)
        vx, vy = poly[vertex]
        px, py = poly[(vertex - 1) % n]
        nx, ny = poly[(vertex + 1) % n]
        a_next = math.atan2(ny - vy, nx - vx)
        a_prev = math.atan2(py - vy, px - vx)
        return Corner(face, vertex, a_next, norm_angle(a_prev - a_next), fan_start)

    def _turn(self, face: int, vertex: int, ccw: bool = True) -> tuple[Neighbour, tuple[int, int]]:
        # (chart step, next corner) turning about the vertex of corner (face, vertex).
        # CCW leaves the face across edge (face, vertex-1), which ENDS at the vertex, so
        # the next corner (nb.face, nb.edge) STARTS the partner edge; CW leaves across
        # edge (face, vertex), and the next corner ends the partner edge.
        nb = self.neighbours[face][(vertex - 1) % len(self.faces[face]) if ccw else vertex]
        return nb, (nb.face, nb.edge if ccw else (nb.edge + 1) % len(self.faces[nb.face]))

    def _build_vertex_classes(self):
        seen: dict[tuple[int, int], int] = {}
        self.corners: dict[tuple[int, int], Corner] = {}
        self.class_corners: list[list[Corner]] = []
        self.cone_angles: list[float] = []
        all_corners = sorted(
            (f, v) for f in range(len(self.faces)) for v in range(len(self.faces[f]))
        )
        for start in all_corners:
            if start in seen:
                continue
            cid = len(self.class_corners)
            fan: list[Corner] = []
            total = 0.0
            cur = start
            while True:
                seen[cur] = cid
                corner = self.corners[cur] = self._corner(cur[0], cur[1], total)
                fan.append(corner)
                total += corner.interior_angle
                _, cur = self._turn(*cur)
                if cur == start:
                    break
                if cur in seen:  # inconsistent gluing; malformed input
                    raise SurfaceSyntaxError(0, f"corner fan at {start} does not close up")
            self.class_corners.append(fan)
            self.cone_angles.append(total)
        self.vertex_class = seen
        self.conical_vertices: list[list[int]] = []
        for f, poly in enumerate(self.faces):
            self.conical_vertices.append(
                [v for v in range(len(poly)) if self.cone_angles[seen[(f, v)]] > TWO_PI + EPS_ANGLE]
            )

    # -- queries -------------------------------------------------------------

    def is_conical(self, cid: int) -> bool:
        return self.cone_angles[cid] > TWO_PI + EPS_ANGLE

    @property
    def conical_classes(self) -> list[int]:
        return [c for c in range(len(self.cone_angles)) if self.is_conical(c)]

    def euler_characteristic(self) -> int:
        return len(self.cone_angles) - len(self.gluings) + len(self.faces)

    def contains(self, p: SurfacePoint) -> bool:
        """True when p lies in its face, within 10 * eps_geom; False when that face is not on the surface."""
        return 0 <= p.face < len(self.faces) and point_in_convex(
            self.faces[p.face], p.x, p.y, 10 * self.eps_geom
        )

    def step(self, gluing: int, forward: bool) -> tuple[int, int, Neighbour]:
        """The (face, edge) a crossing letter leaves through, and the Neighbour it enters."""
        face, edge = self.gluings[gluing][not forward]
        return face, edge, self.neighbours[face][edge]

    def cone_coordinate(self, face: int, vertex: int, direction: float) -> float:
        """Cone coordinate in [0, theta) of a chart direction emanating from the corner."""
        c = self.corners[(face, vertex)]
        off = norm_angle(direction - c.out_dir)
        # clamp directions marginally outside the wedge onto its boundary
        if off > c.interior_angle:
            off = c.interior_angle if off - c.interior_angle < math.pi else 0.0
        return math.fmod(c.fan_start + off, self.cone_angles[self.vertex_class[(face, vertex)]])

    def from_cone_coordinate(self, cid: int, phi: float) -> tuple[int, int, float]:
        """Map a cone coordinate to (face, vertex, chart direction) at the apex."""
        theta = self.cone_angles[cid]
        phi = math.fmod(phi, theta)
        if phi < 0.0:
            phi += theta
        fan = self.class_corners[cid]
        # the wedges tile [0, theta], so only a NaN phi falls through to fan[-1]
        c = next((c for c in fan if c.fan_start <= phi <= c.fan_start + c.interior_angle), fan[-1])
        return c.face, c.vertex, norm_angle(c.out_dir + (phi - c.fan_start))

    def cone_chart_point(self, cid: int, r: float, phi: float) -> SurfacePoint:
        """Point at polar distance r, cone coordinate phi from the apex of class cid."""
        face, vertex, direction = self.from_cone_coordinate(cid, phi)
        vx, vy = self.faces[face][vertex]
        return SurfacePoint(face, vx + r * math.cos(direction), vy + r * math.sin(direction))


def places_along(s: ConeSurface, word) -> list[PlaneIsometry]:
    """Cumulative placements Q_j of the charts along a word [(gluing, forward), ...].

    Q_j maps the chart of the face entered by letter j-1 into the chart of the
    face the word starts in; Q_0 is the identity and Q[-1] is the holonomy.
    """
    places = [PlaneIsometry.identity()]
    for gi, forward in word:
        places.append(places[-1].compose(s.step(gi, forward)[2].placement))
    return places


@dataclass
class ValidationReport:
    ok: bool
    euler_characteristic: int
    genus: float
    cone_points: list[tuple[int, float]]
    violations: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def validate(s: ConeSurface) -> ValidationReport:
    """Check the global invariants of a parsed surface; findings are reported, not raised."""
    violations: list[tuple[str, str]] = []

    for gi, ((fa, ea), (fb, eb)) in enumerate(s.gluings):
        p0, p1 = s.edge_endpoints(fa, ea)
        q0, q1 = s.edge_endpoints(fb, eb)
        la = math.dist(p0, p1)
        lb = math.dist(q0, q1)
        if abs(la - lb) > s.eps_geom:
            violations.append(
                ("EDGE_LENGTH_MISMATCH", f"gluing {gi}: |{fa}.{ea}|={la:.12g} vs |{fb}.{eb}|={lb:.12g}")
            )

    # connectivity over faces
    parent = list(range(len(s.faces)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (fa, _), (fb, _) in s.gluings:
        ra, rb = find(fa), find(fb)
        if ra != rb:
            parent[ra] = rb
    if len({find(i) for i in range(len(s.faces))}) != 1:
        violations.append(("DISCONNECTED", "faces do not form a single glued component"))

    chi = s.euler_characteristic()
    genus = (2 - chi) / 2
    cone_points = []
    n_conical = 0
    for cid, theta in enumerate(s.cone_angles):
        if abs(theta - TWO_PI) <= EPS_ANGLE:
            continue  # regular mesh vertex
        if theta < TWO_PI - EPS_ANGLE:
            violations.append(
                ("CONE_ANGLE_BELOW_2PI", f"class {cid}: angle {theta:.12g} < 2*pi")
            )
            continue
        cone_points.append((cid, theta))
        n_conical += 1
    if n_conical == 0:
        violations.append(("NO_CONE_POINT", "surface has no cone angle above 2*pi"))
    if chi > -2:
        violations.append(("EULER_CHARACTERISTIC", f"chi={chi} > -2 (genus below 2)"))
    if (2 - chi) % 2 != 0:
        violations.append(("ODD_EULER_CHARACTERISTIC", f"chi={chi} is odd"))

    defect = sum(TWO_PI - theta for theta in s.cone_angles)
    if abs(defect - TWO_PI * chi) > EPS_ANGLE * max(1, len(s.cone_angles)):
        violations.append(
            ("GAUSS_BONNET_GLOBAL", f"sum(2*pi - theta)={defect:.12g} != 2*pi*chi={TWO_PI * chi:.12g}")
        )

    return ValidationReport(
        ok=not violations,
        euler_characteristic=chi,
        genus=genus,
        cone_points=cone_points,
        violations=violations,
        warnings=list(s.warnings),
    )


def gb_residual(interior_angles: list[float], boundary_angles: list[float]) -> float:
    """Residual of the disc identity: 2*pi - sum(2*pi - theta_i) - sum(pi - theta_b).

    Zero exactly when the angle data can bound a simply connected flat disc
    with cone points of angles `interior_angles` and piecewise-geodesic
    boundary with inside angles `boundary_angles`.
    """
    if any(a <= 0 for a in interior_angles) or any(a <= 0 for a in boundary_angles):
        raise ValueError("angles must be positive")
    return (
        TWO_PI
        - sum(TWO_PI - a for a in interior_angles)
        - sum(math.pi - a for a in boundary_angles)
    )


# ---------------------------------------------------------------------------
# surface file grammar

def parse_surface(text: str) -> ConeSurface:
    """Parse the line-oriented surface format (see serialize for the grammar)."""
    name = "unnamed"
    faces: list[list[tuple[float, float]]] = []
    face_ids: dict[int, int] = {}
    gluings = []
    warnings: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "surface":
            if len(parts) != 2:
                raise SurfaceSyntaxError(lineno, "expected: surface <name>")
            name = parts[1]
        elif kind == "face":
            if len(parts) < 3:
                raise SurfaceSyntaxError(lineno, "expected: face <id> <k> x1 y1 ...")
            try:
                fid = int(parts[1])
                k = int(parts[2])
                coords = [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise SurfaceSyntaxError(lineno, f"bad number: {exc}") from None
            if len(coords) != 2 * k or k < 3:
                raise SurfaceSyntaxError(lineno, f"face {fid}: expected {2 * k} coordinates")
            if fid in face_ids:
                raise SurfaceSyntaxError(lineno, f"face {fid} redefined")
            poly = [(coords[2 * i], coords[2 * i + 1]) for i in range(k)]
            if signed_area(poly) < 0:
                poly.reverse()
                warnings.append(f"face {fid} was clockwise; reoriented")
            if not is_convex_ccw(poly):
                raise NonConvexFaceError(fid)
            face_ids[fid] = len(faces)
            faces.append(poly)
        elif kind == "glue":
            if len(parts) != 3:
                raise SurfaceSyntaxError(lineno, "expected: glue <fa>.<ea> <fb>.<eb>")
            try:
                a = tuple(int(v) for v in parts[1].split("."))
                b = tuple(int(v) for v in parts[2].split("."))
                if len(a) != 2 or len(b) != 2:
                    raise ValueError
            except ValueError:
                raise SurfaceSyntaxError(lineno, "bad edge reference") from None
            gluings.append((a, b))
        else:
            raise SurfaceSyntaxError(lineno, f"unknown directive {kind!r}")

    if not faces:
        raise SurfaceSyntaxError(0, "no faces defined")
    remap = lambda side: (face_ids.get(side[0], side[0]), side[1])
    for (fa, ea), (fb, eb) in gluings:
        for f, e in ((fa, ea), (fb, eb)):
            if f not in face_ids:
                raise SurfaceSyntaxError(0, f"gluing references unknown face {f}")
            if not 0 <= e < len(faces[face_ids[f]]):
                raise SurfaceSyntaxError(0, f"gluing references missing edge {f}.{e}")
    gluings = [(remap(a), remap(b)) for a, b in gluings]
    return ConeSurface(name, faces, gluings, warnings=warnings)


def serialize(s: ConeSurface) -> str:
    """Emit the surface file grammar with 17 significant digits."""
    lines = [f"surface {s.name}"]
    for fid, poly in enumerate(s.faces):
        coords = " ".join(f"{c:.17g}" for p in poly for c in p)
        lines.append(f"face {fid} {len(poly)} {coords}")
    for (fa, ea), (fb, eb) in s.gluings:
        lines.append(f"glue {fa}.{ea} {fb}.{eb}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in surfaces

def _regular_gon_text(name: str, n: int) -> str:
    # Regular n-gon (n even) with circumradius 1, vertices at angles
    # -pi/n + 2*pi*k/n, opposite sides glued by translation.
    lines = [f"surface {name}"]
    coords = []
    for k in range(n):
        a = -math.pi / n + TWO_PI * k / n
        coords.append(f"{math.cos(a):.17g} {math.sin(a):.17g}")
    lines.append(f"face 0 {n} " + " ".join(coords))
    for e in range(n // 2):
        lines.append(f"glue 0.{e} 0.{e + n // 2}")
    return "\n".join(lines) + "\n"


BUILTIN_NAMES = ("octagon6pi", "decagon4pi4pi")


def builtin(name: str) -> ConeSurface:
    """Named example surfaces; both are genus 2 with all cone angles above 2*pi."""
    if name == "octagon6pi":
        return parse_surface(_regular_gon_text(name, 8))
    if name == "decagon4pi4pi":
        return parse_surface(_regular_gon_text(name, 10))
    raise UnknownBuiltinError(name)

