"""Surface model: parsing, validation, Gauss-Bonnet accounting."""
import math

import pytest
from hypothesis import given, strategies as st

from conetrace import (
    PlaneIsometry,
    builtin,
    gb_residual,
    parse_surface,
    serialize,
    shortest_saddle_connection,
    validate,
)
from conetrace.errors import (
    DanglingEdgeError,
    NoConePointsError,
    SurfaceSyntaxError,
    UnknownBuiltinError,
)

TORUS_TEXT = """surface torus
face 0 4 0 0 1 0 1 1 0 1
glue 0.0 0.2
glue 0.1 0.3
"""


def test_octagon_structure(octagon):
    assert len(octagon.faces) == 1
    assert len(octagon.gluings) == 4
    assert octagon.gluings == [((0, 0), (0, 4)), ((0, 1), (0, 5)), ((0, 2), (0, 6)), ((0, 3), (0, 7))]
    assert octagon.conical_classes == [0]


def test_octagon_validates(octagon):
    rep = validate(octagon)
    assert rep.ok
    assert rep.euler_characteristic == -2
    assert rep.genus == 2
    assert len(rep.cone_points) == 1
    assert abs(rep.cone_points[0][1] - 6 * math.pi) < 1e-9


def test_decagon_validates(decagon):
    rep = validate(decagon)
    assert rep.ok
    assert rep.euler_characteristic == -2
    angles = sorted(a for _, a in rep.cone_points)
    assert len(angles) == 2
    for a in angles:
        assert abs(a - 4 * math.pi) < 1e-9


def test_global_defect_identity(octagon, decagon):
    for s in (octagon, decagon):
        chi = s.euler_characteristic()
        defect = sum(2 * math.pi - t for t in s.cone_angles)
        assert abs(defect - 2 * math.pi * chi) < 1e-9 * max(1, len(s.cone_angles))


def test_flat_torus_rejected():
    rep = validate(parse_surface(TORUS_TEXT))
    assert not rep.ok
    codes = [c for c, _ in rep.violations]
    assert "NO_CONE_POINT" in codes
    assert "EULER_CHARACTERISTIC" in codes


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltinError):
        builtin("nosuch")


def test_gb_residual_examples():
    pi = math.pi
    assert abs(gb_residual([], [pi / 2, pi / 4, pi / 4])) <= 1e-12
    assert abs(gb_residual([], [pi / 2] * 4)) <= 1e-12
    assert abs(gb_residual([3 * pi], [pi / 2] * 4) - pi) <= 1e-12
    assert abs(gb_residual([2.5 * pi], [0.375 * pi] * 4)) <= 1e-12


def test_gb_residual_positive_only():
    with pytest.raises(ValueError):
        gb_residual([-1.0], [math.pi / 2])


@given(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False))
def test_gb_residual_linear_in_angle(delta):
    base = gb_residual([3 * math.pi], [math.pi / 2] * 4)
    bumped = gb_residual([3 * math.pi + delta], [math.pi / 2] * 4)
    # interior angles enter the identity with coefficient +1
    assert abs((bumped - base) - delta) < 1e-12


@given(st.permutations([0.4, 0.9, 1.3, 2.1]))
def test_gb_residual_permutation_invariant(angles):
    ref = gb_residual([3 * math.pi], [0.4, 0.9, 1.3, 2.1])
    assert abs(gb_residual([3 * math.pi], list(angles)) - ref) < 1e-12


def test_parse_dangling_edge():
    text = "surface bad\nface 0 4 0 0 1 0 1 1 0 1\nglue 0.0 0.2\n"
    with pytest.raises(DanglingEdgeError):
        parse_surface(text)


def test_parse_syntax_error_carries_line():
    with pytest.raises(SurfaceSyntaxError) as exc:
        parse_surface("surface x\nface zero 4 0 0 1 0 1 1 0 1\n")
    assert exc.value.line == 2


def test_clockwise_face_reoriented_with_warning():
    text = "surface cw\nface 0 4 0 0 0 1 1 1 1 0\nglue 0.0 0.2\nglue 0.1 0.3\n"
    s = parse_surface(text)
    assert any("reoriented" in w for w in s.warnings)


def test_serialize_round_trip(octagon, decagon):
    for s in (octagon, decagon):
        s2 = parse_surface(serialize(s))
        r1, r2 = validate(s), validate(s2)
        assert r1.ok == r2.ok
        assert r1.euler_characteristic == r2.euler_characteristic
        assert r1.genus == r2.genus
        for (c1, a1), (c2, a2) in zip(r1.cone_points, r2.cone_points):
            assert c1 == c2 and abs(a1 - a2) < 1e-12


def test_cone_angles_rigid_motion_invariant(octagon):
    # rotate the whole chart; corner angles must not move
    th = 0.7
    c, sn = math.cos(th), math.sin(th)
    pts = []
    for x, y in octagon.faces[0]:
        pts.extend([c * x - sn * y + 0.3, sn * x + c * y - 0.1])
    text = "surface rot\nface 0 8 " + " ".join(f"{v!r}" for v in pts) + "\n"
    text += "".join(f"glue 0.{k} 0.{k + 4}\n" for k in range(4))
    s2 = parse_surface(text)
    assert abs(s2.cone_angles[0] - octagon.cone_angles[0]) < 1e-9


def test_saddle_connection_requires_cones():
    with pytest.raises(NoConePointsError):
        shortest_saddle_connection(parse_surface(TORUS_TEXT))


def _isometries(s):
    yield PlaneIsometry.identity()
    yield PlaneIsometry.mapping_segment((0.1, 0.2), (0.7, -0.4), (1.0, 1.0), (0.2, 1.5))
    for row in s.neighbours:
        for nb in row:
            yield nb.transition
            yield nb.placement
            yield nb.transition.compose(nb.placement)
            yield nb.placement.compose(row[0].transition)
            yield nb.transition.inverse()


def test_isometry_trig_is_exact(octagon, decagon):
    # placements are bit-exact only while c and s are exactly cos(rot) and
    # sin(rot), the values a fresh trig call gives; the repr feeds digests
    for s in (octagon, decagon):
        for iso in _isometries(s):
            assert iso.c == math.cos(iso.rot) and iso.s == math.sin(iso.rot)
            assert repr(iso) == f"PlaneIsometry(rot={iso.rot!r}, tx={iso.tx!r}, ty={iso.ty!r})"
