import math

import pytest

from conetrace import builtin
from conetrace.surface import parse_surface


@pytest.fixture(scope="session")
def octagon():
    return builtin("octagon6pi")


@pytest.fixture(scope="session")
def decagon():
    return builtin("decagon4pi4pi")


def _octagon_cut():
    """octagon6pi cut along the diagonal v0-v3 into a quad and a hexagon: faces of unequal size."""
    v = [(math.cos((2 * k - 1) * math.pi / 8), math.sin((2 * k - 1) * math.pi / 8)) for k in range(8)]
    face = lambda i, idx: f"face {i} {len(idx)} " + " ".join(f"{c!r}" for k in idx for c in v[k])
    return parse_surface(
        "surface octagon_cut\n" + face(0, [0, 1, 2, 3]) + "\n" + face(1, [3, 4, 5, 6, 7, 0]) + "\n"
        "glue 0.0 1.1\nglue 0.1 1.2\nglue 0.2 1.3\nglue 1.0 1.4\nglue 0.3 1.5\n"
    )
