"""Closed geodesics: shortening, uniqueness certificates, flat cylinders."""
import hashlib
import math
import random
from dataclasses import replace

import pytest

from conetrace import (
    BUILTIN_NAMES,
    ClosedGeodesic,
    Crossing,
    Loop,
    builtin,
    certificate_text,
    cyclic_reduce,
    develop,
    find_unique_closed,
    flat_cylinder,
    is_unique_in_class,
    loop_length,
    shorten,
    verify_stationarity,
    word_holonomy,
)
from conetrace.errors import (
    BudgetExhaustedError,
    ChartMismatchError,
    NoConvergenceError,
    NotConeFreeError,
    NullHomotopicError,
)

PERIOD_MID = 2 * math.cos(math.pi / 8)
HALF_WIDTH = math.sin(math.pi / 8)
UNIQUE_PERIOD = 3.261972627395668


def test_mid_loop_period(octagon):
    g = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    assert g.period == pytest.approx(PERIOD_MID, abs=1e-12)
    assert not g.through_cones


def test_shorten_removes_kinks(octagon):
    loop = Loop([Crossing(0, True, 0.3)], kinks=[(0, (0.1, 0.2))])
    assert loop_length(octagon, loop) > PERIOD_MID + 0.01
    g = shorten(octagon, loop)
    assert g.period == pytest.approx(PERIOD_MID, abs=1e-12)


def test_shorten_idempotent(octagon):
    g = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    g2 = shorten(octagon, g)
    assert abs(g2.period - g.period) == 0.0


def test_crossing_param_does_not_matter(octagon):
    # parallel translates in the cylinder close up with the same period
    for t in (0.1, 0.5, 0.9):
        g = shorten(octagon, Loop([Crossing(0, True, t)]))
        assert g.period == pytest.approx(PERIOD_MID, abs=1e-12)


def test_cyclic_reduce_cancels(octagon):
    word = [Crossing(0, True, 0.5), Crossing(0, False, 0.5)]
    assert cyclic_reduce(octagon, word) == []


def test_null_homotopic_rejected(octagon):
    with pytest.raises(NullHomotopicError):
        shorten(octagon, Loop([Crossing(0, True, 0.5), Crossing(0, False, 0.5)]))
    # a commutator: cyclically reduced, but its holonomy is the identity
    with pytest.raises(NullHomotopicError, match="holonomy is the identity"):
        shorten(octagon, Loop([Crossing(0, True), Crossing(1, True), Crossing(0, False),
                               Crossing(1, False)]))


def test_mid_loop_not_unique(octagon):
    g = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    unique, cert = is_unique_in_class(g)
    assert not unique
    assert sorted(cert["translatable"]) == ["left", "right"]


def test_flat_cylinder_widths(octagon):
    g = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    cyl = flat_cylinder(octagon, g)
    assert cyl.width_left == pytest.approx(HALF_WIDTH, abs=1e-9)
    assert cyl.width_right == pytest.approx(HALF_WIDTH, abs=1e-9)
    assert cyl.circumference == pytest.approx(PERIOD_MID, abs=1e-12)


def test_flat_cylinder_requires_cone_free(octagon):
    g = find_unique_closed(octagon, 200)
    with pytest.raises(NotConeFreeError):
        flat_cylinder(octagon, g)


def test_find_unique_closed(octagon):
    g = find_unique_closed(octagon, 200)
    assert g.through_cones
    with pytest.raises(ChartMismatchError, match="interior cone hits"):
        develop(g.cycle)  # the cycle turns at its cone passages
    assert g.period == pytest.approx(UNIQUE_PERIOD, abs=1e-9)
    unique, cert = is_unique_in_class(g)
    assert unique
    assert cert["witness_left"].theta_l > math.pi
    assert cert["witness_right"].theta_r > math.pi


def test_find_unique_deterministic(octagon):
    g1 = find_unique_closed(octagon, 200, seed=7)
    g2 = find_unique_closed(octagon, 200, seed=7)
    assert g1.period == g2.period
    assert g1.crossings == g2.crossings


def test_budget_exhausted(octagon):
    with pytest.raises(BudgetExhaustedError):
        find_unique_closed(octagon, 0)


def test_verify_stationarity(octagon, decagon):
    for s, g in (
        (octagon, shorten(octagon, Loop([Crossing(0, True, 0.3)]))),
        (octagon, find_unique_closed(octagon, 200)),
        # searches whose shortener fuses the anchors around the last arc
        (octagon, find_unique_closed(octagon, 200, seed=1)),
        (decagon, find_unique_closed(decagon, 200, seed=5)),
        (decagon, find_unique_closed(decagon, 200, seed=6)),
        (decagon, find_unique_closed(decagon, 200, seed=7)),
        (decagon, find_unique_closed(decagon, 200, seed=11)),
    ):
        assert verify_stationarity(s, g)


def test_verify_stationarity_rejects(octagon):
    gc = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    gu = find_unique_closed(octagon, 200)
    ga = shorten(octagon, Loop(_letters("0+ 0+ 2+")))
    assert ga.anchors == [((0, 0), (0, 5)), ((0, 1), (0, 4))]
    assert gu.anchors[1] == ((0, 5), (0, 3))
    for g in (gc, gu, ga):
        assert verify_stationarity(octagon, g)
        assert not verify_stationarity(octagon, replace(g, period=1.01 * g.period))
    # claimed cone-free, but the corridor of 0+ 0+ 2+ holds no straight axis
    assert not verify_stationarity(octagon, replace(gc, crossings=_letters("0+ 0+ 2+")))
    # the last arc ends at another corner of its class, and its chord leaves the corridor
    assert not verify_stationarity(octagon, replace(ga, anchors=[((0, 3), (0, 5)), ga.anchors[1]]))
    # an anchor leaves from another corner of its class, so a side angle drops below pi
    assert not verify_stationarity(octagon, replace(gu, anchors=[gu.anchors[0], ((0, 5), (0, 0))]))
    # checked as cone-free, the word of an anchored result has an axis of another length
    assert not verify_stationarity(octagon, replace(ga, anchors=[]))


def _closing_words(s, seed: int, n: int):
    """n random closing words, each at least a random 2 to 8 crossings long, with random params."""
    rng = random.Random(seed)
    for _ in range(n):
        length = rng.randint(2, 8)
        face = start = rng.randrange(len(s.faces))
        word = []
        while len(word) < length or face != start:
            nb = s.neighbours[face][rng.randrange(len(s.faces[face]))]
            word.append(Crossing(nb.gluing, nb.forward, rng.uniform(0.05, 0.95)))
            face = nb.face
        yield word


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shorten_results_verify(name):
    # random closing words; every result must pass the independent check and,
    # on these translation surfaces, be no shorter than the class holonomy
    s = builtin(name)
    for word in _closing_words(s, 20, 150):
        try:
            g = shorten(s, Loop(word), max_iters=1000)
        except (NullHomotopicError, NoConvergenceError):
            continue
        assert verify_stationarity(s, g), word
        h = word_holonomy(s, [(c.gluing, c.forward) for c in word])
        assert g.period >= math.hypot(h.tx, h.ty) - 1e-9, word


def _letters(text):
    return [Crossing(int(tok[:-1]), tok[-1] == "+", 0.5) for tok in text.split()]


@pytest.mark.parametrize("name,word", [
    ("octagon6pi", "1- 0+ 0+ 3+ 2- 1+ 1-"),
    ("decagon4pi4pi", "4- 3+ 3+ 1+ 1+ 0- 3+ 3-"),
])
def test_shorten_stops_at_repeated_state(name, word):
    # these words cycle; at the default cap each used to run 100000 iterations
    with pytest.raises(NoConvergenceError, match="repeated the state") as info:
        shorten(builtin(name), Loop(_letters(word)))
    assert info.value.iterations <= 40
    assert 0 < info.value.period < info.value.iterations
    # a cap reached before the first repeat still ends the run
    with pytest.raises(NoConvergenceError, match="did not converge in 5 iterations") as info:
        shorten(builtin(name), Loop(_letters(word)), max_iters=5)
    assert info.value.period is None


# sha256 of repr([(kind, repr(period)), ...]) over 1000 closing words, recorded
# while the shortener still ran every word that did not converge to max_iters;
# each builtin's sweep holds two such words
PINNED_OUTCOMES = {
    "octagon6pi": "8be6b9f779e0d7b0a5ee4d984d317b04d25cfd60b76ddb1eec68d0882915be78",
    "decagon4pi4pi": "efbc4989c19699dc6cf1af4a9b52e0220b1d0e9d20f82decbbbda00459b3d480",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shorten_outcomes_pinned(name):
    # the repeated-state stop must not fire on a word that converges
    s = builtin(name)
    out = []
    for word in _closing_words(s, 21, 1000):
        try:
            g = shorten(s, Loop(word), max_iters=1000)
            out.append(("anchored" if g.through_cones else "cyclic", repr(g.period)))
        except NullHomotopicError:
            out.append(("null", None))
        except NoConvergenceError:
            out.append(("noconv", None))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PINNED_OUTCOMES[name]


# sha256 over 300 closing words of each result's certificate_text, repr of its
# crossings (params included) and anchors, or its exception's type and message
PINNED_RESULTS = {
    "octagon6pi": "d9fb73ddb48dda67c996954c46aad5dd57e68c1e130ea206ba2410ee8755c5b5",
    "decagon4pi4pi": "03576a615c412e604be20a6e2f8f849e678418275a7f8275adda3ea69eb8498f",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shorten_results_pinned(name):
    # the whole output: crossing params, widths, passage angles and anchors
    s = builtin(name)
    h = hashlib.sha256()
    for word in _closing_words(s, 22, 300):
        try:
            g = shorten(s, Loop(word), max_iters=1000)
        except (NullHomotopicError, NoConvergenceError) as e:
            h.update(f"{type(e).__name__}: {e}\n".encode())
            continue
        h.update(certificate_text(s, g).encode())
        h.update(repr(g.crossings).encode())
        h.update(repr(g.anchors).encode())
    assert h.hexdigest() == PINNED_RESULTS[name]


def test_certificate_text(octagon):
    g = find_unique_closed(octagon, 200)
    text = certificate_text(octagon, g)
    assert f"period {g.period:.17g}" in text
    assert "unique_in_class True" in text
    assert text.count("passage class=") == len(g.passages)
    gm = shorten(octagon, Loop([Crossing(0, True, 0.3)]))
    tm = certificate_text(octagon, gm)
    assert "unique_in_class False" in tm
    assert "translatable left,right" in tm
    assert "width_left" in tm


def test_passage_angles_sum_to_cone_angle(octagon):
    g = find_unique_closed(octagon, 200)
    for p in g.passages:
        assert p.theta_l + p.theta_r == pytest.approx(6 * math.pi, abs=1e-9)
        assert min(p.theta_l, p.theta_r) >= math.pi - 1e-9
