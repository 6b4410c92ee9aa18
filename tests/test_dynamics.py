"""Phase cells, transitivity scans, cone-approach statistics."""
import dataclasses
import math

import numpy as np
import pytest

from conetrace import (
    PhaseCell,
    builtin,
    cone_approach_experiment,
    hit_times,
    sample_cell,
    trace,
    transitivity_scan,
)
from conetrace import dynamics
from conetrace.dynamics import MixingReport, cell_region, random_state
from conetrace.errors import EmptyCellError
from conetrace.geom import point_in_convex, signed_area
from conftest import _octagon_cut


def test_cell_region_interior(octagon):
    cell = PhaseCell(0, 8, 8, 0)
    region = cell_region(octagon, cell)
    assert len(region) >= 3
    assert abs(signed_area(region)) > 0


def test_cell_region_outside_face(octagon):
    # the octagon misses its bounding-box corners
    region = cell_region(octagon, PhaseCell(0, 0, 0, 0))
    assert len(region) < 3 or abs(signed_area(region)) < 1e-12
    # the octagon has one face
    with pytest.raises(ValueError):
        cell_region(octagon, PhaseCell(1, 4, 8, 10))


def test_sample_cell_in_bounds(octagon):
    cell = PhaseCell(0, 4, 8, 10)
    x0, y0, x1, y1 = cell.box(octagon)
    d0, d1 = cell.dir_interval()
    rng = np.random.default_rng(1)
    for _ in range(50):
        st = sample_cell(octagon, cell, rng)
        assert st.face == 0
        assert x0 - 1e-12 <= st.x <= x1 + 1e-12
        assert y0 - 1e-12 <= st.y <= y1 + 1e-12
        assert d0 <= st.direction <= d1
        assert point_in_convex(octagon.faces[0], st.x, st.y)


def test_sample_empty_cell_raises(octagon):
    with pytest.raises(EmptyCellError):
        sample_cell(octagon, PhaseCell(0, 0, 0, 0), np.random.default_rng(0))
    # sector 70 is off the grid: its direction interval lies beyond 2*pi
    with pytest.raises(ValueError):
        sample_cell(octagon, PhaseCell(0, 4, 8, 70), np.random.default_rng(0))


def test_uniform_point_picks_as_choice():
    # the fan's table picks the triangle that Generator.choice(p=shares) picks,
    # and a row of four doubles draws as four single draws of the same generator
    poly = builtin("decagon4pi4pi").faces[0]
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    areas = np.array([abs(signed_area(list(t))) for t in tris])
    fans = {3: dynamics._fan(poly)}
    picked = set()
    for seed in range(400):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        face, x, y, d = dynamics._states(fans, np.full(1, 3), a.random((1, 4)), 0.5, 0.75)
        k = int(b.choice(len(tris), p=areas / areas.sum()))
        (px, py), (qx, qy), (rx, ry) = tris[k]
        u, v = b.random(), b.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        assert (face[0], x[0], y[0], d[0]) == (
            3, px + u * (qx - px) + v * (rx - px), py + u * (qy - py) + v * (ry - py),
            0.5 + b.random() * (0.75 - 0.5))
        assert a.random() == b.random()
        picked.add(k)
    assert picked == set(range(len(tris)))
    # random_state's face pick: weights of unequal size, one of them zero
    weights = np.array([3.0, 0.0, 1e-3, 7.5, 0.25])
    for seed in range(400):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = int(b.choice(len(weights), p=weights / weights.sum()))
        assert np.searchsorted(dynamics._cdf(weights), a.random(), side="right") == want
        assert a.random() == b.random()


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 123456789, 2**40 + 3, 2**70 + 11, 2**100 + 7])
def test_seeded_uniforms_match_default_rng(seed):
    # seeds of one to four 32-bit words, so that the row and the attempt fall inside and
    # beyond SeedSequence's pool of four, against the installed numpy's own stream
    rows = np.arange(0, 2997, 7)
    for attempt in (0, 1, 63):
        for k in (4, 5):
            want = np.array([np.random.default_rng([seed, i, attempt]).random(k) for i in rows])
            got = dynamics._seeded_uniforms(seed, rows, attempt, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (attempt, k)


def test_hit_times_deterministic(octagon):
    o, u = PhaseCell(0, 4, 8, 10), PhaseCell(0, 11, 8, 10)
    r1 = hit_times(octagon, o, u, 100.0, 2.0, 20, seed=5)
    r2 = hit_times(octagon, o, u, 100.0, 2.0, 20, seed=5)
    assert np.array_equal(r1.hit_bins, r2.hit_bins)
    assert r1.first_hit == r2.first_hit


def test_hit_times_validates_args(octagon):
    o, u = PhaseCell(0, 4, 8, 10), PhaseCell(0, 11, 8, 10)
    with pytest.raises(ValueError):
        hit_times(octagon, o, u, -1.0, 2.0, 20)
    with pytest.raises(ValueError):
        hit_times(octagon, o, u, 100.0, 2.0, 0)
    with pytest.raises(ValueError):
        hit_times(octagon, o, u, 100.0, 0.0, 20)
    for horizon, dt in ((math.inf, 2.0), (math.nan, 2.0), (100.0, math.inf), (100.0, math.nan)):
        with pytest.raises(ValueError):
            hit_times(octagon, o, u, horizon, dt, 20)
    # a face not on the surface, and indices off the NX x NY x NDIR grid
    for bad in (PhaseCell(1, 4, 8, 10), PhaseCell(-1, 4, 8, 10), PhaseCell(0, 16, 8, 10),
                PhaseCell(0, 4, -1, 10), PhaseCell(0, 4, 8, 64), PhaseCell(0, 4, 8, -1)):
        with pytest.raises(ValueError):
            hit_times(octagon, bad, u, 100.0, 2.0, 20)
        with pytest.raises(ValueError):
            hit_times(octagon, o, bad, 100.0, 2.0, 20)
    for n, length in ((0, 10.0), (1, math.inf), (1, math.nan)):
        with pytest.raises(ValueError):
            cone_approach_experiment(octagon, n, length)
    # seeds that default_rng([seed, i, attempt]) rejects
    for seed, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.default_rng([seed, 0, 0])
        with pytest.raises(error):
            hit_times(octagon, o, u, 10.0, 2.0, 4, seed=seed)


def _scalar_hit_times(s, cell_o, cell_u, horizon, dt, n_samples, seed):
    """hit_times sample by sample through the scalar trace: the reference for the batch."""
    nbins = math.ceil(horizon / dt)
    hits = np.zeros(nbins, dtype=bool)
    discards = exhausted = 0
    x0, y0, x1, y1 = cell_u.box(s)
    d0, d1 = cell_u.dir_interval()
    for i in range(n_samples):
        for attempt in range(dynamics.MAX_ATTEMPTS):
            st = sample_cell(s, cell_o, np.random.default_rng([seed, i, attempt]))
            path = trace(s, st, horizon)
            if path.length >= horizon - 1e-9:
                break
            discards += 1  # the last attempt's short path is still binned
        else:
            exhausted += 1
        arc = 0.0
        for seg in path.segments:
            lo, hi = 0.0, seg.length
            inside = seg.face == cell_u.face and d0 <= seg.direction <= d1
            u = (math.cos(seg.direction), math.sin(seg.direction))
            for p, w, lo_w, hi_w in zip(seg.entry, u, (x0, y0), (x1, y1)):
                if abs(w) < 1e-300:
                    inside &= lo_w <= p <= hi_w
                    continue
                t0, t1 = sorted(((lo_w - p) / w, (hi_w - p) / w))
                lo, hi = max(lo, t0), min(hi, t1)
            b0 = int((arc + lo) / dt)
            if inside and lo <= hi and b0 < nbins:
                hits[b0 : min(int((arc + hi) / dt), nbins - 1) + 1] = True
            arc += seg.length
    idx = np.flatnonzero(hits)
    frac = (np.cumsum(hits[::-1]) / np.arange(1, nbins + 1))[::-1]
    ok = np.flatnonzero(frac >= dynamics.HIT_FRACTION)
    return MixingReport(cell_o, cell_u, horizon, dt, hits, idx[0] * dt if idx.size else None,
                        ok[0] * dt if ok.size else None, n_samples, discards, exhausted)


def _attempts(s, cell_o, horizon, n_samples, seed):
    """Attempts hit_times makes: the most draws any sample takes to miss every cone."""
    most = 1
    for i in range(n_samples):
        for attempt in range(dynamics.MAX_ATTEMPTS):
            st = sample_cell(s, cell_o, np.random.default_rng([seed, i, attempt]))
            if trace(s, st, horizon).length >= horizon - 1e-9:
                break
        most = max(most, attempt + 1)
    return most


def _check_hit_times(monkeypatch, s, o, cells_u, max_attempts):
    """hit_times from O to each U against `_scalar_hit_times`, field by field."""
    monkeypatch.setattr(dynamics, "MAX_ATTEMPTS", max_attempts)
    # one batch per attempt: a path that met a cone is never traced again
    batches = []
    batch = dynamics._trace_batch
    monkeypatch.setattr(dynamics, "_trace_batch", lambda *a: batches.append(1) or batch(*a))
    for u in cells_u:
        batches.clear()
        got = hit_times(s, o, u, 30.0, 0.5, 100, seed=7)
        assert len(batches) == _attempts(s, o, 30.0, 100, 7)
        want = _scalar_hit_times(s, o, u, 30.0, 0.5, 100, 7)
        assert want.cone_discards > 0 and want.hit_bins.any()
        assert (want.exhausted > 0) == (max_attempts < 64)  # 1 and 2 draws leave short paths
        for field in dataclasses.fields(MixingReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert repr(a) == repr(b), field.name


@pytest.mark.parametrize("max_attempts", [1, 2, 64])
def test_hit_times_matches_scalar_trace(monkeypatch, max_attempts):
    # a capture radius of 0.05 makes most samples meet a cone, so re-draws,
    # discards and the kept short path of the last attempt all occur
    s = builtin("octagon6pi")
    s.eps_vertex = 0.05
    o = PhaseCell(0, 4, 8, 10)
    _check_hit_times(monkeypatch, s, o, (PhaseCell(0, 11, 8, 10), o), max_attempts)


@pytest.mark.parametrize("max_attempts", [1, 64])
@pytest.mark.parametrize("name, o, u", [
    ("octagon_cut", PhaseCell(1, 4, 8, 10), PhaseCell(0, 11, 8, 10)),
    ("decagon4pi4pi", PhaseCell(0, 8, 8, 10), PhaseCell(0, 11, 8, 10)),
], ids=["octagon_cut", "decagon4pi4pi"])
def test_hit_times_matches_scalar_trace_on_more_faces(monkeypatch, name, o, u, max_attempts):
    # samples leave the hexagon of octagon_cut for its quad, and cross the ten
    # edges and meet the two cone classes of decagon4pi4pi
    s = _octagon_cut() if name == "octagon_cut" else builtin(name)
    s.eps_vertex = 0.05
    _check_hit_times(monkeypatch, s, o, (u, o), max_attempts)


def test_transitivity_same_sector_cells(octagon):
    r = transitivity_scan(octagon, PhaseCell(0, 4, 8, 10), PhaseCell(0, 11, 8, 10),
                          200.0, 2.0, 40, seed=1)
    assert r.success
    assert r.reason is None
    assert r.times == sorted(r.times)
    assert r.report.first_hit is not None


def test_transitivity_recurrence(octagon):
    cell = PhaseCell(0, 4, 8, 10)
    r = transitivity_scan(octagon, cell, cell, 200.0, 2.0, 40, seed=2)
    assert r.success
    assert r.times[0] < 2.0  # samples start inside the cell


def test_transitivity_distance_reason(octagon):
    # horizon shorter than the gap between the cells: unreachable by distance
    r = transitivity_scan(octagon, PhaseCell(0, 2, 8, 10), PhaseCell(0, 13, 8, 10),
                          0.5, 0.1, 4, seed=0)
    assert not r.success
    assert r.reason == "distance"


def test_random_state_uniformish(octagon):
    rng = np.random.default_rng(9)
    dirs = []
    for _ in range(200):
        st = random_state(octagon, rng)
        assert point_in_convex(octagon.faces[0], st.x, st.y)
        assert 0.0 <= st.direction < 2 * math.pi
        dirs.append(st.direction)
    assert np.std(dirs) > 1.0  # directions spread over the circle


def test_cone_approach_experiment(octagon):
    rows, quantiles = cone_approach_experiment(octagon, 20, 50.0, seed=3)
    assert len(rows) == 20
    assert [i for i, _ in rows] == list(range(20))
    finals = [v for _, v in rows]
    assert all(v >= 0.0 for v in finals)
    assert max(finals) < 0.2  # length 50 flows approach cones closely
    qs = sorted(quantiles)
    assert qs == [0.05, 0.25, 0.5, 0.75, 0.95]
    assert all(quantiles[a] <= quantiles[b] + 1e-15 for a, b in zip(qs, qs[1:]))


def test_cone_approach_deterministic(octagon):
    r1, q1 = cone_approach_experiment(octagon, 10, 30.0, seed=4)
    r2, q2 = cone_approach_experiment(octagon, 10, 30.0, seed=4)
    assert r1 == r2 and q1 == q2
