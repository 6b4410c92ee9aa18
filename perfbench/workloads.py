"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

Every op calls only the public API of `conetrace`, looked up on the package
module at call time so the traced run can wrap it.  A workload has:

- ``make_input(surfaces, seed, i)``: input ``i`` of a run, a pure function of
  the seed and the index, so the same seed gives the same inputs;
- ``op(ct, surfaces, inp, t)``: the public-API call chain; each stretch of
  public calls runs inside ``with t:``, which times it (speed.OpTime), so
  nothing but those calls is timed;
- ``check(ct, surfaces, inp, out, ref)``: the oracle.  It returns ``None``
  when the output is right, or the reason it is not.  Reasons that start
  with ``oracle:`` are wrong outputs; the others are failures the program
  reported itself (it raised a documented error, or its own certificate
  check rejected the result);
- ``tail_pct``: the percentile reported as ``op_tail_ms``;
- ``known_failures``: failures the program reports itself that the commit
  which defined the benchmark already shows;
- ``known_wrong`` and ``known_wrong_allowed = (slack, per_op)``: wrong
  outputs that commit already gives, rarely; a run tolerates at most
  ``slack`` inputs that give them, plus ``per_op`` per attempted op.

Every failure counts in ``fail_frac``.  A failure outside
``known_failures`` and ``known_wrong`` counts as a failed op and makes a run
report ``correct: false``; so do more ``known_wrong`` ones than allowed.

A run holds only a few dozen ops on most workloads, so the inputs that
drive an op's cost (direction sectors, ray directions and target points)
come from a low-discrepancy sequence with a seeded offset rather than
independent draws: every prefix of a run then holds nearly the same mix of
cheap and costly ops, and figures from different seeds are comparable.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from conetrace import Crossing, PhaseCell
from conetrace.dynamics import cell_region
from conetrace.errors import NoConvergenceError, NullHomotopicError
from conetrace.geom import signed_area

PI = math.pi
TWO_PI = 2.0 * PI
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _golden(seed: int, i: int, salt: int) -> float:
    """Point i of the golden-ratio sequence, shifted by the seed."""
    shift = np.random.default_rng([seed, salt]).random(1)[0]
    return float((shift + (i + 1) / GOLDEN) % 1.0)


def _halton(seed: int, i: int, dims: int, salt: int) -> list[float]:
    """Point i of the Halton sequence in bases 2, 3, 5 and 7 (dims <= 4), shifted by the seed.

    Its first few dozen points spread evenly over the unit cube in up to four
    dimensions, which is what a run of a few dozen ops draws.
    """
    shift = np.random.default_rng([seed, salt]).random(dims)
    point = []
    for k, base in enumerate((2, 3, 5, 7)[:dims]):
        n, f, r = i + 1, 1.0, 0.0
        while n:
            n, digit = divmod(n, base)
            f /= base
            r += f * digit
        point.append(float((shift[k] + r) % 1.0))
    return point


def _octagon_point(u: float, v: float) -> tuple[float, float]:
    """Map the unit square onto the builtin octagon, preserving area.

    The octagon (circumradius 1, corners at (2j - 1) * pi / 8) is a fan of
    eight equal triangles about its centre; ``u`` sets the distance from the
    centre, ``v`` the triangle and the position along its outer edge.  The
    distance, which drives the cost of a Busemann op, takes ``u`` unscaled,
    so it keeps the sequence's even spread.
    """
    k, t = divmod(8.0 * v, 1.0)
    a, b = (2.0 * k - 1.0) * PI / 8, (2.0 * k + 1.0) * PI / 8
    r = math.sqrt(u)
    return (r * ((1.0 - t) * math.cos(a) + t * math.cos(b)),
            r * ((1.0 - t) * math.sin(a) + t * math.sin(b)))


# ---------------------------------------------------------------------------
# transit: one transitivity scan at criterion-10 horizon, an eighth of its samples

class Transit:
    name = "transit"
    surfaces = ("octagon6pi",)
    # Criterion 10 scans 4000 samples, about 3 s on the 2-core x86-64 machine
    # that defined the benchmark.  A scan's cost is linear in its samples with
    # the same split between layers; a 0.35 s op is shorter than the machine
    # keeps one speed, so the calibration around it (speed.py) sees the speed
    # it ran at.
    size = {"surface": "octagon6pi", "call": "transitivity_scan", "horizon": 100.0,
            "dt": 0.5, "n_samples": 500, "cells": "random same-sector pair, 16x16x64 grid"}
    # 60 to 85 ops in a 30 s run on that machine, so at least ten beyond p80
    tail_pct = 80.0
    known_failures = frozenset()

    def __init__(self, tiny: bool = False):
        if tiny:
            self.size = dict(self.size, horizon=20.0, n_samples=100)

    def make_input(self, surfaces, seed: int, i: int):
        u = _golden(seed, i, salt=10)
        idir = int(u * 64)
        rng = np.random.default_rng([seed, i, 10])
        s = surfaces["octagon6pi"]
        cells = []
        while len(cells) < 2:
            ix, iy = int(rng.integers(16)), int(rng.integers(16))
            reg = cell_region(s, PhaseCell(0, ix, iy, idir))
            if len(reg) >= 3 and abs(signed_area(reg)) > 1e-15:
                cells.append(PhaseCell(0, ix, iy, idir))
        return {"cell_o": cells[0], "cell_u": cells[1], "scan_seed": int(rng.integers(2**31))}

    def op(self, ct, surfaces, inp, t):
        z = self.size
        with t:
            return ct.transitivity_scan(surfaces["octagon6pi"], inp["cell_o"], inp["cell_u"],
                                        z["horizon"], z["dt"], z["n_samples"], seed=inp["scan_seed"])

    def check(self, ct, surfaces, inp, out, ref):
        z = self.size
        rep = out.report
        bins = rep.hit_bins
        if bins.dtype != bool or bins.shape != (math.ceil(z["horizon"] / z["dt"]),):
            return "oracle:hit-bins-shape"
        if rep.samples_used != z["n_samples"] or rep.cone_discards < 0:
            return "oracle:sample-count"
        idx = np.flatnonzero(bins)
        if list(out.times) != [(k + 0.5) * z["dt"] for k in idx]:
            return "oracle:times-disagree-with-hit-bins"
        if out.success != any(t >= 0.75 * z["horizon"] for t in out.times):
            return "oracle:verdict-disagrees-with-hit-bins"
        if out.success != (out.reason is None) or out.reason not in (None, "no-hit", "distance"):
            return "oracle:reason"
        first = idx[0] * z["dt"] if idx.size else None
        if rep.first_hit != first:
            return "oracle:first-hit"
        if ref is not None and hit_digest(bins) != ref:
            return "oracle:hit-bins-differ-from-reference"
        return None

    def reference_of(self, out):
        return hit_digest(out.report.hit_bins)


def hit_digest(bins) -> str:
    return hashlib.sha256(np.packbits(np.asarray(bins, dtype=bool)).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# cone-approach: one cone-approach experiment at criterion-8 length, a tenth of its trajectories

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class ConeApproach:
    name = "cone-approach"
    surfaces = ("octagon6pi",)
    # Criterion 8 runs 100 trajectories, 3 to 5 s on that machine; ten keep
    # an op short for the same reason as transit's scan.
    size = {"surface": "octagon6pi", "call": "cone_approach_experiment",
            "n_trajectories": 10, "length": 100.0}
    tail_pct = 80.0
    known_failures = frozenset()

    def __init__(self, tiny: bool = False):
        if tiny:
            self.size = dict(self.size, n_trajectories=5, length=20.0)

    def make_input(self, surfaces, seed: int, i: int):
        return {"exp_seed": int(np.random.default_rng([seed, i, 20]).integers(2**31))}

    def op(self, ct, surfaces, inp, t):
        z = self.size
        with t:
            return ct.cone_approach_experiment(surfaces["octagon6pi"], z["n_trajectories"],
                                               z["length"], seed=inp["exp_seed"])

    def check(self, ct, surfaces, inp, out, ref):
        rows, quantiles = out
        if [r[0] for r in rows] != list(range(self.size["n_trajectories"])):
            return "oracle:row-count"
        finals = np.array([r[1] for r in rows], dtype=float)
        if not np.all(np.isfinite(finals)) or np.any(finals < 0):
            return "oracle:non-finite-or-negative"
        if tuple(quantiles) != QUANTILES:
            return "oracle:quantile-keys"
        qs = [quantiles[q] for q in QUANTILES]
        if any(b < a for a, b in zip(qs, qs[1:])):
            return "oracle:quantiles-unordered"
        if any(abs(quantiles[q] - float(np.quantile(finals, q))) > 1e-12 for q in QUANTILES):
            return "oracle:quantiles-disagree-with-rows"
        if ref is not None and any(abs(a - b) > 1e-9 for a, b in zip(qs, ref)):
            return "oracle:quantiles-differ-from-reference"
        return None

    def reference_of(self, out):
        return [out[1][q] for q in QUANTILES]

    def control(self, ct, surfaces):
        """Cylinder-core control: the core's final running minimum is sin(pi/8)."""
        s = surfaces["octagon6pi"]
        core = ct.trace(s, ct.TangentState(0, 0.0, 0.0, 0.0), 100.0)
        prof = ct.min_cone_distance_profile(s, core)
        if abs(prof[-1][1] - math.sin(PI / 8)) >= 1e-9:
            return "oracle:cylinder-core-control"
        return None


# ---------------------------------------------------------------------------
# busemann: local distance plus Busemann estimate at criterion-7 size

class Busemann:
    name = "busemann"
    surfaces = ("octagon6pi",)
    # One op is one round of criterion 7's traffic: ten queries with x =
    # ray(s0), s0 uniform in [0, 0.3] and x' uniform over the octagon, and
    # one identity query (x the ray's base, x' = ray(s0)).  A query's cost is
    # bimodal: lift enumeration either stops at once or runs to its step cap,
    # which it does for about 45% of the x' draws, the farther ones.  Taken
    # one query at a time, the median op would sit on the edge between the
    # two modes.  Within an op the ten x' lie one in each tenth of the
    # octagon's area by distance from the centre, so every op holds nearly
    # the same number of capped queries; ray direction, s0 and the rest of
    # x' come from a low-discrepancy sequence.  The two searches of a query
    # are timed apart, so the calibration between them follows the
    # machine's speed through an op of several seconds.
    size = {"surface": "octagon6pi", "calls": "(trace + local_distance + busemann) x 11",
            "ray_length": 130.0, "radius": 16.0, "s0": [0.0, 0.3],
            "queries": "10 with x' uniform over the octagon, stratified by distance; 1 identity"}
    # 4 to 6 ops of 5 to 7 s in a 30 s run: the tail is the slowest op
    tail_pct = 100.0
    known_failures = frozenset()

    def __init__(self, tiny: bool = False):
        if tiny:
            self.size = dict(self.size, ray_length=20.0)

    def make_input(self, surfaces, seed: int, i: int):
        queries = []
        for m in range(10):
            theta, s0, w, v = _halton(seed, 10 * i + m, 4, salt=30)
            queries.append({"theta": TWO_PI * theta, "s0": 0.3 * s0, "identity": False,
                            "xp": _octagon_point((m + w) / 10.0, v)})
        theta, s0 = _halton(seed, i, 2, salt=31)
        queries.append({"theta": TWO_PI * theta, "s0": 0.3 * s0, "identity": True, "xp": None})
        return queries

    def op(self, ct, surfaces, inp, t):
        return [self._query(ct, surfaces["octagon6pi"], q, t) for q in inp]

    def _query(self, ct, s, q, t):
        with t:
            ray = ct.trace(s, ct.TangentState(0, 0.0, 0.0, q["theta"]), self.size["ray_length"])
            if ray.cone_hits:
                return None
            if q["identity"]:
                x, xp = ct.SurfacePoint(0, 0.0, 0.0), ct.point_at(ray, q["s0"])
            else:
                x, xp = ct.point_at(ray, q["s0"]), ct.SurfacePoint(0, *q["xp"])
        with t:
            d = ct.local_distance(s, x, xp, self.size["radius"])
        with t:
            return d, ct.busemann(s, ray, x, xp)

    def check(self, ct, surfaces, inp, out, ref):
        for q, res in zip(inp, out):
            if res is None:
                continue  # the ray met a cone point; criterion 7 skips such rays too
            d, est = res
            if not abs(est.value) <= d + 1e-4:
                return "oracle:busemann-exceeds-distance"
            vals = [v for _, v in est.history]
            if any(b > a + 1e-9 for a, b in zip(vals, vals[1:])):
                return "oracle:history-increases"
            if q["identity"] and not abs(est.value + q["s0"]) < 1e-6:
                return "oracle:identity-value"
        return None


# ---------------------------------------------------------------------------
# closed-search: shorten a random closing word and certify the result

class ClosedSearch:
    name = "closed-search"
    surfaces = ("octagon6pi", "decagon4pi4pi")
    # Converging words converge in under 100 shortener iterations and the
    # rest cycle for ever (no outcome changed between caps of 100, 1000 and
    # 10000 on 20000 sampled words).  At the default cap of 100000 each
    # cycling word costs about 6 s, so throughput would count those rare
    # words rather than time the shortener.
    size = {"surfaces": "octagon6pi, decagon4pi4pi alternating", "word_length": [2, 8],
            "calls": "shorten + verify_stationarity + is_unique_in_class + certificate_text"
                     " (+ flat_cylinder when cone-free)", "max_iters": 1000}
    # 20000 to 35000 ops in a 30 s run at the commit that defined the
    # benchmark, so at least ten lie beyond p99.94
    tail_pct = 99.94
    # Baseline defects the program reports itself: about 9% of results fail
    # verify_stationarity and about 0.4% of words do not converge.
    known_failures = frozenset({"verify-rejected", "noconv"})
    # Baseline wrong answers only the oracle sees, together about one op in
    # 23000 (23 in 540000 ops over twenty 25 s runs): a word wrongly called
    # null-homotopic, and a certified period longer than the input loop.  A
    # run tolerates at most 5 such inputs + 1 per 10000 ops, so a few more
    # than the baseline's count in a run is noise and a rise in their rate
    # is not.
    known_wrong = frozenset({"oracle:null-homotopic-with-nontrivial-holonomy",
                             "oracle:period-exceeds-input-length"})
    known_wrong_allowed = (5, 1e-4)

    def __init__(self, tiny: bool = False):
        pass  # its ops are already small

    def make_input(self, surfaces, seed: int, i: int):
        name = self.surfaces[i % 2]
        s = surfaces[name]
        rng = np.random.default_rng([seed, i, 40])
        while True:
            length = int(rng.integers(2, 9))
            face = start = int(rng.integers(len(s.faces)))
            word = []
            for _ in range(length):
                gi, is_a = s.edge_of[(face, int(rng.integers(len(s.faces[face]))))]
                word.append(Crossing(gi, is_a, float(rng.uniform(0.05, 0.95))))
                face = (s.gluings[gi][1] if is_a else s.gluings[gi][0])[0]
            if face == start:
                return {"surface": name, "word": word}

    def op(self, ct, surfaces, inp, t):
        s = surfaces[inp["surface"]]
        with t:
            try:
                g = ct.shorten(s, ct.Loop(list(inp["word"])), max_iters=self.size["max_iters"])
            except NullHomotopicError:
                return "null", None
            except NoConvergenceError:
                return "noconv", None
            ok = ct.verify_stationarity(s, g)
            unique, _ = ct.is_unique_in_class(g)
            text = ct.certificate_text(s, g)
            cyl = None if g.through_cones else ct.flat_cylinder(s, g)
        return "anchored" if g.through_cones else "cyclic", (g, ok, unique, text, cyl)

    def check(self, ct, surfaces, inp, out, ref):
        kind, res = out
        s = surfaces[inp["surface"]]
        word = inp["word"]
        if kind == "null":
            h = ct.word_holonomy(s, [(c.gluing, c.forward) for c in word])
            rot = math.remainder(h.rot, TWO_PI)
            if abs(rot) > 1e-9 or math.hypot(h.tx, h.ty) > 1e-8 * s.diam_hint:
                return "oracle:null-homotopic-with-nontrivial-holonomy"
            return None
        if kind == "noconv":
            return "noconv"
        g, ok, unique, text, cyl = res
        if not ok:
            return "verify-rejected"
        if g.period > ct.loop_length(s, ct.Loop(list(word))) + 1e-9:
            return "oracle:period-exceeds-input-length"
        if not text.startswith(f"period {g.period:.17g}\n") or f"unique_in_class {unique}\n" not in text:
            return "oracle:certificate-text"
        if cyl is not None and abs(cyl.circumference - g.period) > 1e-9 * max(1.0, g.period):
            return "oracle:cylinder-circumference"
        return None


WORKLOADS = {w.name: w for w in (Transit, ConeApproach, Busemann, ClosedSearch)}
