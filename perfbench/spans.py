"""Outside-in span recorder for the traced run.

The traced run wraps module-level functions of `conetrace` from the outside,
patching each name where its callers look it up, and records one span per
call: name, start, end and parent span.  Spans stay in memory and are written
when the run ends.  A layer's self time is the duration of its spans minus the
time their child spans cover; the ``op`` span that the benchmark opens around
each op keeps, as its self time, everything no hook attributes.

Counts are read from return values (or from the exception a call raised), so
they repeat exactly for a fixed seed.  ``geom`` is not wrapped: its isometry
helpers run millions of times per op, so wrapping them would distort every
parent span; its cost shows in the callers' self time.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter


def _trace_counts(ret, c):
    # the tracer stops at the first cone hit, so only the last event can be one
    events = ret.events
    hits = 1 if events and type(events[-1]).__name__ == "ConeHit" else 0
    c["tracer.trace.cone_hits"] += hits
    c["tracer.trace.crossings"] += len(events) - hits


def _develop_counts(ret, c):
    c["tracer.profile.segments"] += max(len(ret[1]) - 1, 0)


def _hit_times_counts(ret, c):
    c["dynamics.samples"] += ret.samples_used
    c["dynamics.resamples"] += ret.cone_discards


def _cone_approach_counts(ret, c):
    c["dynamics.samples"] += len(ret[0])


def _chords_counts(ret, c):
    c["metric.chords.nodes"] += ret.nodes
    c["metric.chords.incomplete"] += 0 if ret.complete else 1


def _lifts_counts(ret, c):
    c["metric.lifts.placements"] += len(ret)


def _shorten_counts(ret, c):
    c["closed.shorten.anchored" if ret.through_cones else "closed.shorten.cyclic"] += 1
    c["closed.anchors"] += len(ret.anchors)


def _shorten_raised(exc, c):
    name = type(exc).__name__
    if name == "NullHomotopicError":
        c["closed.shorten.null"] += 1
    elif name == "NoConvergenceError":
        c["closed.shorten.noconv"] += 1


def _verify_counts(ret, c):
    c["closed.verify.fail"] += 0 if ret else 1


# (span name, [(module, attribute), ...] where callers look the function up,
#  counts from the return value, counts from a raised exception)
HOOKS = [
    ("tracer.trace", [("conetrace", "trace"), ("conetrace.dynamics", "trace")], _trace_counts, None),
    ("tracer.profile", [("conetrace.dynamics", "min_cone_distance_profile")], None, None),
    ("tracer.develop", [("conetrace.tracer", "develop")], _develop_counts, None),
    ("dynamics.transitivity_scan", [("conetrace", "transitivity_scan")], None, None),
    ("dynamics.hit_times", [("conetrace.dynamics", "hit_times")], _hit_times_counts, None),
    ("dynamics.sample_cell", [("conetrace.dynamics", "sample_cell")], None, None),
    ("dynamics.random_state", [("conetrace.dynamics", "random_state")], None, None),
    ("dynamics.cone_approach", [("conetrace", "cone_approach_experiment")], _cone_approach_counts, None),
    ("metric.chords", [("conetrace.metric", "_chords")], _chords_counts, None),
    ("metric.local_distance", [("conetrace", "local_distance"), ("conetrace.metric", "local_distance")],
     None, None),
    ("metric.lifts", [("conetrace.metric", "_enumerate_lifts")], _lifts_counts, None),
    ("metric.lift_point", [("conetrace.metric", "lift_point")], None, None),
    ("metric.busemann", [("conetrace", "busemann")], None, None),
    ("closed.shorten", [("conetrace", "shorten"), ("conetrace.closed", "shorten")],
     _shorten_counts, _shorten_raised),
    ("closed.verify", [("conetrace", "verify_stationarity")], _verify_counts, None),
    ("closed.cylinder", [("conetrace", "flat_cylinder")], None, None),
    ("closed.certificate", [("conetrace", "certificate_text"), ("conetrace", "is_unique_in_class"),
                            ("conetrace.closed", "is_unique_in_class")], None, None),
]


class Recorder:
    """Spans and counts of one traced run.

    ``counts`` covers every traced op; ``prefix_counts`` only the first
    ``count_ops`` ops, whose inputs do not depend on how fast the run went.
    """

    def __init__(self, count_ops: int):
        self.count_ops = count_ops
        self.spans = []  # [name, start, end, parent index, op index]
        self.stack = []
        self.op_index = -1
        self.counts = Counter()
        self.prefix_counts = Counter()
        self.broken = set()  # hooks whose count extraction failed

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None,
                           self.op_index])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def count(self, hook, fn, value):
        """Count one call of the hook, plus what ``fn`` reads from its result."""
        c = Counter()
        try:
            if fn is not None:
                fn(value, c)
        except (AttributeError, TypeError, IndexError):
            self.broken.add(hook)
            return
        self.counts[f"{hook}.calls"] += 1
        self.counts.update(c)
        if self.op_index < self.count_ops:
            self.prefix_counts[f"{hook}.calls"] += 1
            self.prefix_counts.update(c)

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def total(self, name):
        """Total inclusive time of the top-level spans with this name."""
        names = [s[0] for s in self.spans]
        return sum(t1 - t0 for n, t0, t1, parent, _ in self.spans
                   if n == name and (parent is None or names[parent] != name))

    def write(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps([name, t0, t1, parent, op]) + "\n")


def _wrap(rec, hook, fn, on_return, on_raise):
    def wrapper(*args, **kwargs):
        idx = rec.begin(hook)
        try:
            ret = fn(*args, **kwargs)
        except Exception as exc:
            rec.end(idx)
            rec.count(hook, on_raise, exc)
            raise
        rec.end(idx)
        rec.count(hook, on_return, ret)
        return ret

    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Installs the wrappers around each op of the traced run and removes them after."""

    def __init__(self, rec):
        self.patches = []  # (module, attribute, original, wrapper)
        self.missing = []
        for hook, places, on_return, on_raise in HOOKS:
            found = []
            for mod_name, attr in places:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    found = None
                    break
                found.append((mod, attr, fn))
            if found is None:
                self.missing.append(hook)
                continue
            for mod, attr, fn in found:
                self.patches.append((mod, attr, fn, _wrap(rec, hook, fn, on_return, on_raise)))

    def install(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)


# per-layer metric -> (unit, hooks it needs).  Counts cover the first
# ``count_ops`` traced ops; self times are seconds per traced op; rates divide
# a count by the self time of the spans doing that work, over all traced ops.
# A metric whose hook is missing, or whose count could not be read, is absent.
LAYER_METRICS = {
    "tracer.trace.calls": ("count", ("tracer.trace",)),
    "tracer.trace.self_s": ("s", ("tracer.trace",)),
    "tracer.trace.crossings": ("count", ("tracer.trace",)),
    "tracer.trace.crossings_per_s": ("1/s", ("tracer.trace",)),
    "tracer.trace.cone_hits": ("count", ("tracer.trace",)),
    "tracer.profile.calls": ("count", ("tracer.profile",)),
    "tracer.profile.self_s": ("s", ("tracer.profile", "tracer.develop")),
    "tracer.profile.segments": ("count", ("tracer.develop",)),
    "tracer.profile.segments_per_s": ("1/s", ("tracer.profile", "tracer.develop")),
    "dynamics.samples": ("count", ("dynamics.hit_times", "dynamics.cone_approach")),
    "dynamics.resamples": ("count", ("dynamics.hit_times",)),
    "dynamics.samples_per_s": ("1/s", ("dynamics.hit_times", "dynamics.cone_approach")),
    "dynamics.transitivity_scan.self_s": ("s", ("dynamics.transitivity_scan",)),
    "dynamics.hit_times.self_s": ("s", ("dynamics.hit_times",)),
    "dynamics.sample_cell.self_s": ("s", ("dynamics.sample_cell",)),
    "dynamics.random_state.self_s": ("s", ("dynamics.random_state",)),
    "dynamics.cone_approach.self_s": ("s", ("dynamics.cone_approach",)),
    "metric.chords.calls": ("count", ("metric.chords",)),
    "metric.chords.nodes": ("count", ("metric.chords",)),
    "metric.chords.nodes_per_query": ("count", ("metric.chords",)),
    "metric.chords.nodes_per_s": ("1/s", ("metric.chords",)),
    "metric.chords.incomplete": ("count", ("metric.chords",)),
    "metric.chords.self_s": ("s", ("metric.chords",)),
    "metric.local_distance.calls": ("count", ("metric.local_distance",)),
    "metric.local_distance.self_s": ("s", ("metric.local_distance",)),
    "metric.lifts.calls": ("count", ("metric.lifts",)),
    "metric.lifts.placements": ("count", ("metric.lifts",)),
    "metric.lifts.placements_per_s": ("1/s", ("metric.lifts",)),
    "metric.lifts.self_s": ("s", ("metric.lifts",)),
    "metric.lift_point.self_s": ("s", ("metric.lift_point",)),
    "metric.busemann.self_s": ("s", ("metric.busemann",)),
    "closed.shorten.calls": ("count", ("closed.shorten",)),
    "closed.shorten.self_s": ("s", ("closed.shorten",)),
    "closed.shorten.cyclic": ("count", ("closed.shorten",)),
    "closed.shorten.anchored": ("count", ("closed.shorten",)),
    "closed.shorten.null": ("count", ("closed.shorten",)),
    "closed.shorten.noconv": ("count", ("closed.shorten",)),
    "closed.anchors": ("count", ("closed.shorten",)),
    "closed.verify.self_s": ("s", ("closed.verify",)),
    "closed.verify.fail": ("count", ("closed.verify",)),
    "closed.cylinder.self_s": ("s", ("closed.cylinder",)),
    "closed.certificate.self_s": ("s", ("closed.certificate",)),
    "surface.build_s": ("s", ()),
    "trace.op_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
    "trace.overhead": ("ratio", ()),
    "trace.count_ops": ("count", ()),
}
# rate -> (count, the spans whose self time did that work)
RATES = {
    "tracer.trace.crossings_per_s": ("tracer.trace.crossings", ("tracer.trace",)),
    "tracer.profile.segments_per_s": ("tracer.profile.segments", ("tracer.profile", "tracer.develop")),
    "metric.chords.nodes_per_s": ("metric.chords.nodes", ("metric.chords",)),
    "metric.lifts.placements_per_s": ("metric.lifts.placements", ("metric.lifts",)),
}


def layer_metrics(rec, hooks, traced_total, plain_total, build_s):
    """Per-layer metrics of a traced run.

    The self times of all spans, the ``op`` span's included as
    ``trace.unattributed_s``, add up to ``trace.op_s``.  ``trace.overhead`` is
    the traced wall time of the ops over their untraced time, minus one.
    """
    n_ops = rec.op_index + 1
    self_t = rec.self_times()
    values = {name: rec.prefix_counts[name] for name, (unit, _) in LAYER_METRICS.items()
              if unit == "count"}
    for name, (unit, spans) in LAYER_METRICS.items():
        if name.endswith(".self_s"):
            values[name] = sum(self_t[s] for s in spans) / n_ops
    for name, (count, spans) in RATES.items():
        busy = sum(self_t[s] for s in spans)
        values[name] = rec.counts[count] / busy if busy > 0 else 0.0
    experiments = rec.total("dynamics.hit_times") + rec.total("dynamics.cone_approach")
    values["dynamics.samples_per_s"] = (
        rec.counts["dynamics.samples"] / experiments if experiments > 0 else 0.0)
    calls = rec.prefix_counts["metric.chords.calls"]
    values["metric.chords.nodes_per_query"] = (
        rec.prefix_counts["metric.chords.nodes"] / calls if calls else 0.0)
    values.update({
        "surface.build_s": build_s,
        "trace.op_s": rec.total("op") / n_ops,
        "trace.unattributed_s": self_t["op"] / n_ops,
        "trace.overhead": traced_total / plain_total - 1.0,
        "trace.count_ops": rec.count_ops,
    })
    unavailable = set(hooks.missing) | rec.broken
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, needs) in LAYER_METRICS.items() if not unavailable.intersection(needs)}
