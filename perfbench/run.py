#!/usr/bin/env python3
"""conetrace benchmark: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: transit, cone-approach, busemann, closed-search (see
workloads.py).  Run from the root of a source checkout: the package is
imported from ``src/`` of that checkout and from nowhere else.

A run sets up (import, ``builtin()`` surfaces, seeded inputs) several times
in fresh interpreters, before and between the timed ops, and reports the
median; it runs one untimed warm-up op per surface, then new inputs for
``--seconds``.  Every op's output is checked by the workload's oracle.  With
``--trace 0`` the ops are timed around the public calls, scaled to a fixed
machine speed (speed.py), and the end-to-end metrics are printed; with
``--trace 1`` each op runs twice, untraced and then under the span hooks of
spans.py, and the per-layer metrics are printed.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Details (metadata, failure reasons, the tail percentile used, unscaled
times) are printed above it and written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
RUN_SECONDS = 30.0  # run_seconds of BENCHMARK.json; the tail percentiles assume it
WARMUP_INDEX = 10**9
# setups per run, each in a fresh interpreter: some before the timed ops and
# the rest spread over them
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_DURING = 6
# seconds of ops between two runs of the calibration kernel (speed.py)
CALIBRATION_PERIOD = 0.2
# traced ops whose counts are reported; the first ones always run, so the
# counts repeat exactly for a seed however fast the run goes
COUNT_OPS = {"transit": 8, "cone-approach": 10, "busemann": 2, "closed-search": 1000}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(COUNT_OPS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test problem sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CONETRACE_THREADS", None)


def setup(args):
    """Import, build the surfaces and generate the first inputs; all timed."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import conetrace as ct
    import workloads

    if Path(ct.__file__).resolve().parent != (SRC / "conetrace").resolve():
        raise SystemExit(f"conetrace was imported from {ct.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    build_s = []
    surfaces = {}
    for name in wl.surfaces:
        tb = perf_counter()
        surfaces[name] = ct.builtin(name)
        build_s.append(perf_counter() - tb)
    inputs = Inputs(wl, surfaces, args.seed, COUNT_OPS[args.workload])
    return perf_counter() - t0, build_s, ct, wl, surfaces, inputs


class Inputs:
    """Inputs of a run: the first ones generated in setup, later ones when asked for.

    Later inputs are not kept, so a run's heap does not grow with its length.
    """

    def __init__(self, wl, surfaces, seed, n_first):
        self.wl, self.surfaces, self.seed = wl, surfaces, seed
        # one warm-up op per surface, drawn from an index range no run reaches
        self.warmups = [wl.make_input(surfaces, seed, WARMUP_INDEX + k)
                        for k in range(len(wl.surfaces))]
        self.first = [wl.make_input(surfaces, seed, i) for i in range(n_first)]

    def get(self, i):
        if i < len(self.first):
            return self.first[i]
        return self.wl.make_input(self.surfaces, self.seed, i)


class SetupProbes:
    """Setup times of fresh interpreters, so the import is timed cold each time.

    Each is also scaled to the reference speed like an op (speed.py), with
    the calibration kernel run in this process just before and after it.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        self.raw, self.scaled, self.build_s = [], [], []

    def run(self, n=1):
        from speed import REF_KERNEL_S, kernel_s  # after setup, which times the numpy import

        for _ in range(n):
            k0 = kernel_s()
            res = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
            k1 = kernel_s()
            probe = json.loads(res.stdout.strip().splitlines()[-1])
            self.raw.append(probe["setup_s"])
            self.scaled.append(probe["setup_s"] * REF_KERNEL_S / ((k0 + k1) / 2.0))
            self.build_s.extend(probe["build_s"])


class OpClock:
    """Ends the timed phase after ``seconds`` of it, and runs setup probes spread over it.

    A probe runs between two ops once the phase passes its mark, and its time
    is left out of the phase, so ``setup_s`` is not drawn from a single
    few-second window of a machine whose speed drifts.
    """

    def __init__(self, seconds, probes, n_probes):
        self.seconds, self.probes = seconds, probes
        self.marks = [seconds * (k + 1) / (n_probes + 1) for k in range(n_probes)]
        self.paused = self.op_total = 0.0
        self.ops = 0
        self.begin = perf_counter()

    def add(self, op_s):
        self.op_total += op_s
        self.ops += 1

    def probe_if_due(self):
        """Run the probes whose marks the phase has passed; returns the phase's elapsed time."""
        elapsed = perf_counter() - self.begin - self.paused
        while self.marks and elapsed >= self.marks[0]:
            self.marks.pop(0)
            t0 = perf_counter()
            self.probes.run()
            self.paused += perf_counter() - t0
        return elapsed

    def more(self, min_ops=1):
        """Whether to run another op: at the mean op time so far, running it ends
        the phase nearer ``seconds`` than stopping now."""
        elapsed = self.probe_if_due()
        return self.ops < min_ops or elapsed + self.op_total / self.ops / 2 < self.seconds

    def finish(self):
        """Run the probes whose marks the phase did not reach."""
        self.probes.run(len(self.marks))
        self.marks = []


class Ledger:
    """Outcome of every executed op: failures by reason, and whether all are known ones.

    ``fail_frac`` counts every failure.  ``failed`` counts the ops whose
    failure is not one the commit that defined the benchmark already shows
    (the workload's ``known_failures`` and ``known_wrong``): those are in
    ``fail_frac`` and its reasons, and a rise in them moves ``ok_frac``.
    Each input runs ``runs_per_input`` times, and a wrong output repeats with
    its input, so the slack for known wrong outputs scales with it.
    """

    def __init__(self, wl, runs_per_input):
        self.known = wl.known_failures | getattr(wl, "known_wrong", frozenset())
        self.known_wrong = getattr(wl, "known_wrong", frozenset())
        slack, per_op = getattr(wl, "known_wrong_allowed", (0, 0.0))
        self.known_wrong_allowed = (slack * runs_per_input, per_op)
        self.attempted = 0
        self.reasons = Counter()
        self.first_error = None

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.reasons[reason] += 1

    @property
    def fail_frac(self):
        return sum(self.reasons.values()) / self.attempted

    @property
    def failed(self):
        return sum(n for r, n in self.reasons.items() if r not in self.known)

    @property
    def correct(self):
        """No failure outside the known ones, and no more known wrong outputs than allowed."""
        slack, per_op = self.known_wrong_allowed
        wrong = sum(self.reasons[r] for r in self.known_wrong)
        return self.failed == 0 and wrong <= slack + per_op * self.attempted


def run_op(wl, ct, surfaces, inp, ref, ledger, t, rec=None):
    """Run and check one op, timing its public calls with ``t`` (speed.OpTime); returns ``t``."""
    try:
        if rec is None:
            out = wl.op(ct, surfaces, inp, t)
        else:
            idx = rec.begin("op")
            try:
                out = wl.op(ct, surfaces, inp, t)
            finally:
                rec.end(idx)
    except Exception as exc:  # an unexpected error is a failed op, never a crash
        if ledger.first_error is None:
            ledger.first_error = traceback.format_exc()
        ledger.record(f"error:{type(exc).__name__}")
        return t
    ledger.record(wl.check(ct, surfaces, inp, out, ref))
    return t


def nearest_rank(sorted_vals, pct):
    """Nearest-rank percentile and the number of values above its rank."""
    n = len(sorted_vals)
    idx = min(n - 1, max(0, math.ceil(pct * n / 100.0) - 1))
    return sorted_vals[idx], n - idx - 1


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "conetrace" / "__init__.py").is_file():
        print(f"error: no conetrace package at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    setup_s, build_s, ct, wl, surfaces, inputs = setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "build_s": build_s}))
        return 0
    probes = SetupProbes(args)
    probes.run(SETUP_PROBES_BEFORE)

    refs = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        refs = json.loads((HERE / "reference.json").read_text()).get(wl.name)

    def ref_of(i):
        return refs[i] if refs is not None and i < len(refs) else None

    from speed import OpTime

    ledger = Ledger(wl, runs_per_input=2 if args.trace else 1)
    if hasattr(wl, "control"):
        ledger.record(wl.control(ct, surfaces))

    warmup_s = [run_op(wl, ct, surfaces, inp, None, ledger, OpTime(None)).raw
                for inp in inputs.warmups]

    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "op_size": wl.size, "meta": metadata(ct),
        "setup_s_in_process": setup_s, "warmup_s": warmup_s,
    }
    clock = OpClock(args.seconds, probes, SETUP_PROBES_DURING)
    if args.trace:
        metrics = traced_run(args, wl, ct, surfaces, inputs, ref_of, ledger, clock, details)
    else:
        metrics = untraced_run(args, wl, ct, surfaces, inputs, ref_of, ledger, clock, details)
    details.update(setup_s_samples=probes.scaled, setup_s_raw_samples=probes.raw,
                   fail_frac=ledger.fail_frac, fail_reasons=dict(ledger.reasons))
    if ledger.first_error:
        details["first_error"] = ledger.first_error
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "result": result}, indent=1))

    for name, m in metrics.items():
        print(f"{wl.name:14s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name:14s} {'fail_frac':34s} {details['fail_frac']:.6g} ratio "
          f"{json.dumps(details['fail_reasons'])}")
    print("details " + json.dumps({k: v for k, v in details.items()
                                   if k not in ("first_error", "op_s", "op_raw_s")}))
    print(json.dumps(result))
    return 0


def untraced_run(args, wl, ct, surfaces, inputs, ref_of, ledger, clock, details):
    """Time new inputs for ``--seconds``, each op scaled to the reference speed (speed.py)."""
    from speed import REF_KERNEL_S, OpTime, SpeedClock

    speed = SpeedClock(CALIBRATION_PERIOD)
    ops = []
    while clock.more():
        i = len(ops)
        ops.append(run_op(wl, ct, surfaces, inputs.get(i), ref_of(i), ledger, OpTime(speed)))
        clock.add(ops[-1].raw)
    speed.flush()
    clock.finish()
    times = sorted(t.scaled for t in ops)
    raw = sorted(t.raw for t in ops)
    tail, beyond = nearest_rank(times, wl.tail_pct)
    details.update(op_s=[t.scaled for t in ops], op_raw_s=[t.raw for t in ops], ops=len(ops),
                   tail_pct=wl.tail_pct, tail_ops_beyond=beyond,
                   ref_kernel_s=REF_KERNEL_S, kernel_s_median=statistics.median(speed.kernels),
                   kernels=len(speed.kernels), raw_op_p50_ms=1e3 * statistics.median(raw),
                   raw_ops_per_s=len(raw) / sum(raw))
    return {
        "setup_s": {"value": statistics.median(clock.probes.scaled), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "ok_frac": {"value": 1.0 - ledger.fail_frac, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def traced_run(args, wl, ct, surfaces, inputs, ref_of, ledger, clock, details):
    import spans
    from speed import OpTime

    rec = spans.Recorder(COUNT_OPS[wl.name])
    hooks = spans.Hooks(rec)
    plain, traced = [], []
    while clock.more(min_ops=rec.count_ops):
        i = len(plain)
        inp = inputs.get(i)
        plain.append(run_op(wl, ct, surfaces, inp, ref_of(i), ledger, OpTime(None)).raw)
        rec.op_index = i
        hooks.install()
        try:
            traced.append(run_op(wl, ct, surfaces, inp, ref_of(i), ledger, OpTime(None), rec).raw)
        finally:
            hooks.remove()
        clock.add(plain[-1] + traced[-1])
    clock.finish()
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl")
    metrics = spans.layer_metrics(rec, hooks, sum(traced), sum(plain), statistics.median(clock.probes.build_s))
    absent = sorted(set(spans.LAYER_METRICS) - set(metrics))
    details.update(ops=len(traced), missing_hooks=hooks.missing,
                   broken_counts=sorted(rec.broken), absent_metrics=absent)
    return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(ct):
    import platform

    import numpy

    return {
        "git_commit": git_commit(), "src_sha256": src_digest(), "conetrace_version": ct.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "CONETRACE_THREADS")},
    }


def src_digest():
    """Digest of the package sources, which identifies the code also outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "conetrace").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
