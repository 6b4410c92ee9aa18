"""Command-line front door.

Every artifact starts with a comment line recording the tool version, the
exact argv, and the seed, and is byte-identical when both are repeated.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import shlex
import sys

from . import __version__
from .closed import (
    Crossing,
    Loop,
    certificate_text,
    find_unique_closed,
    flat_cylinder,
    shorten,
)
from .errors import ConetraceError
from .metric import busemann, convergence_profile, equidistant_reparam
from .dynamics import PhaseCell, cone_approach_experiment, hit_times, transitivity_scan
from .surface import (
    BUILTIN_NAMES,
    SurfacePoint,
    builtin,
    gb_residual,
    parse_surface,
    serialize,
    validate,
)
from .tracer import ConeHit, EdgeCross, TangentState, develop, time_shift, trace


class UsageError(Exception):
    pass


def _load_surface(args):
    if args.builtin:
        return builtin(args.builtin)
    if not args.surface:
        raise UsageError("a surface file or --builtin is required")
    if not os.path.isfile(args.surface):
        raise UsageError(f"surface file not found: {args.surface}")
    with open(args.surface) as fh:
        return parse_surface(fh.read())


def _add_surface_args(p):
    p.add_argument("surface", nargs="?", help="surface description file")
    p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a builtin surface")


def _parse_pair(text, what):
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise UsageError(f"expected x,y for {what}, got {text!r}")


def _parse_point(s, text, what):
    """A face,x,y point of the surface; one outside its face is a usage error."""
    try:
        f, x, y = text.split(",")
        p = SurfacePoint(int(f), float(x), float(y))
    except ValueError:
        raise UsageError(f"expected face,x,y for {what}, got {text!r}")
    if not s.contains(p):
        raise UsageError(f"{what} {text} is not inside its face")
    return p


def _parse_word(text):
    """Crossing word like '0+,3-,1+@0.25' (gluing index, direction, optional param)."""
    word = []
    for tok in text.split(","):
        tok = tok.strip()
        t = 0.5
        if "@" in tok:
            tok, tpart = tok.split("@")
            t = float(tpart)
        if len(tok) < 2 or tok[-1] not in "+-":
            raise UsageError(f"bad crossing token {tok!r}; use <gluing>+ or <gluing>-")
        word.append(Crossing(int(tok[:-1]), tok[-1] == "+", t))
    if not word:
        raise UsageError("empty crossing word")
    return word


def _parse_cell(text, what):
    try:
        f, ix, iy, idir = (int(v) for v in text.split(","))
        return PhaseCell(f, ix, iy, idir)
    except ValueError:
        raise UsageError(f"expected face,ix,iy,idir for {what}, got {text!r}")


def _write_artifact(args, name, lines):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    header = f"# conetrace {__version__} argv={shlex.join(args.argv)} seed={args.seed}\n"
    with open(path, "w") as fh:
        fh.write(header)
        for line in lines:
            fh.write(line + "\n")
    print(f"wrote {path}")
    return path


def _g(x):
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_validate(args):
    s = _load_surface(args)
    rep = validate(s)
    print(f"surface {s.name}")
    print(f"euler_characteristic {rep.euler_characteristic}")
    print(f"genus {_g(rep.genus)}")
    for cid, theta in rep.cone_points:
        print(f"cone_point class={cid} angle={_g(theta)}")
    for w in rep.warnings:
        print(f"warning {w}")
    for code, msg in rep.violations:
        print(f"violation {code}: {msg}")
    print("ok" if rep.ok else "invalid")
    return 0 if rep.ok else 1


def _cmd_gb_audit(args):
    interior = [float(v) for v in args.interior.split(",")] if args.interior else []
    boundary = [float(v) for v in args.boundary.split(",")] if args.boundary else []
    r = gb_residual(interior, boundary)
    print(f"gb_residual {_g(r)}")
    if args.tol is not None and abs(r) > args.tol:
        return 1
    return 0


def _checked(fn, *args):
    """fn(*args) on command-line values; a ValueError, a value fn rejects, is a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _trace_from_args(s, args):
    x, y = _parse_pair(args.start, "--start")
    return _checked(trace, s, TangentState(args.face, x, y, args.direction), args.length)


def _event_rows(path):
    rows = ["type,arc_length,gluing,forward,class"]
    for ev in path.events:
        if isinstance(ev, EdgeCross):
            rows.append(f"edge_cross,{_g(ev.arc_length)},{ev.gluing},{int(ev.forward)},")
        elif isinstance(ev, ConeHit):
            rows.append(f"cone_hit,{_g(ev.arc_length)},,,{ev.vclass}")
    return rows


def _cmd_trace(args):
    s = _load_surface(args)
    path = _trace_from_args(s, args)
    rows = ["face,entry_x,entry_y,exit_x,exit_y,length,direction"]
    for seg in path.segments:
        rows.append(
            f"{seg.face},{_g(seg.entry[0])},{_g(seg.entry[1])},"
            f"{_g(seg.exit[0])},{_g(seg.exit[1])},{_g(seg.length)},{_g(seg.direction)}"
        )
    rows.append("")
    rows.extend(_event_rows(path))
    rows.append("")
    rows.append(f"# end_state {path.end.face} {_g(path.end.x)} {_g(path.end.y)} {_g(path.end.direction)}")
    rows.append(f"# length {_g(path.length)}")
    _write_artifact(args, "trace.csv", rows)
    return 0


def _cmd_develop(args):
    s = _load_surface(args)
    path = _trace_from_args(s, args)
    _, polyline = develop(path)
    rows = ["x,y"]
    for px, py in polyline:
        rows.append(f"{_g(px)},{_g(py)}")
    chord = math.dist(polyline[0], polyline[-1])
    rows.append(f"# chord {_g(chord)}")
    rows.append(f"# length {_g(path.length)}")
    _write_artifact(args, "develop.csv", rows)
    return 0


def _shorten_word(s, args):
    """Shorten the --word loop; a word that does not fit the surface is a usage error."""
    return _checked(lambda: shorten(s, Loop(_parse_word(args.word))))


def _cmd_shorten(args):
    s = _load_surface(args)
    g = _shorten_word(s, args)
    _write_artifact(args, "shorten.txt", certificate_text(s, g).rstrip("\n").split("\n"))
    return 0


def _cmd_cylinder(args):
    s = _load_surface(args)
    g = _shorten_word(s, args)
    cyl = flat_cylinder(s, g)
    rows = [
        f"circumference {_g(cyl.circumference)}",
        f"width_left {_g(cyl.width_left)}",
        f"width_right {_g(cyl.width_right)}",
    ]
    _write_artifact(args, "cylinder.txt", rows)
    return 0


def _cmd_unique_search(args):
    s = _load_surface(args)
    g = _checked(find_unique_closed, s, args.budget, args.seed, args.max_word_len)
    _write_artifact(args, "unique.txt", certificate_text(s, g).rstrip("\n").split("\n"))
    return 0


def _cmd_busemann(args):
    s = _load_surface(args)
    rx, ry = _parse_pair(args.ray_start, "--ray-start")
    ray = _checked(trace, s, TangentState(args.ray_face, rx, ry, args.ray_dir), args.horizon)
    x = _parse_point(s, args.x, "--x")
    xp = _parse_point(s, args.x_prime, "--x-prime")
    schedule = [float(v) for v in args.schedule.split(",")] if args.schedule else None
    est = _checked(busemann, s, ray, x, xp, schedule)
    rows = ["t,alpha"]
    for t, a in est.history:
        rows.append(f"{_g(t)},{_g(a)}")
    rows.append(f"# value {_g(est.value)} t_used {_g(est.t_used)} converged {est.converged}")
    _write_artifact(args, "busemann.csv", rows)
    return 0


def _cmd_converge(args):
    s = _load_surface(args)
    x1, y1 = _parse_pair(args.start1, "--start1")
    x2, y2 = _parse_pair(args.start2, "--start2")
    g1 = _checked(trace, s, TangentState(args.face1, x1, y1, args.dir1), args.horizon * 1.5)
    g2 = _checked(trace, s, TangentState(args.face2, x2, y2, args.dir2), args.horizon * 1.5)
    c = _checked(equidistant_reparam, s, g1, g2)
    if abs(c) > 1e-12:
        if c > 0:
            g1 = time_shift(g1, c)
        else:
            g2 = time_shift(g2, -c)
    profile = _checked(convergence_profile, s, g1, g2, args.horizon, args.samples)
    rows = ["t,distance"]
    for t, d in profile:
        rows.append(f"{_g(t)},{_g(d)}")
    rows.append(f"# shift {_g(c)}")
    _write_artifact(args, "converge.csv", rows)
    return 0


def _cmd_mix(args):
    s = _load_surface(args)
    co = _parse_cell(args.cell_o, "--cell-o")
    cu = _parse_cell(args.cell_u, "--cell-u")
    rep = _checked(hit_times, s, co, cu, args.horizon, args.dt, args.samples, args.seed)
    rows = ["bin_index,t_lo,t_hi,hit"]
    for k, h in enumerate(rep.hit_bins):
        rows.append(f"{k},{_g(k * args.dt)},{_g((k + 1) * args.dt)},{int(h)}")
    rows.append(f"# first_hit {'' if rep.first_hit is None else _g(rep.first_hit)}")
    rows.append(f"# t0_estimate {'' if rep.t0_estimate is None else _g(rep.t0_estimate)}")
    rows.append(f"# cone_discards {rep.cone_discards}")
    _write_artifact(args, "mix.csv", rows)
    return 0


def _cmd_transit(args):
    s = _load_surface(args)
    co = _parse_cell(args.cell_o, "--cell-o")
    cu = _parse_cell(args.cell_u, "--cell-u")
    res = _checked(transitivity_scan, s, co, cu, args.horizon, args.dt, args.samples, args.seed)
    rows = ["t"]
    rows.extend(_g(t) for t in res.times)
    rows.append(f"# success {res.success}")
    if res.reason:
        rows.append(f"# reason {res.reason}")
    _write_artifact(args, "transit.csv", rows)
    return 0


def _cmd_cone_approach(args):
    s = _load_surface(args)
    rows_out, quantiles = _checked(
        cone_approach_experiment, s, args.trajectories, args.length, args.seed
    )
    rows = ["trajectory,final_min_distance"]
    for i, d in rows_out:
        rows.append(f"{i},{_g(d)}")
    for q, v in sorted(quantiles.items()):
        rows.append(f"# q{int(q * 100):02d} {_g(v)}")
    _write_artifact(args, "cone_approach.csv", rows)
    return 0


def _cmd_serialize(args):
    s = _load_surface(args)
    text = serialize(s)
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="conetrace",
        description="Geodesic simulation on Euclidean surfaces with cone angles above 2*pi",
    )
    top.add_argument("--version", action="version", version=f"conetrace {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        _add_surface_args(p)
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--out", default=".", help="output directory for artifacts")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, help="check surface invariants")

    p = add("gb-audit", _cmd_gb_audit, help="Gauss-Bonnet disc residual")
    p.add_argument("--interior", default="", help="comma list of interior cone angles")
    p.add_argument("--boundary", default="", help="comma list of inside boundary angles")
    p.add_argument("--tol", type=float, default=None, help="exit 1 when |residual| exceeds this")

    for name, fn in (("trace", _cmd_trace), ("develop", _cmd_develop)):
        p = add(name, fn, help=f"{name} a geodesic")
        p.add_argument("--start", required=True, help="x,y in the start face chart")
        p.add_argument("--face", type=int, default=0)
        p.add_argument("--dir", dest="direction", type=float, default=0.0)
        p.add_argument("--len", dest="length", type=float, required=True)

    for name, fn in (("shorten", _cmd_shorten), ("cylinder", _cmd_cylinder)):
        p = add(name, fn, help=f"{name} in a free homotopy class")
        p.add_argument("--word", required=True, help="crossing word, e.g. 0+,3-")

    p = add("unique-search", _cmd_unique_search, help="search for a unique-in-class geodesic")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--max-word-len", type=int, default=5)

    p = add("busemann", _cmd_busemann, help="Busemann difference along a ray")
    p.add_argument("--ray-start", required=True, help="x,y of the ray base point")
    p.add_argument("--ray-face", type=int, default=0)
    p.add_argument("--ray-dir", type=float, default=0.0)
    p.add_argument("--horizon", type=float, required=True, help="ray length to trace")
    p.add_argument("--x", required=True, help="face,x,y")
    p.add_argument("--x-prime", required=True, help="face,x,y")
    p.add_argument("--schedule", default="", help="comma list of evaluation times")

    p = add("converge", _cmd_converge, help="distance profile of two geodesics")
    p.add_argument("--start1", required=True)
    p.add_argument("--face1", type=int, default=0)
    p.add_argument("--dir1", type=float, default=0.0)
    p.add_argument("--start2", required=True)
    p.add_argument("--face2", type=int, default=0)
    p.add_argument("--dir2", type=float, default=0.0)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--samples", type=int, default=33)

    for name, fn in (("mix", _cmd_mix), ("transit", _cmd_transit)):
        p = add(name, fn, help=f"{name} experiment on phase cells")
        p.add_argument("--cell-o", required=True, help="face,ix,iy,idir")
        p.add_argument("--cell-u", required=True, help="face,ix,iy,idir")
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--dt", type=float, default=0.5)
        p.add_argument("--samples", type=int, default=4000)

    p = add("cone-approach", _cmd_cone_approach, help="running-min cone distance statistics")
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--length", type=float, required=True)

    p = add("serialize", _cmd_serialize, help="canonical surface text")
    p.add_argument("--out-file", default="", help="write here instead of stdout")

    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.argv = list(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConetraceError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
