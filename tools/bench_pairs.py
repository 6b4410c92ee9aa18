#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout as alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N WORKLOAD:SEEDS ...

Each WORKLOAD:SEEDS argument names a workload of BENCHMARK.json and a seed
range such as ``busemann:3001-3010`` (or one seed, ``transit:3101``).  For
every seed the benchmark command of BENCHMARK.json runs once in each
checkout, ``--workload WORKLOAD --seed SEED`` appended; the side that runs
first alternates from pair to pair.  The last line of each run's standard
output is its result.  ``BENCH_<N>.json`` at the root of this repository is
rewritten after every pair, so an interrupted series keeps the pairs it
finished.  It holds every run (seed, side, order, ``correct``, ``failed`` and
the end-to-end metrics) and, per workload, each side's median and quartiles
of every end-to-end metric and the number of pairs the change won.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result object on the last non-empty line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's quartiles and the change's wins.

    runs: records with "workload", "seed", "side" and "metrics".  A pair is
    the parent's and the change's run of one workload and seed; the change
    wins it when its value is better in the metric's direction, and a tie
    counts for neither side.
    """
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == wl:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        rows = {}
        for m in end_to_end:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            row = {side: quartiles([p[side][name] for p in by_seed.values() if side in p])
                   for side in SIDES if any(side in p for p in by_seed.values())}
            row["change_wins"] = sum(
                1 for p in pairs if sign * (p["change"][name] - p["parent"][name]) > 0)
            row["pairs"] = len(pairs)
            rows[name] = row
        out[wl] = rows
    return out


def _parse_spec(spec: str) -> tuple[str, list[int]]:
    workload, _, seeds = spec.partition(":")
    lo, _, hi = seeds.partition("-")
    if not workload or not lo:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED or WORKLOAD:FIRST-LAST, got {spec!r}")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json at the repo root")
    p.add_argument("specs", nargs="+", type=_parse_spec, metavar="WORKLOAD:SEEDS")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    out_path = ROOT / f"BENCH_{args.pr}.json"
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"command": bench["command"], "run_seconds": bench["run_seconds"],
           "runs": [], "summary": {}}
    k = 0
    for workload, seeds in args.specs:
        for seed in seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            for position, side in enumerate(order):
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed)]
                res = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True)
                if res.returncode != 0:
                    sys.stderr.write(res.stderr)
                    raise SystemExit(f"{side} run of {workload} seed {seed} exited {res.returncode}")
                result = parse_result(res.stdout)
                doc["runs"].append({
                    "workload": workload, "seed": seed, "side": side, "order": position,
                    "correct": result["correct"], "failed": result["failed"],
                    "metrics": {n: result["metrics"][n]["value"] for n in names},
                })
                print(f"{workload} seed {seed} {side}: {doc['runs'][-1]['metrics']}", flush=True)
            doc["summary"] = summarise(doc["runs"], bench["end_to_end"])
            out_path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
