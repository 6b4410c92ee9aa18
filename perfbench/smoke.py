#!/usr/bin/env python3
"""Tiny-size smoke run: every workload, untraced and traced, emits every metric.

    python3 perfbench/smoke.py

Runs run.py with ``--tiny --seconds 1`` for each workload named in
BENCHMARK.json and checks that the last output line carries exactly the keys
the benchmark promises, that every end-to-end (untraced) or per-layer
(traced) metric appears with the unit BENCHMARK.json gives it, and that no
output was wrong.  Exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if res.returncode != 0:
                sys.exit(f"{w['name']} trace={trace}: exit {res.returncode}\n{res.stderr}")
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                sys.exit(f"{w['name']} trace={trace}: keys {sorted(out)}")
            if not out["correct"] or out["attempted"] < 1:
                sys.exit(f"{w['name']} trace={trace}: correct={out['correct']} "
                         f"attempted={out['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != want:
                sys.exit(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                         f"unit mismatch {sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
            print(f"ok {w['name']} trace={trace}: {len(got)} metrics", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
