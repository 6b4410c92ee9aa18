#!/usr/bin/env python3
"""Record the default-seed reference outputs that run.py checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for ``transit`` the hit-bin digest of each of
the first scans, for ``cone-approach`` the quantiles of each of the first
experiments, all at the default seed.  A run at the default seed must
reproduce them exactly (transit) or within 1e-9 (cone-approach); ops past the
recorded ones, and other seeds, get the invariant checks only.  Re-record only
when a change is meant to alter these outputs, and say why in CHANGES.md.
"""
from __future__ import annotations

import json
import sys

import run
from speed import OpTime

# more inputs than a 30 s run takes at the commit that recorded them
RECORDED_OPS = {"transit": 120, "cone-approach": 120}


def main():
    refs = {}
    for name, n in RECORDED_OPS.items():
        args = run.parse_args(["--workload", name])
        _, _, ct, wl, surfaces, inputs = run.setup(args)
        refs[name] = [wl.reference_of(wl.op(ct, surfaces, inputs.get(i), OpTime(None)))
                      for i in range(n)]
        print(name, refs[name], flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
