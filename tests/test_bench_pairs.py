"""The pair summary of tools/bench_pairs.py, on canned benchmark output."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]


def _stdout(ops_per_s, op_p50_ms):
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}
    last = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})
    return f"busemann ops_per_s {ops_per_s} 1/s\ndetails {{}}\n{last}\n\n"


def _runs(values):
    runs = []
    for seed, (side, ops, p50) in values:
        res = bench_pairs.parse_result(_stdout(ops, p50))
        runs.append({"workload": "busemann", "seed": seed, "side": side,
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
    return runs


def test_parse_result_reads_last_line():
    assert bench_pairs.parse_result(_stdout(2.0, 5.0))["metrics"]["op_p50_ms"]["value"] == 5.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n \n")


def test_summary_quartiles_and_wins():
    runs = _runs([
        (1, ("parent", 1.0, 800.0)), (1, ("change", 30.0, 9.0)),
        (2, ("change", 32.0, 800.0)), (2, ("parent", 2.0, 800.0)),  # a tie on op_p50_ms
        (3, ("parent", 3.0, 700.0)), (3, ("change", 2.5, 10.0)),   # parent wins ops_per_s
        (4, ("parent", 4.0, 900.0)), (4, ("change", 34.0, 8.0)),
        (5, ("parent", 5.0, 600.0)),                                # unpaired
    ])
    summary = bench_pairs.summarise(runs, END_TO_END)
    ops = summary["busemann"]["ops_per_s"]
    assert ops["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert ops["change"] == {"q1": 23.125, "median": 31.0, "q3": 32.5}
    assert (ops["change_wins"], ops["pairs"]) == (3, 4)
    p50 = summary["busemann"]["op_p50_ms"]
    assert p50["parent"]["median"] == 800.0
    assert (p50["change_wins"], p50["pairs"]) == (3, 4)


def test_summary_single_run_per_side():
    runs = _runs([(7, ("parent", 1.5, 2.0))])
    row = bench_pairs.summarise(runs, END_TO_END)["busemann"]["ops_per_s"]
    assert row == {"parent": {"q1": 1.5, "median": 1.5, "q3": 1.5}, "change_wins": 0, "pairs": 0}
