"""The summary that tools/bench_pairs.py writes into BENCH_<pr>.json."""

import argparse
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_on_fixed_pairs():
    parent = [0.080, 0.090, 0.085, 0.075, 0.100, 0.070, 0.088, 0.079, 0.095, 0.082]
    change = [0.060, 0.065, 0.058, 0.077, 0.061, 0.059, 0.063, 0.066, 0.064, 0.062]
    summary = bench_pairs.summarize(
        [({"setup_s": p}, {"setup_s": c}) for p, c in zip(parent, change)],
        {"setup_s": "lower"})["setup_s"]
    # inclusive quartiles of the sorted parent runs
    assert summary["parent"] == pytest.approx({"median": 0.0835, "q1": 0.07925, "q3": 0.0895})
    assert summary["change"] == pytest.approx({"median": 0.0625, "q1": 0.06025, "q3": 0.06475})
    assert summary["change_over_parent"] == pytest.approx(0.0625 / 0.0835)
    # pair 6 (0.070 against 0.059) is a win, pair 4 (0.075 against 0.077) is not
    assert (summary["wins"], summary["pairs"]) == (9, 10)
    assert summary["gain_rule_met"]

    rate = [(1000, 1000), (1000, 1010), (1000, 990), (1000, 1200)]
    summary = bench_pairs.summarize(
        [({"queries_per_s": p}, {"queries_per_s": c}) for p, c in rate],
        {"queries_per_s": "higher"})["queries_per_s"]
    # a tie wins for nobody, and 2 wins in 4 pairs meet no gain rule
    assert (summary["wins"], summary["pairs"]) == (2, 4)
    assert summary["change"]["median"] == pytest.approx(1005)
    assert not summary["gain_rule_met"]


def test_specs_parse_or_are_refused():
    assert bench_pairs.parse_spec("census:7:10") == ("census", 7, 10)
    with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD:SEED:PAIRS"):
        bench_pairs.parse_spec("census:7")
