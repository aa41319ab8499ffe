"""The paired-run comparison of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, better, verdict, won", [
    ([100, 101, 99, 100], [102, 98, 101, 100], "lower", "within bound", 1),
    ([100, 101, 99, 100], [130, 131, 129, 130], "lower", "regressed", 0),
    ([100, 101, 99, 100], [70, 71, 69, 70], "higher", "regressed", 0),
    ([20, 100, 180, 100], [101, 99, 100, 100], "lower", "unresolved", 2),  # parent spread 40% > 25%
    ([20, 100, 180, 100], [10, 15, 12, 11], "lower", "within bound", 4),  # every change run beats every parent run
])
def test_compare_gives_each_verdict(parent, change, better, verdict, won):
    got = bench_pairs.compare(parent, change, better, 0.25)
    assert got["verdict"] == verdict and got["pairs_won"] == won and got["pairs"] == 4
    assert got["parent"]["q1"] <= got["parent"]["median"] <= got["parent"]["q3"]


def test_one_pair_has_no_spread():
    got = bench_pairs.compare([2.0], [1.0], "lower", 0.25)
    assert got["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0} and got["parent_spread"] == 0.0
    assert got["relative_change"] == -0.5 and got["verdict"] == "within bound" and got["pairs_won"] == 1
