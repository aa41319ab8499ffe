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


PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]  # median 100, q1 99.25, q3 100.75: IQR 1.5


@pytest.mark.parametrize("change, better, verdict, won", [
    ([98, 97, 96, 98, 97, 98, 99, 95, 98, 98], "lower", "improved", 10),  # medians 2 apart > IQR 1.5
    ([98, 97, 96, 98, 97, 98, 99, 95, 101, 100], "lower", "within bound", 8),  # 8 of 10 pairs < nine tenths
    ([99, 100, 97, 100, 98, 99, 102, 96, 99, 99], "lower", "within bound", 10),  # medians 1 apart < IQR 1.5
    ([102, 104, 100, 103, 101, 102, 105, 99, 102, 102], "higher", "improved", 10),
])
def test_compare_claims_a_gain_only_on_nine_tenths_of_ten_pairs_beyond_the_parent_iqr(change, better, verdict, won):
    got = bench_pairs.compare(PARENT, change, better, 0.25)
    assert got["verdict"] == verdict and got["pairs_won"] == won and got["pairs"] == 10


def test_improved_outranks_unresolved():
    parent = [40, 60, 80, 100, 100, 100, 100, 120, 140, 160]  # median 100, IQR 30: spread 30% > 25%
    got = bench_pairs.compare(parent, [v - 40 for v in parent[:9]] + [parent[9] + 1], "lower", 0.25)
    assert got["parent_spread"] > 0.25 and got["pairs_won"] == 9 and got["verdict"] == "improved"


PROC_STAT = """cpu  5254375 0 202170 11414397 9906 0 5482 88601 0 0
cpu0 2627187 0 101085 5707198 4953 0 2741 44300 0 0
intr 123 0 0
"""


def test_cpu_times_reads_steal_and_total_from_the_machine_line():
    steal, total = bench_pairs.cpu_times(PROC_STAT)
    assert steal == 88601 and total == 5254375 + 202170 + 11414397 + 9906 + 5482 + 88601
    with pytest.raises(ValueError, match="no steal column"):
        bench_pairs.cpu_times("cpu  1 2 3 4\n")


def test_steal_share_is_stolen_over_elapsed_machine_time():
    assert bench_pairs.steal_share((100, 1000), (130, 1200)) == 0.15
    assert bench_pairs.steal_share((100, 1000), (100, 1000)) == 0.0
    assert bench_pairs.steal_share(None, (100, 1000)) is None


def test_contention_lists_both_sides_per_pair():
    runs = {"w": {"parent": [{"usable_cpus": 2, "steal_share": 0.1}, {"usable_cpus": 2, "steal_share": None}],
                  "change": [{"usable_cpus": 2, "steal_share": 0.0}, {"usable_cpus": 1, "steal_share": 0.2}]}}
    assert bench_pairs.contention(runs) == {"w": [
        {"parent": {"usable_cpus": 2, "steal_share": 0.1}, "change": {"usable_cpus": 2, "steal_share": 0.0}},
        {"parent": {"usable_cpus": 2, "steal_share": None}, "change": {"usable_cpus": 1, "steal_share": 0.2}}]}
