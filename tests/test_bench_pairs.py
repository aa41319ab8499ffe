"""The paired-run comparison of tools/bench_pairs.py."""

import argparse
import importlib.util
import json
import subprocess
import sys
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


FORKS_A_LARGER_CHILD = """
import os
def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024
own = rss_mb()
pid = os.fork()
if pid == 0:
    held = b"\\1" * (40 << 20)  # 40 MB, every page written
    os._exit(0)
os.waitpid(pid, 0)
print(own)
"""

# A process started by vfork and exec keeps its starter's peak RSS as a floor
# of its own, and this test process may have grown large; so the run is
# started from a fresh interpreter, and the command's child is the grandchild.
MEASURES_IT = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).parent.parent / "tools")!r})
import bench_pairs
print(json.dumps(bench_pairs.run_reaped([sys.executable, "-c", {FORKS_A_LARGER_CHILD!r}], ".")))
"""


def test_a_run_reports_the_peak_rss_of_its_process_tree(tmp_path):
    done = subprocess.run([sys.executable, "-c", MEASURES_IT], cwd=tmp_path, capture_output=True, text=True,
                          check=True, timeout=60)
    returncode, stdout, stderr, tree_peak_rss_mb = json.loads(done.stdout)
    assert returncode == 0, stderr
    own_mb = float(stdout)
    assert own_mb + 35 < tree_peak_rss_mb < own_mb + 60, (own_mb, tree_peak_rss_mb)
    assert bench_pairs.run_reaped([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path)[0] == 3


def test_tree_peaks_list_both_sides_per_pair():
    runs = {"w": {"parent": [{"tree_peak_rss_mb": 60.0}, {"tree_peak_rss_mb": 61.0}],
                  "change": [{"tree_peak_rss_mb": 90.5}, {"tree_peak_rss_mb": 91.5}]}}
    assert bench_pairs.tree_peaks(runs) == {"w": [{"parent": 60.0, "change": 90.5}, {"parent": 61.0, "change": 91.5}]}


def test_each_run_records_its_starter_rss_beside_its_tree_peak(monkeypatch, tmp_path):
    result = {"correct": True, "failed": 0, "attempted": 3, "metrics": {}}
    started = []

    def reaped(command, cwd):
        started.append(command)
        return 0, "environment {}\n" + json.dumps(result) + "\n", "", 123.5

    monkeypatch.setattr(bench_pairs, "run_reaped", reaped)
    monkeypatch.setattr(bench_pairs, "starter_rss_mb", lambda: 41.25)
    run = bench_pairs.run_once(tmp_path, ["run.py"], "w")
    assert started == [["run.py", "--workload", "w"]]
    assert run["tree_peak_rss_mb"] == 123.5 and run["starter_rss_mb"] == 41.25
    assert bench_pairs.tree_peaks({"w": {"parent": [run], "change": [run]}}, "starter_rss_mb") == {
        "w": [{"parent": 41.25, "change": 41.25}]}


def test_the_starter_rss_is_this_process_peak_in_mb():
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert before <= bench_pairs.starter_rss_mb() <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_the_closing_summary_prints_each_side_median_tree_peak_per_workload():
    metric = bench_pairs.compare([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], "lower", 0.25)
    runs = {"w": {"parent": [{"tree_peak_rss_mb": v, "starter_rss_mb": 30.0} for v in (60.0, 62.0, 90.0)],
                  "change": [{"tree_peak_rss_mb": v, "starter_rss_mb": s} for v, s in ((70.5, 30.0), (71.5, 31.5),
                                                                                       (72.5, 30.0))]}}
    lines = bench_pairs.closing_summary({"workloads": {"w": {"step_ms.p50": metric}}, "runs": runs,
                                         "src_lines": {"parent": 3849, "change": 3843}})
    assert lines[0].split()[:2] == ["w", "step_ms.p50"] and lines[0].endswith("within bound")
    assert lines[1].split() == ["w", "tree_peak_rss_mb", "median", "parent", "62.00", "change", "71.50",
                                "(starter", "floor", "up", "to", "31.50)"]
    assert lines[2].split() == ["src_lines", "parent", "3849", "change", "3843", "(-6)"]


TREES = {"parent": {"src/interbert/a.py": "x\ny\n", "src/interbert/sub/b.py": "z\n", "src/other.py": "w\n",
                    "src/interbert/sub/deep/c.py": "v\n", "src/interbert/notes.txt": "u\n"},
         "change": {"src/interbert/a.py": "x\n", "src/interbert/sub/b.py": "p\nq\nr\ns"}}  # no final newline


def test_the_record_holds_each_side_src_lines_as_wc_counts_them(monkeypatch, tmp_path):
    def write(side, dest):
        for name, text in TREES[side].items():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_text(text)

    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: write("parent", dest))
    monkeypatch.setattr(bench_pairs, "export_checkout", lambda dest: write("change", dest))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")  # no revision to resolve outside a checkout
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, command, workload: {
        "metrics": {"m": {"value": 1.0}}, "usable_cpus": 1, "steal_share": None,
        "tree_peak_rss_mb": 1.0, "starter_rss_mb": 1.0})
    benchmark = {"run_seconds": 1, "command": ["python3", "perfbench/run.py"], "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.25}]}
    args = argparse.Namespace(parent="HEAD", pairs=1)
    record = bench_pairs.measure(args, benchmark, tmp_path / "trees")
    assert record["src_lines"] == {"parent": 3, "change": 4}
    for side, want in record["src_lines"].items():
        wc = subprocess.run("wc -l src/interbert/*.py src/interbert/*/*.py", shell=True, capture_output=True,
                            cwd=tmp_path / "trees" / side, text=True, check=True).stdout
        assert int(wc.splitlines()[-1].split()[0]) == want


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "7"], 7)])
def test_the_seed_reaches_every_run_and_the_record(monkeypatch, tmp_path, argv, seed):
    benchmark = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    commands = []
    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "export_checkout", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, command, workload: commands.append(command) or {
        "metrics": {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}, "usable_cpus": 1,
        "steal_share": None, "tree_peak_rss_mb": 1.0, "starter_rss_mb": 1.0})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--pairs", "2", "--out", str(out),
                             "--scratch", str(tmp_path / "trees"), *argv]) == 0
    record = json.loads(out.read_text())
    assert len(commands) == 4 * len(benchmark["workloads"])
    assert all(command[command.index("--seed") + 1] == str(seed) for command in commands)
    assert record["seed"] == seed and f"--seed {seed} " in record["command"]
