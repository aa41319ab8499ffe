"""Paired benchmark runs of a parent commit against the change, written as
one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_18.json

Run from anywhere inside the repository. The parent's committed files are
exported with ``git archive`` into a fresh directory under ``--scratch``
(a new temporary directory by default); the change is the checkout's
files as they are, tracked and untracked but not ignored, copied into a
second fresh directory, so both sides run from the same layout with no
leftover ``perfbench/_work``. Each run is one process of the unchanged
``perfbench/run.py`` with ``--seed N --trace 0`` at the run length
``BENCHMARK.json`` sets, over every workload it lists; the pairs alternate
which side runs first. ``N`` is ``--seed`` (default 0), recorded in the file
as ``seed``, so a claim can be checked again on a seed not used while making
it. The last line of each run's output is its JSON result.
Since scoring runs on every usable CPU, host contention can decide a pair, so
each run also records the CPUs this process may use and the share of the
machine's CPU time stolen by the hypervisor while it ran (the ``steal``
column of ``/proc/stat``, read before and after; null where it cannot be
read); the file lists both per pair. Scoring forks worker processes, whose
memory ``run.py``'s ``peak_rss_mb`` (its own ``RUSAGE_SELF``) cannot see, so
each run is reaped with ``os.wait4`` and the file also lists, per pair, each
run's process-tree peak RSS as ``tree_peak_rss_mb``. A run started by vfork and
exec keeps its starter's peak RSS as a floor of its own, so each run also
records this process's own peak just before it started, as ``starter_rss_mb``;
the closing summary prints each side's median tree peak per workload.

The file also records each side's ``src_lines``, the line count of its
``src/interbert/*.py`` and ``src/interbert/*/*.py`` as ``wc -l`` gives it,
so the size of the program sits next to its numbers; the closing summary
prints both counts and their difference.

Per workload and end-to-end metric the file records both sides' medians
and quartiles, the pairs the change won (ties count for neither), and the
parent's spread (interquartile range over median) against the bound
``BENCHMARK.json`` fixes. A metric whose change median is worse than the
parent's by more than the bound is ``regressed``. One measured over at
least ten pairs, where the change won at least nine tenths of them and its
median is better than the parent's by more than the parent's interquartile
range (q3 - q1), is ``improved``: a gain that may be claimed. Otherwise one whose parent spread
exceeds the bound is ``unresolved``, unless every change run beats every
parent run; the rest are ``within bound``. No file is written
when any run is not ``correct`` or has a failed operation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_PAIRS = 10  # the fewest pairs a claimed gain rests on


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export_commit(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` in ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_checkout(dest: Path) -> None:
    """The checkout's files as they are, tracked and untracked, ignored ones left out, in ``dest``."""
    for name in filter(None, git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the checkout is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_lines(tree: Path) -> int:
    """The newlines in ``tree``'s ``src/interbert/*.py`` and ``src/interbert/*/*.py``: their ``wc -l`` total."""
    files = [*tree.glob("src/interbert/*.py"), *tree.glob("src/interbert/*/*.py")]
    return sum(path.read_bytes().count(b"\n") for path in files)


def usable_cpus() -> int:
    """The CPUs this process (and so each run it starts) may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def cpu_times(stat: str) -> tuple[int, int]:
    """(steal, total) time of the whole machine from a ``/proc/stat`` text:
    its ``cpu`` line's user, nice, system, idle, iowait, irq, softirq and
    steal columns (guest time is already inside user)."""
    line = next(line for line in stat.splitlines() if line.startswith("cpu "))
    columns = [int(v) for v in line.split()[1:9]]
    if len(columns) < 8:
        raise ValueError(f"no steal column in {line!r}")
    return columns[7], sum(columns)


def read_cpu_times() -> tuple[int, int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return cpu_times(fh.read())
    except (OSError, StopIteration, ValueError):
        return None


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """Share of the machine's CPU time stolen between two ``cpu_times`` readings."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def run_reaped(command: list[str], cwd: Path) -> tuple[int, str, str, float]:
    """Run ``command`` in ``cwd`` to its end and reap it with ``os.wait4``: its
    exit code, stdout, stderr and the peak resident set of its process tree in
    MB, the largest of the process and every descendant it reaped (the call's
    ``ru_maxrss``, in KB on Linux). A process started by vfork and exec keeps
    its starter's peak as a floor, so the figure is only as low as this one's."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        with subprocess.Popen(command, cwd=cwd, stdout=out, stderr=err) as process:
            status, usage = os.wait4(process.pid, 0)[1:]
            process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return process.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024.0


def starter_rss_mb() -> float:
    """This process's own peak RSS in MB: the floor of the peak RSS of every
    run it starts (see ``run_reaped``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(tree: Path, command: list[str], workload: str) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its JSON result, its
    environment line, the usable CPU count, the steal share over the run, the
    peak RSS of its process tree (``run.py`` reads only its own) and this
    process's peak RSS as the run started, the floor of both. A failed
    process, a run that is not ``correct`` and a failed operation stop the
    whole measurement, before any file is written."""
    starter, before = starter_rss_mb(), read_cpu_times()
    returncode, stdout, stderr, tree_peak_rss_mb = run_reaped([*command, "--workload", workload], tree)
    after = read_cpu_times()
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        raise SystemExit(f"{workload} in {tree} exited with code {returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} in {tree}: correct {result['correct']}, {result['failed']} of "
                         f"{result['attempted']} operations failed; no file written")
    env = [line.split(" ", 1)[1] for line in lines if line.startswith("environment ")]
    result["environment"] = json.loads(env[0]) if env else None
    result["usable_cpus"], result["steal_share"] = usable_cpus(), steal_share(before, after)
    result["tree_peak_rss_mb"], result["starter_rss_mb"] = tree_peak_rss_mb, starter
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' quartiles, the pairs the change won, the parent's spread and the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    worse = sign * (p["median"] - c["median"]) / abs(p["median"]) if p["median"] else 0.0
    spread = (p["q3"] - p["q1"]) / abs(p["median"]) if p["median"] else 0.0
    if worse > bound:
        verdict = "regressed"
    elif (len(parent) >= CLAIM_PAIRS and won >= 0.9 * len(parent)
          and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]):
        verdict = "improved"
    elif spread > bound and not min(sign * v for v in change) > max(sign * v for v in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "relative_change": (c["median"] - p["median"]) / abs(p["median"])
            if p["median"] else None, "pairs_won": won, "pairs": len(parent), "parent_spread": spread,
            "bound": bound, "verdict": verdict}


def summarize(runs: dict, benchmark: dict) -> dict:
    """Per workload: every end-to-end metric's comparison, from
    ``runs[workload][side]``, each a list of run results in pair order."""
    return {workload: {m["name"]: {"unit": m["unit"], "better": m["better"], **compare(
        *([r["metrics"][m["name"]]["value"] for r in sides[side]] for side in SIDES), m["better"], m["bound"])}
        for m in benchmark["end_to_end"]} for workload, sides in runs.items()}


def contention(runs: dict) -> dict:
    """Per workload and pair, each side's usable CPU count and steal share."""
    return {workload: [{side: {key: sides[side][i][key] for key in ("usable_cpus", "steal_share")} for side in SIDES}
                       for i in range(len(sides[SIDES[0]]))] for workload, sides in runs.items()}


def tree_peaks(runs: dict, key: str = "tree_peak_rss_mb") -> dict:
    """Per workload and pair, each side's process-tree peak RSS in MB (or its ``key``)."""
    return {workload: [{side: sides[side][i][key] for side in SIDES}
                       for i in range(len(sides[SIDES[0]]))] for workload, sides in runs.items()}


def closing_summary(record: dict) -> list[str]:
    """One line per workload and end-to-end metric, then one per workload with
    each side's median process-tree peak RSS beside the largest starter floor,
    then one with each side's ``src_lines`` and their difference."""
    lines = [f"{workload:14s} {name:12s} parent {m['parent']['median']:.4g}  change {m['change']['median']:.4g}"
             f"  won {m['pairs_won']}/{m['pairs']}  spread {m['parent_spread']:.1%}  {m['verdict']}"
             for workload, metrics in record["workloads"].items() for name, m in metrics.items()]
    for workload, sides in record["runs"].items():
        peaks = {side: statistics.median(r["tree_peak_rss_mb"] for r in sides[side]) for side in SIDES}
        floor = max(r["starter_rss_mb"] for side in SIDES for r in sides[side])
        lines.append(f"{workload:14s} tree_peak_rss_mb median parent {peaks['parent']:.2f}  "
                     f"change {peaks['change']:.2f}  (starter floor up to {floor:.2f})")
    counts = record["src_lines"]
    lines.append(f"src_lines      parent {counts['parent']}  change {counts['change']}  "
                 f"({counts['change'] - counts['parent']:+d})")
    return lines


def measure(args, benchmark: dict, scratch: Path, seed: int = 0) -> dict:
    """Export both trees into ``scratch`` and run the pairs, each run at
    ``seed``: the record to write."""
    trees = {side: scratch / side for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            raise SystemExit(f"{tree} exists; give an empty --scratch")
        tree.mkdir(parents=True)
    parent = git("rev-parse", args.parent).strip()
    export_commit(parent, trees["parent"])
    export_checkout(trees["change"])

    flags = ["--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    command = [sys.executable, *benchmark["command"][1:], *flags]
    runs = {w["name"]: {side: [] for side in SIDES} for w in benchmark["workloads"]}
    for pair in range(args.pairs):
        for workload in runs:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                runs[workload][side].append(run_once(trees[side], command, workload))
                run = runs[workload][side][-1]
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: {json.dumps(run['metrics'])} "
                      f"cpus {run['usable_cpus']} steal {run['steal_share']} "
                      f"tree peak {run['tree_peak_rss_mb']:.1f} MB starter {run['starter_rss_mb']:.1f} MB",
                      flush=True)
    return {
        "parent": parent,
        "change": f"checkout at {git('rev-parse', 'HEAD').strip()}"
                  + (" with uncommitted changes" if git("status", "--porcelain").strip() else ""),
        "command": " ".join([*benchmark["command"], "--workload <workload>", *flags]),
        "pairs": args.pairs,
        "seed": seed,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "order": "pair i runs the parent first when i is even, the change first when it is odd",
        "workloads": summarize(runs, benchmark),
        "contention": contention(runs),
        "tree_peak_rss_mb": tree_peaks(runs),
        "starter_rss_mb": tree_peaks(runs, "starter_rss_mb"),
        "runs": runs,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Paired benchmark runs of a parent commit against the change.")
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="the seed every run.py process gets (default 0)")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--scratch", help="where the two trees go; default a new temporary directory")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    if args.scratch:
        record = measure(args, benchmark, Path(args.scratch), args.seed)
    else:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
            record = measure(args, benchmark, Path(scratch), args.seed)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(closing_summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
