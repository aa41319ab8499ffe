"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-b48 --seed 0 --seconds 40 --trace 0

Run from the repository root. The workload runs in its own Python process
(perfbench/workloads.py) with ``src`` on the import path and every BLAS
thread variable at 1; two more processes only set up, so that ``setup_s``
is the median of three. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it give the environment and every metric by
name and unit. The exit code is not 0 when the program is missing, a guard
refuses the run, or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from workloads import BLAS_VARS, monotonic  # noqa: E402

SETUPS = 3                 # processes whose set-up times give the setup_s median
SETUP_TIMEOUT_S = 15
WORKLOAD_TIMEOUT_S = 120


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({type(exc).__name__})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, extra: list[str], timeout: float) -> dict:
    """Start perfbench/workloads.py, wait for it, and return its JSON line."""
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(monotonic()), *extra]
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "interbert" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'interbert'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        probes = 0 if args.trace else SETUPS - 1
        setups = [run_child(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"] for _ in range(probes)]
        result = run_child(args, [], WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"error: workload process timed out after {exc.timeout} s", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    catalog = END_TO_END if not args.trace else PER_LAYER
    metrics = {m["name"]: metrics[m["name"]] for m in catalog}

    env = {"host": platform.node(), "nproc": os.cpu_count(), **result["env"], "git": git_describe()}
    record = HERE / "_out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({**result, "env": env, "setups_s": setups, "metrics": metrics}) + "\n",
                      encoding="utf-8")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result['ops']} operations in {time.perf_counter() - started:.1f} s")
    print("environment " + json.dumps(env))
    print(f"run record written to {record.relative_to(ROOT)}")
    if not args.trace:
        print(f"setup_s from {len(setups)} processes: " + ", ".join(f"{s:.4f}" for s in setups))
        tail = result["tail"]
        print(f"steps {result['steps']}; step_ms.tail: " + (
            f"{tail['ms']:.3f} ms at p{tail['percentile']:.1f}" if tail else "none (fewer than 11 steps)"))
    else:
        print(f"spans written to {result['spans']}")
    if result.get("near_tie_rows"):
        print(f"table rows matching the oracle only up to float near-ties: {result['near_tie_rows']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    means = {m["name"]: m.get("means", {}) for m in END_TO_END}
    for name, metric in metrics.items():
        alias = means.get(name, {})
        alias = alias.get(args.workload) or alias.get("*") or ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}" + (f"   ({alias})" if alias else ""))
    print(f"failed_share = {result['failed']}/{result['attempted']}")

    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
