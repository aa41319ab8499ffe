"""Memory counters of the two training workloads, printed as one JSON line.

    python3 tools/counters.py [--steps 6] [--workers 1] [--tree DIR]

Builds the ``pretrain-b48`` and ``finetune-mc4`` set-ups of the benchmark at
its default seed by importing ``perfbench/workloads.py`` from ``--tree``
(default: this checkout), which it only reads: the set-ups write into a
temporary directory. Each workload runs ``--steps`` training steps in two
fresh processes held to the first ``--workers`` CPUs this one may use, so
that neither measurement sees the other:

- ``traced_peak_bytes``: each step's peak of traced allocations in the
  caller (``tracemalloc``, its peak reset at the end of every step, the first
  step's window opening when set-up ends). Two runs of one tree with the
  same arguments repeat it to the byte; a tree at a path of another length
  moves it by a few hundred bytes, so one run a side settles any difference
  above a kilobyte;
- ``status_kb``: the caller's ``VmHWM``, ``RssAnon`` and ``RssShmem`` (from
  ``/proc/self/status``, in kB) after set-up, after step 1 and after the last
  step, from a run without ``tracemalloc``. ``RssShmem`` holds the shared
  store; the gap from the traced peak to ``VmHWM`` is what the allocator and
  the interpreter keep.

The processes pin one BLAS thread and ``PYTHONHASHSEED`` 0, and run with
address-space randomisation off (their own personality flag, the one
``setarch -R`` sets): with it on, the traced peaks moved by up to a few
hundred bytes from run to run. Unlike a benchmark process, they do not import
SciPy to record its version, so their ``VmHWM`` sits a little under its
``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pretrain-b48", "finetune-mc4")
STATUS_KEYS = ("VmHWM", "RssAnon", "RssShmem")
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def status_kb() -> dict:
    """This process's ``STATUS_KEYS`` from ``/proc/self/status``, in kB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) for key in STATUS_KEYS}


def measure(tree: Path, name: str, steps: int, traced: bool) -> dict:
    """Set up workload ``name`` of ``tree``'s benchmark and train ``steps``
    steps in this process; the counters of one mode."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    from interbert import training

    with tempfile.TemporaryDirectory() as workdir:
        workload = {cls.name: cls for cls in (workloads.Pretrain, workloads.Finetune)}[name](workloads.DEFAULT_SEED, Path(workdir))
        workload.train_cfg = dataclasses.replace(workload.train_cfg, total_steps=steps)
        peaks, status = [], {"setup": status_kb()}

        def on_step(row):
            if traced:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            elif row.step in (1, steps):
                status["step_1" if row.step == 1 else "last_step"] = status_kb()

        if traced:
            tracemalloc.start()
        workload._train(training, on_step)
    if traced:
        return {"traced_peak_bytes": peaks}
    status.setdefault("last_step", status["step_1"])
    return {"status_kb": status}


def pinned_and_unrandomised(cpus: set) -> None:
    """Run between fork and exec: hold the child to ``cpus``, and have the
    program it execs start without address-space randomisation."""
    os.sched_setaffinity(0, cpus)
    personality = ctypes.CDLL(None).personality
    personality.argtypes, personality.restype = (ctypes.c_ulong,), ctypes.c_int
    personality(personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)  # 0xFFFFFFFF reads the flags


def run_child(tree: Path, name: str, steps: int, traced: bool, cpus: set) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0",
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    args = [sys.executable, __file__, "--tree", str(tree), "--steps", str(steps), "--child", name] + (
        ["--traced"] if traced else [])
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True,
                         preexec_fn=lambda: pinned_and_unrandomised(cpus))
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="a checkout holding src/ and perfbench/")
    parser.add_argument("--steps", type=int, default=6, help="training steps a run (the benchmark's chunk)")
    parser.add_argument("--workers", type=int, default=1, help="CPUs, and so training processes, a run may use")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.child:
        print(json.dumps(measure(tree, args.child, args.steps, args.traced)))
        return 0
    usable = sorted(os.sched_getaffinity(0))
    if not 1 <= args.workers <= len(usable):
        parser.error(f"--workers must lie in [1, {len(usable)}], the CPUs this process may use")
    cpus = set(usable[:args.workers])
    result = {"tree": str(tree), "steps": args.steps, "workers": args.workers, "workloads": {
        name: {**run_child(tree, name, args.steps, True, cpus), **run_child(tree, name, args.steps, False, cpus)}
        for name in WORKLOADS}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
