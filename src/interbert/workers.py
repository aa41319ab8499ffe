"""Forked worker processes for work cut into independent shares.

Scoring and training both cut their work into shares whose arithmetic does
not depend on the process that runs it, so the bytes are the same at any
worker count. A forward and backward mostly hold the interpreter lock, so the
workers are processes: children forked once per call, each pinned to its own
CPU, whose bulky outputs go to memory shared with the caller.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager, suppress

import numpy as np


def score_workers() -> int:
    """Processes that scoring and training run their shares in: the CPUs this
    process may run on, or every CPU where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _even_slices(n: int, count: int) -> list[slice]:
    """``count`` contiguous runs in order out of ``n``, their sizes at most one apart."""
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping: what a forked child
    writes into it, the caller reads."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, max(1, int(np.prod(shape)) * dtype.itemsize)))


def _pin(cpus) -> None:
    """Bind this process to ``cpus``; best effort, as a refused mask only
    leaves the choice to the scheduler."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


@contextmanager
def forked(count: int, run):
    """Yield ``round_(tasks)``, which runs one round of ``count`` tasks:
    ``run(tasks[0])`` in the caller and each other ``run(tasks[w])`` in child
    w, the results returned in task order. Children are forked once, on
    entry, and serve every round of the block; tasks go to them and results
    come back pickled through pipes, so bulky outputs belong in a
    ``shared_array`` that ``run`` writes. While children live, the caller and
    each child are pinned to the caller's CPUs in turn (distinct ones while
    there are enough), and the caller's mask comes back on exit.

    Everything runs inline at ``count`` 1, without ``fork`` and while a second
    thread lives (a child would inherit locks that thread holds); a fork that
    raises ``OSError`` leaves its tasks to the caller. A child that fails or
    dies has its task and every later one run in the caller, so an exception
    arrives as raised, and a ``UserWarning`` names the child. Every child is
    reaped on exit, SIGKILLed first if the block raised (``KeyboardInterrupt`` too)."""
    if count <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield lambda tasks: [run(task) for task in tasks]
        return
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    cpus = sorted(mask or ())
    children = {}  # worker -> (pid, task writer, result reader), in fork order

    def drop(worker: int, lost: bool = False) -> None:
        pid, *pipes = children.pop(worker)
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if lost:  # a UserWarning, as the run goes on: a RuntimeWarning may be set to raise
            warnings.warn(f"worker {worker} (pid {pid}) was lost with exit status {status}; "
                          "its tasks now run in the caller", stacklevel=3)
        for pipe in pipes:
            with suppress(OSError):
                pipe.close()

    def round_(tasks: list) -> list:
        sent = set()
        for worker, task in enumerate(tasks[1:], 1):
            if worker in children:
                try:
                    pickle.dump(task, children[worker][1], pickle.HIGHEST_PROTOCOL)
                    children[worker][1].flush()
                    sent.add(worker)
                except OSError:  # the child is gone
                    drop(worker, lost=True)
        results = [run(tasks[0])]
        for worker, task in enumerate(tasks[1:], 1):
            if worker in sent:
                try:
                    results.append(pickle.load(children[worker][2]))
                    continue
                except (EOFError, OSError, pickle.UnpicklingError):  # it failed or was killed
                    drop(worker, lost=True)
            results.append(run(task))  # raises here as it raised there, or runs through
        return results

    try:
        for worker in range(1, count):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_read, task_write, result_read, result_write):
                    os.close(fd)
                continue
            if pid == 0:
                status = 1
                try:
                    for _, *pipes in children.values():  # the caller's ends to its siblings
                        for pipe in pipes:
                            pipe.close()
                    os.close(task_write)
                    os.close(result_read)
                    if cpus:
                        _pin({cpus[worker % len(cpus)]})
                    with open(task_read, "rb") as tasks, open(result_write, "wb") as results:
                        while True:
                            try:
                                task = pickle.load(tasks)
                            except EOFError:  # the caller closed its end
                                break
                            pickle.dump(run(task), results, pickle.HIGHEST_PROTOCOL)
                            results.flush()
                    status = 0
                finally:
                    os._exit(status)  # never the parent's atexit handlers or stdio buffers
            os.close(task_read)
            os.close(result_write)
            children[worker] = (pid, open(task_write, "wb"), open(result_read, "rb"))
        if cpus and children:
            _pin({cpus[0]})
        yield round_
        for worker in list(children):  # a closed task pipe ends the child
            pid, tasks, results = children[worker]
            tasks.close()
            results.close()
            os.waitpid(pid, 0)
            del children[worker]
    finally:
        for worker in list(children):
            drop(worker)
        if cpus:
            _pin(mask)
