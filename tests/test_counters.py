"""``tools/counters.py``: the memory counters of the training workloads."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "counters.py"


def counters(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_two_one_worker_runs_give_identical_traced_peaks():
    runs = [counters("--steps", "2") for _ in range(2)]
    peaks = [{name: w["traced_peak_bytes"] for name, w in run["workloads"].items()} for run in runs]
    assert list(peaks[0]) == ["pretrain-b48", "finetune-mc4"]
    assert all(len(steps) == 2 and min(steps) > 0 for steps in peaks[0].values())
    assert peaks[0] == peaks[1]
    for run in runs:
        assert (run["steps"], run["workers"]) == (2, 1)
        for w in run["workloads"].values():
            assert list(w["status_kb"]) == ["setup", "step_1", "last_step"]
            assert all(list(kb) == ["VmHWM", "RssAnon", "RssShmem"] for kb in w["status_kb"].values())
            # the store is shared memory, mapped only once training starts
            assert w["status_kb"]["setup"]["RssShmem"] < w["status_kb"]["last_step"]["RssShmem"]
