"""Short traced benchmark runs end as the benchmark promises: exit status 0,
a passing correctness gate, and a last line of strict JSON (no NaN or
Infinity) whose per-layer metrics are all finite numbers. A traced run
wraps library functions by name, so a change to what those functions do
shows here first. Each run takes a few seconds and writes only to the
benchmark's own output folder, bench/out/."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("workload", ["train_aug", "synth_long"])
def test_traced_run_reports_finite_metrics(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1], parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics
    bad = {name: m["value"] for name, m in metrics.items()
           if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert bad == {}
