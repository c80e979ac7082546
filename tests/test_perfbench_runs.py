"""Each workload BENCHMARK.json lists runs for one second and reports correct
outputs with no failed operation, so a run that would fail or give wrong
outputs fails here first. One traced run checks the tracer's wrappers end to
end: it must report every per-layer metric."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(workload: str, trace: int) -> dict:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload]
        + ["--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_run_reports_every_layer():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracing import PER_LAYER
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    result = _run("train-frap-sync", trace=1)
    assert result["correct"] is True
    assert {name for name, _ in PER_LAYER} <= result["metrics"].keys()
