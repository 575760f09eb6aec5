"""The committed benchmark still runs on this tree: one short round of each
perfbench workload, and the benchmark's self-test, each in a child process
from the repository root."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ["train-n3", "corpus-n4", "classify-n4", "period-n8"])
def test_workload_runs_one_correct_round(workload):
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stdout, stderr = child.communicate(timeout=600)
    assert child.returncode == 0, stderr
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    # the run works in perfbench/out/<workload>-<pid> and removes it
    assert not (PERFBENCH / "out" / f"{workload}-{child.pid}").exists()


@pytest.mark.parametrize("workload", ["train-n3", "period-n8"])
def test_traced_round_reports_the_declared_per_layer_metrics(workload):
    # the tracer wraps the functions each module's __all__ names; seed 2 is
    # this test's alone, so the trace file it writes is removed safely
    trace = PERFBENCH / "traces" / f"{workload}-seed2.json"
    try:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
             "--seconds", "0.01", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
    finally:
        trace.unlink(missing_ok=True)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert len(declared) == 61
    assert sorted(summary["metrics"]) == sorted(metric["name"] for metric in declared)


def test_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
