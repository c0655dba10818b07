"""Smoke test for the benchmark: each workload of bench/run.py runs briefly,
answers correctly and reports the end-to-end metrics BENCHMARK.json declares."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in _DECLARED["workloads"]]
END_TO_END = {m["name"] for m in _DECLARED["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload, tmp_path):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0.1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert set(result["metrics"]) == END_TO_END
