"""Smoke test of the benchmark: every workload at its smallest size under seed 0.

    python3 -m pytest -q perfbench/test_smoke.py

A one-second budget still runs one whole cycle of each workload.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_no_operation_fails(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stderr
    assert result["correct"] is True


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
