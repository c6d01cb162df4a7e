"""Toy-size smoke run of the benchmark: output schema only, no timing gates.

Run with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_last_line_has_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    for spec in wanted:
        assert f"{spec['name']} " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("validate-g81", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
