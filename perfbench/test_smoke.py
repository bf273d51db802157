"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed for every workload
with its unit, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fresh_copy(dest: Path, with_sources: bool) -> Path:
    """The files a checkout holds, without anything an earlier run left."""
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def run_all(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_for_every_workload(tmp_path, trace, kind):
    proc = run_all(fresh_copy(tmp_path, with_sources=True), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    # the long flat sums of cli_expr fail on the evaluator's recursion defect
    assert 0 < result["failed"] < result["attempted"]
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    proc = run_all(fresh_copy(tmp_path, with_sources=False), 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
