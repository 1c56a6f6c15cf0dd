"""Smoke test of the benchmark: every workload at smoke-test size, untraced
and traced, must be correct and report every metric of BENCHMARK.json with
its unit.

    python3 -m pytest perfbench/test_smoke.py -q
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
ENVIRONMENT_KEYS = {"git_commit", "source_sha256", "numpy", "blas", "nproc", "threads",
                    "python", "seed"}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    *_, record, result = p.stdout.strip().splitlines()
    record, result = json.loads(record), json.loads(result)
    assert record["problems"] == []
    assert ENVIRONMENT_KEYS <= set(record["environment"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(tmp_path, "--workload", "train_rpc", "--seed", "1", "--seconds", "1")
    assert p.returncode != 0
    assert p.stdout == ""
