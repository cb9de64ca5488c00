"""Tiny-size smoke test of the benchmark: output schema and answers, no timing.

    python3 -m pytest -q perfbench/test_smoke.py

Each case runs perfbench/run.py in its own process on the first few
operations of a workload, so the benchmark's fresh imports of mpunfold never
touch the importing test process.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "1", "--seconds", "0", "--ops", "6"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is True, proc.stdout
    failures = [line for line in lines if line.startswith("# failed:")]
    assert len(failures) <= result["failed"]
    assert all("known-defect probe" in line for line in failures), failures
    return result


def check_metrics(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = result_of(bench("--workload", workload, *TINY, "--trace", "0"))
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = result_of(bench("--workload", workload, *TINY, "--trace", "1"))
    check_metrics(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["cli.main.self_ms"]["value"] > 0
    assert result["metrics"]["tracing_overhead"]["value"] > 0


def test_only_known_defect_probes_fail():
    """One whole pass of unfold-build: its probes may fail, nothing else."""
    result = result_of(bench("--workload", "unfold-build", "--seed", "1", "--seconds", "0"))
    assert result["failed"] <= 2


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
