"""Tests of the benchmark itself, on frames small enough to run in seconds.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import workloads

BENCHMARK_JSON = os.path.join(workloads.ROOT, "BENCHMARK.json")


@pytest.fixture(autouse=True)
def tiny_frame(monkeypatch):
    monkeypatch.setattr(workloads, "FULL_ROWS", 64)
    monkeypatch.setattr(workloads, "FULL_COLS", 80)


def run_bench(capsys, *args):
    assert bench.main(list(args) + ["--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads("\n".join(lines[:-1]))
    return result, record


def test_check_activations_rejects_a_perturbed_map():
    gold = np.arange(48, dtype=np.int64).reshape(3, 4, 4) % 16
    assert workloads.check_activations(gold, gold, 1) == {
        "problems": [],
        "max_abs_delta": 0,
        "exact_frac": 1.0,
    }
    within = gold.copy()
    within[1, 2, 3] += 1
    assert workloads.check_activations(within, gold, 1)["problems"] == []
    perturbed = gold.copy()
    perturbed[2, 0, 1] += 2
    check = workloads.check_activations(perturbed, gold, 1)
    assert check["problems"] and check["max_abs_delta"] == 2


def test_perturbed_activations_count_as_failed_runs(capsys, monkeypatch):
    read = workloads.read_activations

    def perturbed(inputs):
        activations = read(inputs)
        activations[0, 0, 0] += 5
        return activations

    monkeypatch.setattr(workloads, "read_activations", perturbed)
    result, record = run_bench(capsys, "--workload", "frame_k3s1_simulate")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["accuracy"]["failed_frac"]["value"] == result["failed"] / result["attempted"] > 0
    assert any("max |delta|" in p for p in record["problems"])


def test_a_span_that_is_never_entered_fails_the_traced_run(capsys, monkeypatch):
    workload = workloads.WORKLOADS["frame_k3s1_simulate"]
    monkeypatch.setitem(
        workloads.WORKLOADS,
        workload.name,
        dataclasses.replace(workload, spans=workload.spans + ("golden.golden_layer",)),
    )
    result, record = run_bench(capsys, "--workload", workload.name, "--trace", "1")
    assert result["correct"] is False and result["failed"] >= 1
    assert any("golden.golden_layer was never entered" in p for p in record["problems"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_end_to_end_on_a_tiny_frame(capsys, workload, trace):
    result, record = run_bench(capsys, "--workload", workload, "--trace", trace)
    assert result["correct"] is True and result["failed"] == 0
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert len(record["artifact_sha256"]) == 64
    assert record["frame"] == [64, 80]
    if trace == "1":
        calls = result["metrics"]["pixel_array.mac_node_voltages_calls"]["value"]
        assert (calls > 0) == workloads.WORKLOADS[workload].is_frame


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(os.path.dirname(bench.__file__), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "chain_characterize"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
