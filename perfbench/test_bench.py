"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

A tiny run of each workload, untraced and traced, must print every metric
with its unit and pass its checks; a deliberately wrong expected value must
make a run report failed operations.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metrics_and_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, tmp_path, capsys):
    result = bench.run(workload, seed=3, seconds=0.01, trace=trace, tiny=True, out_dir=tmp_path)
    printed = capsys.readouterr().out
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and math.isfinite(metric["value"])
        assert any(line.split()[:1] == [name] and unit in line.split() for line in printed.splitlines())
    assert "failed_frac" in printed
    assert trace or "; p90 " in printed
    assert list(tmp_path.glob("trace-*.csv")) if trace else not list(tmp_path.iterdir())


def test_wrong_catalog_expectation_counts_as_failed(monkeypatch):
    manifest = bench._manifest()
    manifest["14A"]["expected"]["d"] += 1
    monkeypatch.setattr(bench, "_manifest", lambda: manifest)
    result = bench.run("catalog", seed=3, seconds=0.01, tiny=True)
    assert not result["correct"] and result["failed"] >= 1


def test_wrong_closed_form_counts_as_failed(monkeypatch):
    exact = bench._closed_form
    monkeypatch.setattr(bench, "_closed_form", lambda n, rho: tuple(v * 1.01 for v in exact(n, rho)))
    result = bench.run("variance", seed=3, seconds=0.01, tiny=True)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_redrive_disagreement_counts_as_failed(monkeypatch):
    exact = bench.redrive

    def off_by_one(tr, code, cfg):
        bit_errors, word_errors, syn_sum, syn_sq = exact(tr, code, cfg)
        return bit_errors, word_errors, syn_sum + 1, syn_sq

    monkeypatch.setattr(bench, "redrive", off_by_one)
    result = bench.run("simulate-sp", seed=3, seconds=0.01, tiny=True)
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("module", ["cli", "experiments"], ids=["timed-pass", "traced-pass"])
def test_raising_layer_counts_as_failed(module, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(getattr(bench, module), "syndrome_statistics", broken)
    result = bench.run("variance", seed=3, seconds=0.01, tiny=True)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
