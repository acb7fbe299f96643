"""The benchmark's own checks, at tiny input sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_answers_correctly(name):
    result = run.run_benchmark(name, seed=3, seconds=0, trace=False, scale="tiny")
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_QUERIES
    metrics = result["metrics"]
    assert {m: metrics[m][1] for m in metrics} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_benchmark(name, seed=3, seconds=0, trace=True, scale="tiny")
    assert result["correct"], result["messages"]
    metrics = result["metrics"]
    assert {m: metrics[m][1] for m in metrics} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"][0] > 0


def _written(name, seed, directory):
    wl = workloads.build(name, seed, "tiny")
    queries = wl.write(directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return wl, queries, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_answers(name, tmp_path, monkeypatch):
    run.import_package()
    from cpref import cli

    first_wl, queries, first = _written(name, 5, tmp_path / "a")
    _, _, again = _written(name, 5, tmp_path / "b")
    _, _, other = _written(name, 6, tmp_path / "c")
    assert first == again
    assert first != other

    answers = []
    for directory in ("a", "b"):
        monkeypatch.chdir(tmp_path / directory)
        _, outcomes, _, _ = run.closed_loop(cli, queries, 0, 0, passes=1)
        answers.append({i: runs[0][:2] for i, runs in outcomes.items()})
    assert answers[0] == answers[1]


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = SPEC["command"] + ["--workload", "compile", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
