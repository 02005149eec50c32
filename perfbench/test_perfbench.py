"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload in smoke mode (first instance, one pass, all checks
on), and show that a wrong pin does count as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload):
    result = run.run(workload, seed=0, seconds=0, trace=False, smoke=True)
    assert result["correct"], result["problems"]
    assert result["attempted"] == (4 if workload == "export" else 1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_exact_counts():
    infeasible_grid = workloads.CASES["main"]["grid"][2]
    result = run.run("grid", seed=0, seconds=0, trace=True, cases=(infeasible_grid,))
    assert result["correct"], result["problems"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["spf.grid_points"] == 3 ** 9
    assert metrics["lp.solves"] == 0
    assert metrics["solver.grid_points_per_s"] > 0
    self_times = ["instance.load_s"] + [f"{layer}.self_s" for layer in
                                        ("spf", "models", "lp", "solver", "cli", "bench")]
    # The layers' self times account for the traced wall time, up to the
    # harness's own time around each call.
    assert sum(metrics[name] for name in self_times) == pytest.approx(
        metrics["trace.wall_s"], rel=1e-3)


def _failures(workload, case):
    result = run.run(workload, seed=0, seconds=0, trace=False, cases=(case,))
    return result["failed"], result["attempted"]


def test_wrong_pinned_objective_counts_as_failed():
    case = workloads.CASES["main"]["single-lp"][3]  # (8,2,8)s0, the quickest
    assert _failures("single-lp", case) == (0, 1)
    assert _failures("single-lp", dataclasses.replace(case, objective="1825/25")) == (1, 1)
    assert _failures("single-lp", dataclasses.replace(case, status="Infeasible")) == (1, 1)


def test_wrong_model_count_counts_as_failed():
    case = workloads.CASES["main"]["export"][0]
    (label, variables, constraints), *rest = case.sizes
    wrong = dataclasses.replace(case, sizes=((label, variables + 1, constraints), *rest))
    # The report and the DBM export both check the DBM count; the OBM exports do not.
    assert _failures("export", wrong) == (2, 4)
    (label, digest), *rest = case.digests
    wrong = dataclasses.replace(case, digests=((label, "0" * len(digest)), *rest))
    # Only the DBM export writes the DBM LP text.
    assert _failures("export", wrong) == (1, 4)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
