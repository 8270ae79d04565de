"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite).

Runs every workload once untraced and once traced at a reduced scale,
plus the result-line contract and the failure paths.  Takes about
twenty seconds:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from cells import cell_labels  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.1"


def _run(*args: str, cwd: Path = ROOT, env: Dict[str, str] | None = None) -> Tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )
    return proc.returncode, proc.stdout


def _result_line(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


def _names(section: str) -> List[str]:
    return [metric["name"] for metric in BENCHMARK[section]]


@pytest.fixture(scope="module")
def every_workload(tmp_path_factory: pytest.TempPathFactory) -> List[Dict[str, Any]]:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    code, stdout = _run("--scale", SCALE, "--repeats", "1", "--trace", "--out", str(out))
    assert code == 0, stdout
    assert _result_line(stdout)["failed"] == 0
    return json.loads(out.read_text())["results"]


def test_benchmark_json_names_the_runner_workloads_and_metrics() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert _names("per_layer") == [
        name for name, _ in run.LAYER_METRICS if name not in run.STRUCTURAL_ZEROS
    ]


def test_every_metric_is_emitted(every_workload: List[Dict[str, Any]]) -> None:
    for result in every_workload:
        assert set(_names("end_to_end")) <= set(result["metrics"]), result["workload"]
        assert set(_names("per_layer")) <= set(result["layers"]), result["workload"]
        assert result["metrics"]["fail_frac"]["value"] == 0.0


def test_names_left_out_of_the_result_line_read_zero_somewhere(
    every_workload: List[Dict[str, Any]]
) -> None:
    for name in run.STRUCTURAL_ZEROS:
        assert any(r["layers"][name]["value"] == 0 for r in every_workload), name


def test_self_times_add_up_to_the_traced_wall(every_workload: List[Dict[str, Any]]) -> None:
    for result in every_workload:
        traced = result["traced"]
        unattributed = result["layers"]["bench.unattributed_frac"]["value"] * traced["wall_s"]
        total = sum(traced["layer_self_s"].values()) + unattributed
        assert total == pytest.approx(traced["wall_s"], rel=0.01), result["workload"]


def test_tracing_leaves_the_figure_data_unchanged(every_workload: List[Dict[str, Any]]) -> None:
    for result in every_workload:
        assert result["traced"]["digests"] == result["runs"][0]["digests"], result["workload"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace: str, section: str) -> None:
    code, stdout = _run(
        "--workload", "fleet", "--seed", "3", "--seconds", "0.1", "--trace", trace,
        "--scale", SCALE,
    )
    line = _result_line(stdout)
    assert code == 0 and line["correct"], stdout
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_a_tampered_reference_fails_every_cell() -> None:
    labels = cell_labels("fleet")
    tampered = {label: "0" * 16 for label in labels}
    result = run.measure("fleet", 0, float(SCALE), 1, None, False, labels, tampered)
    assert result["failed"] == result["attempted"] == len(labels)
    assert result["metrics"]["fail_frac"]["value"] == 1.0


def test_refuses_to_measure_a_validating_build() -> None:
    code, stdout = _run("--workload", "fleet", env={**os.environ, "REPRO_VALIDATE": "1"})
    assert code == 2 and not stdout


def test_fails_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = _run("--workload", "fleet", "--seconds", "1", cwd=tmp_path)
    assert code != 0 and not stdout
