"""Self-test of the benchmark harness, on small inputs (smoke mode).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 0.05


def smoke(name, trace=0):
    return run.run_workload(name, run.DEFAULT_SEED, SMOKE_SECONDS, trace, smoke=True, setup_repeats=1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit_and_nothing_fails(name, trace):
    result = smoke(name, trace)
    assert result["failed"] == 0, result["detail"]["errors"]
    assert result["correct"] and result["attempted"] >= 1
    assert result["detail"]["fail_ratio"] == 0
    if trace:
        expected = {metric: unit for metric, unit, _ in run.per_layer_metrics()}
    else:
        expected = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def _assert_gate_fails(name):
    result = smoke(name)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["detail"]["fail_ratio"] > 0


def test_wrong_subgroup_count_fails_group_certify(monkeypatch):
    monkeypatch.setitem(workloads.SUBGROUP_COUNTS, 5, 60)
    _assert_gate_fails("group-certify")


def test_wrong_branch_cycle_golden_fails_enumerate_tails(monkeypatch):
    shape, orders, golden = workloads.BRANCH_CASES[0]
    flipped = ((shape, orders, not golden),) + workloads.BRANCH_CASES[1:]
    monkeypatch.setattr(workloads, "BRANCH_CASES", flipped)
    _assert_gate_fails("enumerate-tails")


def test_wrong_claim_golden_fails_cli_check(monkeypatch):
    monkeypatch.setitem(workloads.CLAIM_STATUS, 5, ("pass", "pass", "fail"))
    monkeypatch.setitem(workloads.CLAIM_STATUS, 7, ("pass", "pass", "fail"))
    _assert_gate_fails("cli-check")


def test_broken_reduction_fails_tower_verify(monkeypatch):
    importer = run.import_program

    def broken():
        mods = importer()
        mods.exactmath.as_reduce = lambda g: g  # a reduction that does nothing
        return mods

    monkeypatch.setattr(run, "import_program", broken)
    _assert_gate_fails("tower-verify")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-verify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
