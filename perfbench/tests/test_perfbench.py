"""Tests of the benchmark itself: smoke runs, the gate, the tracer, the spec.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, totals  # noqa: E402


def bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = bench(ROOT, "--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["phases.check_schedule_safety.calls"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    from affineswarm import cli

    out = tmp_path_factory.mktemp("bundle") / "run"
    scenario = ROOT / "src" / "affineswarm" / "scenarios" / "default.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", str(scenario), "--out", str(out)]) == 0
    return out


def gate_copy(bundle: Path, tmp_path: Path, damage) -> list[str]:
    copy = tmp_path / "copy"
    shutil.copytree(bundle, copy)
    damage(copy)
    failures, _ = gate.gate_bundle(copy, has_corridor=True, d_min=0.5, first=True)
    return failures


def test_gate_passes_an_intact_bundle(bundle, tmp_path):
    assert gate_copy(bundle, tmp_path, lambda b: None) == []


def test_gate_fails_closed_on_a_truncated_trace(bundle, tmp_path):
    def truncate(b):
        path = b / "trace_cf3.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))

    assert gate_copy(bundle, tmp_path, truncate)


def test_gate_fails_closed_on_a_flipped_safety_pass(bundle, tmp_path):
    def flip(b):
        path = b / "metrics.json"
        doc = json.loads(path.read_text())
        doc["safety_pass"] = False
        path.write_text(json.dumps(doc))

    failures = gate_copy(bundle, tmp_path, flip)
    assert any("safety_pass" in f for f in failures)


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    from affineswarm import cli
    from affineswarm.phases import PhaseSchedule

    def snapshot():
        mods = {n: m for n, m in sys.modules.items() if n.startswith("affineswarm")}
        attrs = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
        attrs[("PhaseSchedule", "coords_at")] = vars(PhaseSchedule)["coords_at"]
        return attrs

    before = snapshot()
    tracer = Tracer()
    scenario = str(ROOT / "src" / "affineswarm" / "scenarios" / "default.json")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.check_schedule_safety is not before[("affineswarm.cli", "check_schedule_safety")]
        assert tracer.command("check", cli.main, ["check", scenario]) == 0
        assert tracer.command("plan", cli.main, ["plan", scenario, "--out",
                                                 str(tmp_path / "plan.csv")]) == 0
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    sums = totals(tracer.stats)
    assert sums["phases.check_schedule_safety"][2] == 1
    assert sums["phases.coords_at"][2] > 1000
    assert set(sums) <= set(LAYERS) | {"cli.check", "cli.plan"}


def test_a_failing_scenario_check_is_reported_not_raised(tmp_path):
    def failing(path):
        return ["check: exit code 1"]

    out = tmp_path / "scenario.json"
    info, failures = workloads.write_scenario("default", 1, ROOT, out, failing)
    assert failures == ["check: exit code 1"] and info["redraws"] == 0
    info, failures = workloads.write_scenario("swarm", 1, ROOT, out, failing)
    assert failures and info["redraws"] == workloads.MAX_REDRAWS
