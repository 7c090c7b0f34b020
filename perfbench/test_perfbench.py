"""Smoke tests for the benchmark, so that it cannot rot unnoticed.

    python3 -m pytest perfbench

Runs the real command on a few-second config, in both modes, and checks the
result line against BENCHMARK.json. Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SMOKE, WORKLOADS, steps_per_round  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_end_to_end_run_reports_every_metric():
    result = result_line(bench("--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    done = bench("--trace", "1")
    result = result_line(done)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for spec in BENCHMARK["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert "fedgs_sim.fl.backward -> model.backward" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_tracer_fails_on_a_missing_site(monkeypatch):
    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (("fedgs_sim.fl", "no_such_function", "fl.round"),))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracerError, match="no_such_function"):
        tracer.install()
    assert not tracer._saved  # every site it did wrap was put back
    import fedgs_sim.fl

    assert not hasattr(fedgs_sim.fl.backward, "__wrapped__")


def test_tracer_fails_when_a_site_never_runs():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    with tracer.root():
        pass
    with pytest.raises(tracing.TracerError, match="zero calls"):
        tracer.summary()


def test_checks_catch_a_wrong_eta_and_a_changed_row():
    cfg = SMOKE.config(7)
    text = "\n".join(
        [
            checks.VERSION_LINE,
            ",".join(checks.HEADER),
            *[f"7,{s},{r},0.9,0.8,0.95,{eta},{eta},{steps_per_round(cfg)},1.5"
              for s, eta in (("fedavg", "1.0"), ("fedgs", "1.2")) for r in range(cfg.rounds)],
        ]
    ) + "\n"
    assert not any(checks.check_results(text, cfg, SMOKE.dice_band).values())
    bad_eta = text.replace("7,fedavg,1,0.9,0.8,0.95,1.0,1.0", "7,fedavg,1,0.9,0.8,0.95,1.0,1.5")
    assert checks.check_results(bad_eta, cfg, SMOKE.dice_band)[(7, "fedavg")]
    assert not checks.check_results(bad_eta, cfg, SMOKE.dice_band)[(7, "fedgs")]
    fedgs_loses_small = text.replace("7,fedgs,4,0.9,0.8,", "7,fedgs,4,0.9,0.6,")
    assert checks.check_results(fedgs_loses_small, cfg, SMOKE.dice_band)[(7, "fedgs")]
    assert not checks.check_results(fedgs_loses_small, cfg, SMOKE.dice_band)[(7, "fedavg")]
    new_wall = text.replace(",1.5\n", ",2.5\n")
    assert not any(checks.check_identical(text, new_wall, 7).values())
    changed = text.replace("7,fedgs,2,0.9", "7,fedgs,2,0.91")
    found = checks.check_identical(text, changed, 7)
    assert found[(7, "fedgs")] and not found[(7, "fedavg")]
