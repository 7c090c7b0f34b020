"""The benchmark's traced mode wraps package functions by name; keep them there.

perfbench/tracer.py lists every (module, attribute) it wraps in SITES and
fails the traced benchmark run when one is missing or records no calls. These
tests read that list without importing or changing the benchmark, so that
renaming, moving or bypassing a wrapped function fails here first.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from fedgs_sim import fl
from fedgs_sim.cli import main
from fedgs_sim.config import parse_config
from test_harness import TINY_CONFIG

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_sites() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SITES":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SITES assignment in {TRACER}")


def test_tracer_lists_sites():
    assert len(traced_sites()) >= 20


@pytest.mark.parametrize("module, attr, layer", traced_sites())
def test_traced_site_resolves_to_a_callable(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({layer})"


@pytest.mark.parametrize("regime", ["blob_split", "whole_mask"])
def test_every_traced_site_runs_in_a_two_strategy_sweep(tmp_path, monkeypatch, regime):
    calls = Counter()

    def counting(site, fn):
        def wrapper(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr, _ in traced_sites():
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(f"{module_name}.{attr}", getattr(module, attr)))
    config = TINY_CONFIG.replace("seeds = 1 2\nrounds = 3", "seeds = 1\nrounds = 1")
    config = config.replace("regime = whole_mask", f"regime = {regime}")
    assert f"regime = {regime}" in config and "rounds = 1" in config
    (tmp_path / "tiny.ini").write_text(config)
    assert main(["run", "--config", str(tmp_path / "tiny.ini"), "--out", str(tmp_path / "out")]) == 0
    idle = [f"{m}.{a}" for m, a, _ in traced_sites() if calls[f"{m}.{a}"] == 0]
    assert not idle, f"traced sites with no calls: {idle}"


def test_a_fedgs_round_scores_each_batch_once_as_a_python_float(tmp_path, monkeypatch):
    # the traced benchmark counts amplified batches from each result of
    # fl.batch_scaling_factor: one call per scheduled batch, returning a float
    etas = []
    original = fl.batch_scaling_factor

    def recording(deltas):
        etas.append(original(deltas))
        return etas[-1]

    monkeypatch.setattr(fl, "batch_scaling_factor", recording)
    config = TINY_CONFIG.replace("seeds = 1 2\nrounds = 3", "seeds = 1\nrounds = 1")
    config = config.replace("batch_size = 4\nlocal_epochs = 1", "batch_size = 3\nlocal_epochs = 2")
    assert "rounds = 1" in config and "batch_size = 3" in config
    (tmp_path / "tiny.ini").write_text(config)
    cfg = parse_config(tmp_path / "tiny.ini")
    assert main(["run", "--config", str(tmp_path / "tiny.ini"), "--out", str(tmp_path / "out")]) == 0
    batches = sum(-(-spec.n_samples // cfg.batch_size) * cfg.local_epochs for spec in cfg.training_specs)
    assert len(etas) == batches == 12
    assert all(type(eta) is float for eta in etas)
