"""Experiment orchestration: multi-seed strategy sweeps, CSV output, curve export.

One experiment loops over seeds; each seed builds its federation and tags
its test set once, and every strategy runs on them: it initializes global
parameters from the seed, runs the configured number of rounds, and
evaluates the global model on the held-out test center after every round.
Rows are sorted by (seed, strategy, round) before writing. All columns
except wall_ms are byte-stable across reruns of the same config on the same
build; wall clock time is measurement, not simulation state.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ExperimentConfig
from .data import Federation, build_federation
from .fl import DivergenceError, run_round, sample_deltas
from .masks import DifficultyConfig, raw_difficulty
from .metrics import evaluate, sample_groups
from .model import KernelOverflowError, init_params
from .rng import SHUFFLE_STREAM, reseed, stream_seeds

CSV_VERSION_LINE = "# fedgs-sim v1"

CURVE_GRID_MIN = 1.0
CURVE_GRID_MAX = 1e7


@dataclass(frozen=True)
class ResultRow:
    seed: int
    strategy: str
    round: int
    dice: float
    dice_s: float | None
    dice_l: float | None
    mean_eta: float
    max_eta: float
    steps_total: int
    wall_ms: float


@dataclass(frozen=True)
class CurvePoint:
    inverse_area: float
    raw: float  # tanh(log^2), no small-lesion gate
    delta: float  # gated difficulty factor


def _run_one(
    cfg: ExperimentConfig,
    seed: int,
    strategy_kind: str,
    federation: Federation,
    groups: Sequence[str],
    client_deltas: Sequence[np.ndarray | None],
) -> list[ResultRow]:
    """One strategy's rounds on a seed's federation.

    `groups` tags its test set (sample_groups), and `client_deltas` holds each client's sample_deltas
    under this strategy.
    """
    params = init_params(seed)
    strategy = cfg.strategy(strategy_kind)
    n_clients = len(federation.clients)
    round_keys, client_keys = np.indices((cfg.rounds, n_clients)).reshape(2, -1)
    seeds = stream_seeds(seed, SHUFFLE_STREAM, round_keys, client_keys).reshape(cfg.rounds, n_clients, 4)
    streams = [np.random.default_rng(0) for _ in range(n_clients)]  # reseeded before each round's draws
    rows = []
    for round_index in range(cfg.rounds):
        for stream, row in zip(streams, seeds[round_index].tolist()):
            reseed(stream, row)
        start = time.perf_counter()
        try:
            params, stats = run_round(params, federation.clients, strategy, cfg.optimizer, streams, client_deltas)
            report = evaluate(params, federation.test_set, groups)
        except (DivergenceError, KernelOverflowError) as exc:
            raise DivergenceError(f"seed {seed}, strategy {strategy_kind}, round {round_index}: {exc}") from exc
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            ResultRow(
                seed=seed,
                strategy=strategy_kind,
                round=round_index,
                dice=report.dice,
                dice_s=report.dice_s,
                dice_l=report.dice_l,
                mean_eta=stats.mean_eta,
                max_eta=stats.max_eta,
                steps_total=stats.steps_total,
                wall_ms=wall_ms,
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every (seed, strategy) pair; deterministic up to the wall_ms column.

    A seed's federation, test-set tags and each strategy's deltas are built
    once, before any of its runs, and never change. A seed whose fedgs run
    could not act is refused before its first run: one whose every delta is
    0 would run as fedavg, and one with no small test sample would leave
    dice_s blank in every row.
    """
    rows = []
    for seed in cfg.seeds:
        federation = build_federation(list(cfg.client_specs), seed)
        groups = sample_groups(federation.test_set, cfg.difficulty)
        deltas = {
            kind: [sample_deltas(dataset, cfg.strategy(kind)) for dataset in federation.clients]
            for kind in cfg.strategies
        }
        if "fedgs" in deltas:
            at = f"seed {seed}: at threshold {cfg.difficulty.threshold}"
            if not any(client.any() for client in deltas["fedgs"]):
                raise ValueError(f"{at}, every training delta is 0, so fedgs would run as fedavg")
            if "small" not in groups:
                raise ValueError(f"{at}, no test sample is small, so dice_s would be blank in every row")
        for strategy in cfg.strategies:
            rows.extend(_run_one(cfg, seed, strategy, federation, groups, deltas[strategy]))
    rows.sort(key=lambda r: (r.seed, r.strategy, r.round))
    return rows


def _cell(value: object) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str | Path, header: list[str], records: Iterable[list[str]]) -> None:
    """Write a versioned CSV atomically: a temporary file beside `path`, then a rename.

    A write that fails partway leaves any existing file at `path` untouched
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(CSV_VERSION_LINE + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(records)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_results_csv(rows: Iterable[ResultRow], path: str | Path) -> None:
    names = [f.name for f in fields(ResultRow)]
    _write_csv(path, names, ([_cell(getattr(row, name)) for name in names] for row in rows))


def fedgs_overhead(rows: Sequence[ResultRow]) -> float | None:
    """Mean per-round wall-time overhead of fedgs relative to fedavg, or None.

    Informational only: the absolute number depends on model scale.
    """
    fedgs = [r.wall_ms for r in rows if r.strategy == "fedgs"]
    fedavg = [r.wall_ms for r in rows if r.strategy == "fedavg"]
    if not fedgs or not fedavg:
        return None
    return float(np.mean(fedgs) / np.mean(fedavg) - 1.0)


def emit_difficulty_curve(
    log_base: float, threshold: float, grid: Sequence[float] | None = None
) -> list[CurvePoint]:
    """Evaluate the difficulty transform over a grid of inverse areas.

    Emits both the raw tanh(log^2) value and the threshold-gated difficulty
    factor, for plotting the shape of the curve alongside where the gate sits.
    log_base and threshold are checked as DifficultyConfig checks them.
    """
    cfg = DifficultyConfig(log_base=log_base, threshold=threshold)
    if grid is None:
        grid = np.geomspace(CURVE_GRID_MIN, CURVE_GRID_MAX, 141)
    points = []
    for a_inv in grid:
        a_inv = float(a_inv)
        if not CURVE_GRID_MIN <= a_inv <= CURVE_GRID_MAX:
            raise ValueError(f"grid value {a_inv} outside [{CURVE_GRID_MIN}, {CURVE_GRID_MAX}]")
        raw = raw_difficulty(a_inv, cfg.log_base)
        points.append(CurvePoint(inverse_area=a_inv, raw=raw, delta=raw if a_inv >= cfg.threshold else 0.0))
    return points


def write_curve_csv(points: Iterable[CurvePoint], path: str | Path) -> None:
    records = ([_cell(p.inverse_area), _cell(p.raw), _cell(p.delta)] for p in points)
    _write_csv(path, ["inverse_area", "raw", "delta"], records)
