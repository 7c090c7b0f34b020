"""The benchmark's workloads, as `fedgs-sim run` configs.

Each workload is configs/default.ini as shipped, changed by the workload's
own function: a shorter sweep and, for blob_eval and many_clients, another
federation. The benchmark's seed goes into the config's `seeds`; the
program sees only the config file the benchmark renders from it. Both
strategies run in every workload, so every layer of the training path runs
in every workload.

Importing this module needs fedgs_sim on sys.path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from fedgs_sim.config import ExperimentConfig, parse_config

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.ini"

# Fewest timed sweeps a run makes, whatever --seconds says: two are needed to
# check that repeats write the same results.csv, and the round_ms_tail
# percentile is chosen from the rounds these sweeps hold, so that it is the
# same statistic in every run of a workload.
MIN_SWEEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # The shipped default config -> this workload's config; seeds are set apart.
    shape: Callable[[ExperimentConfig], ExperimentConfig]
    # Reference tolerance for the final-round Dice of every (seed, strategy)
    # run: below the minimum over seeds 0-39 at the commit that defined the
    # benchmark. A model that stops learning stays near its initial Dice
    # (0.1-0.3), far below the band.
    dice_band: tuple[float, float]

    def config(self, seed: int) -> ExperimentConfig:
        return replace(self.shape(parse_config(DEFAULT_CONFIG)), seeds=(seed,))


def steps_per_round(cfg: ExperimentConfig) -> int:
    """Local steps summed over training clients: sum of ceil(n_i / B) * epochs."""
    return sum(-(-spec.n_samples // cfg.batch_size) * cfg.local_epochs for spec in cfg.training_specs)


def rounds_per_sweep(cfg: ExperimentConfig) -> int:
    """Rows of one sweep's results.csv: one per (seed, strategy, round)."""
    return len(cfg.seeds) * len(cfg.strategies) * cfg.rounds


def federation(base: ExperimentConfig, n_clients: int, n_samples: int, image_size: int, n_test: int):
    """n_clients clients like the default's: every fourth one small-lesion rich
    like client 4, the rest like client 1; the default's test center resized."""
    plain, small_rich = base.training_specs[0], base.training_specs[3]
    size = (image_size, image_size)
    clients = tuple(
        replace(small_rich if number % 4 == 0 else plain, n_samples=n_samples, image_size=size, seed_offset=number)
        for number in range(1, n_clients + 1)
    )
    return clients + (replace(base.test_spec, n_samples=n_test, image_size=size),)


def _default_sweep(base: ExperimentConfig) -> ExperimentConfig:
    return replace(base, rounds=8)


def _blob_eval(base: ExperimentConfig) -> ExperimentConfig:
    # tau = 13 * 4: the inverse area scales with H*W, so the small/large
    # split of the 32x32 regime carries over exactly to 64x64. At the
    # default learning rate the model does not converge within the sweep.
    return replace(
        base,
        rounds=8,
        local_epochs=1,
        optimizer=replace(base.optimizer, learning_rate=0.02),
        difficulty=replace(base.difficulty, regime="blob_split", threshold=52.0),
        client_specs=federation(base, 4, 16, 64, 240),
    )


def _many_clients(base: ExperimentConfig) -> ExperimentConfig:
    return replace(
        base,
        rounds=4,
        local_epochs=1,
        optimizer=replace(base.optimizer, learning_rate=0.05),
        client_specs=federation(base, 64, 16, 32, 60),
    )


def _smoke(base: ExperimentConfig) -> ExperimentConfig:
    return replace(
        base,
        rounds=5,
        local_epochs=1,
        difficulty=replace(base.difficulty, regime="blob_split"),
        client_specs=federation(base, 4, 4, 20, 12),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "default_sweep",
            "the shipped default federation (4x60 clients, 2 epochs, whole_mask, 32x32): backward-bound kernel work",
            _default_sweep,
            dice_band=(0.7, 0.99),
        ),
        Workload(
            "blob_eval",
            "64x64 blob_split, 4x16 clients, 1 epoch, 240-sample test center: evaluation and difficulty dominate",
            _blob_eval,
            dice_band=(0.55, 0.99),
        ),
        Workload(
            "many_clients",
            "64 clients x 16 samples, 1 epoch: per-client overhead, optimizer inits and aggregation scale with K",
            _many_clients,
            dice_band=(0.55, 0.99),
        ),
    )
}

# Not a benchmark workload: the smoke test's few-second config.
SMOKE = Workload("smoke", "smoke test only", _smoke, dice_band=(0.0, 1.0))
