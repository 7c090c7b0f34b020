"""Desk-scale federated learning simulator with difficulty-scaled aggregation."""

from .config import ExperimentConfig, default_config, parse_config
from .data import ClientData, ClientDataSpec, Federation, build_federation, generate_client_dataset
from .fl import (
    StrategyConfig,
    aggregate_fedavg,
    aggregate_fedgs,
    apply_global_update,
    run_client_round,
    run_round,
    sample_deltas,
)
from .harness import ResultRow, emit_difficulty_curve, run_experiment
from .masks import DifficultyConfig, DifficultyResult, batch_scaling_factor, difficulty_factor
from .metrics import EvalReport, dice_score, evaluate, sample_groups
from .model import (
    ArchDescriptor,
    OptimizerConfig,
    backward,
    forward,
    init_params,
    optimizer_step,
)

__version__ = "0.1.0"

__all__ = [
    "ArchDescriptor",
    "ClientData",
    "ClientDataSpec",
    "DifficultyConfig",
    "DifficultyResult",
    "EvalReport",
    "ExperimentConfig",
    "Federation",
    "OptimizerConfig",
    "ResultRow",
    "StrategyConfig",
    "aggregate_fedavg",
    "aggregate_fedgs",
    "apply_global_update",
    "backward",
    "batch_scaling_factor",
    "build_federation",
    "default_config",
    "dice_score",
    "difficulty_factor",
    "emit_difficulty_curve",
    "evaluate",
    "forward",
    "generate_client_dataset",
    "init_params",
    "optimizer_step",
    "parse_config",
    "run_client_round",
    "run_experiment",
    "run_round",
    "sample_deltas",
    "sample_groups",
]
