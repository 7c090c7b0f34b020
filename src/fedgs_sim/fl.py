"""Federated round protocol: gradient-scaled aggregation and the FedAvg baseline.

Every client accumulates a cumulative gradient: the running sum of its
per-iteration parameter decrements, each scaled by the batch difficulty factor
eta (always 1 under FedAvg-style accumulation). The server averages cumulative
gradients weighted by iteration counts and subtracts the result from the
global parameters. Scaling touches ONLY the cumulative gradient; local
training itself is identical under both strategies, so local trajectories are
bitwise independent of the strategy choice.

The per-iteration decrement is defined as (params before) - (params after),
making the aggregate a pseudo-gradient: subtracting it moves the global model
toward the clients, and with eta = 1 the cumulative gradient telescopes to
(global params) - (final local params).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .data import Sample
from .masks import DifficultyConfig, batch_scaling_factor, difficulty_factor
from .model import OptimizerConfig, OptimizerState, backward, init_optimizer_state, optimizer_step


class EmptyFederationError(ValueError):
    """Aggregation was asked to combine zero client updates."""


class LengthMismatchError(ValueError):
    """Parameter vectors of different lengths cannot be aggregated."""


class DivergenceError(ValueError):
    """A gradient, a local parameter vector or an aggregate is not finite."""


@dataclass(frozen=True)
class StrategyConfig:
    kind: Literal["fedgs", "fedavg"]
    batch_size: int = 4
    local_epochs: int = 1
    difficulty: DifficultyConfig | None = None  # required for fedgs

    def __post_init__(self) -> None:
        if self.kind not in ("fedgs", "fedavg"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.kind == "fedgs" and self.difficulty is None:
            raise ValueError("fedgs requires a difficulty config")


@dataclass
class ClientState:
    """Local training state within one round; reset at every round start."""

    client_id: int
    params: np.ndarray
    cumulative_gradient: np.ndarray
    optimizer: OptimizerState
    steps_this_round: int = 0
    etas: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ClientRoundReport:
    """What a client sends to the server at round end."""

    client_id: int
    cumulative_gradient: np.ndarray
    steps: int


@dataclass(frozen=True)
class ClientRoundResult:
    """Round report plus local-side extras the simulator keeps for baselines/stats."""

    report: ClientRoundReport
    final_params: np.ndarray
    n_samples: int
    etas: list[float]
    trajectory: list[np.ndarray] | None = None


@dataclass(frozen=True)
class RoundStats:
    client_steps: list[int]
    steps_total: int
    mean_eta: float
    max_eta: float


def sample_deltas(dataset: Sequence[Sample], strategy: StrategyConfig) -> list[float] | None:
    """Each sample's difficulty factor delta under fedgs, in dataset order.

    Masks never change during a run, so a run scores each client's dataset
    once and every batch reads its deltas from this list. Under fedavg eta is
    1 whatever the masks, and the result is None.
    """
    if strategy.kind != "fedgs":
        return None
    return [difficulty_factor(sample.mask, strategy.difficulty).delta for sample in dataset]


def local_iteration(
    state: ClientState,
    batch: Sequence[Sample],
    strategy: StrategyConfig,
    deltas: Sequence[float] | None = None,
) -> ClientState:
    """One local training step on `batch`; returns the updated client state.

    The optimizer update uses the plain mean Dice-loss gradient regardless of
    strategy, from one backward call over the stacked batch. Under fedgs the
    decrement added to the cumulative gradient is scaled by the batch's eta,
    computed from `deltas` (the batch's sample_deltas, in batch order; scored
    here when omitted); under fedavg eta is 1. A non-finite gradient or
    updated parameter vector raises DivergenceError naming the client and the
    step.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if len(batch) > strategy.batch_size:
        raise ValueError(f"batch of {len(batch)} exceeds configured size {strategy.batch_size}")

    images = np.stack([sample.image for sample in batch])
    masks = np.stack([sample.mask for sample in batch])
    grad = backward(state.params, images, masks)
    new_params, new_opt = optimizer_step(state.optimizer, state.params, grad)
    for what, vector in (("gradient", grad), ("local parameters", new_params)):
        if not np.isfinite(vector).all():
            step = state.steps_this_round + 1
            raise DivergenceError(f"client {state.client_id}: non-finite {what} at local step {step}")

    if strategy.kind == "fedgs":
        if deltas is None:
            deltas = sample_deltas(batch, strategy)
        # short final batches use their true length as N
        eta = batch_scaling_factor(deltas, len(batch))
    else:
        eta = 1.0

    decrement = state.params - new_params
    state.cumulative_gradient = state.cumulative_gradient + eta * decrement
    state.params = new_params
    state.optimizer = new_opt
    state.steps_this_round += 1
    state.etas.append(eta)
    return state


def run_client_round(
    global_params: np.ndarray,
    dataset: Sequence[Sample],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rng: np.random.Generator,
    client_id: int = 0,
    record_trajectory: bool = False,
    deltas: Sequence[float] | None = None,
) -> ClientRoundResult:
    """Run local_epochs epochs of batched training from the global snapshot.

    The client starts every round fresh: parameters copied from the global
    model, cumulative gradient zeroed, optimizer moments reinitialized. Epoch
    order is shuffled from the caller-supplied stream, which must not depend
    on the strategy so that fedgs/fedavg trajectories stay comparable.
    `deltas` is sample_deltas(dataset, strategy), built here when omitted;
    each batch takes its deltas in the epoch's shuffled order.
    """
    if not dataset:
        raise ValueError("client dataset must be non-empty")
    if deltas is None:
        deltas = sample_deltas(dataset, strategy)
    elif len(deltas) != len(dataset):
        raise ValueError(f"{len(deltas)} deltas for a client of {len(dataset)} samples")
    state = ClientState(
        client_id=client_id,
        params=np.array(global_params, dtype=np.float64, copy=True),
        cumulative_gradient=np.zeros_like(global_params),
        optimizer=init_optimizer_state(optimizer_cfg, global_params.size),
    )
    trajectory: list[np.ndarray] | None = [] if record_trajectory else None
    n = len(dataset)
    for _ in range(strategy.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, strategy.batch_size):
            indices = order[start : start + strategy.batch_size]
            batch = [dataset[i] for i in indices]
            batch_deltas = None if deltas is None else [deltas[i] for i in indices]
            state = local_iteration(state, batch, strategy, batch_deltas)
            if trajectory is not None:
                trajectory.append(state.params.copy())
    report = ClientRoundReport(
        client_id=client_id,
        cumulative_gradient=state.cumulative_gradient,
        steps=state.steps_this_round,
    )
    return ClientRoundResult(
        report=report,
        final_params=state.params,
        n_samples=n,
        etas=state.etas,
        trajectory=trajectory,
    )


def _check_lengths(vectors: Sequence[np.ndarray]) -> None:
    lengths = {v.shape for v in vectors}
    if len(lengths) > 1:
        raise LengthMismatchError(f"mismatched parameter vector shapes: {sorted(lengths)}")


def aggregate_fedgs(reports: Sequence[ClientRoundReport]) -> np.ndarray:
    """Average cumulative gradients weighted by each client's iteration count."""
    if not reports:
        raise EmptyFederationError("no client reports to aggregate")
    _check_lengths([r.cumulative_gradient for r in reports])
    steps_total = sum(r.steps for r in reports)
    aggregate = np.zeros_like(reports[0].cumulative_gradient)
    for r in reports:
        aggregate += (r.steps / steps_total) * r.cumulative_gradient
    return aggregate


def apply_global_update(global_params: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """New global parameters: current minus the aggregated pseudo-gradient."""
    if global_params.shape != aggregate.shape:
        raise LengthMismatchError(f"global shape {global_params.shape} != aggregate shape {aggregate.shape}")
    return global_params - aggregate


def aggregate_fedavg(client_params: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Weighted mean of full parameter vectors (weights = client sample counts)."""
    if not client_params:
        raise EmptyFederationError("no client parameters to aggregate")
    _check_lengths([p for p, _ in client_params])
    weights = [w for _, w in client_params]
    if min(weights) < 0 or sum(weights) <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    total = sum(weights)
    mean = np.zeros_like(client_params[0][0])
    for params, weight in client_params:
        mean += (weight / total) * params
    return mean


def run_round(
    global_params: np.ndarray,
    client_datasets: Sequence[Sequence[Sample]],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rng_streams: Sequence[np.random.Generator],
    client_deltas: Sequence[Sequence[float] | None] | None = None,
) -> tuple[np.ndarray, RoundStats]:
    """One full federated round: local training on every client, then aggregation.

    All clients start from the same global snapshot. fedgs subtracts the
    step-weighted cumulative-gradient average; fedavg averages final client
    parameters weighted by sample counts. `client_deltas` holds each client's
    sample_deltas; a run builds it once and passes it to every round, and it
    is built here when omitted.
    """
    if not client_datasets:
        raise EmptyFederationError("need at least one client")
    if len(rng_streams) != len(client_datasets):
        raise ValueError("need one rng stream per client")
    if client_deltas is None:
        client_deltas = [sample_deltas(dataset, strategy) for dataset in client_datasets]
    elif len(client_deltas) != len(client_datasets):
        raise ValueError("need one delta list per client")

    results = [
        run_client_round(global_params, dataset, strategy, optimizer_cfg, rng, client_id=i, deltas=deltas)
        for i, (dataset, rng, deltas) in enumerate(zip(client_datasets, rng_streams, client_deltas))
    ]
    if strategy.kind == "fedgs":
        aggregate = aggregate_fedgs([r.report for r in results])
        new_global = apply_global_update(global_params, aggregate)
    else:
        new_global = aggregate_fedavg([(r.final_params, float(r.n_samples)) for r in results])
    if not np.isfinite(new_global).all():
        raise DivergenceError("non-finite aggregate of all clients")

    all_etas = [eta for r in results for eta in r.etas]
    stats = RoundStats(
        client_steps=[r.report.steps for r in results],
        steps_total=sum(r.report.steps for r in results),
        mean_eta=float(np.mean(all_etas)),
        max_eta=float(np.max(all_etas)),
    )
    return new_global, stats
