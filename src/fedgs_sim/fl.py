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

A round plans each client's batches and their etas before its first kernel
call. Its clients then train in lockstep: local step i advances every client
that still has an i-th batch, in shared kernel calls, and scales each
decrement by the planned eta; the step never sees the strategy. Each
client's numbers are bitwise those it would compute alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .data import ClientData
from .masks import DifficultyConfig, ShapeMismatchError, batch_scaling_factor, difficulty_factor
from .model import KERNEL_PIXELS, KernelOverflowError, Moments, OptimizerConfig, backward, optimizer_step


class EmptyFederationError(ValueError):
    """Aggregation was asked to combine zero client updates."""


class DivergenceError(ValueError):
    """A gradient, a local parameter vector or an aggregate is not finite.

    A local parameter vector that overflows the kernel's dtype, float32 for
    client data, counts as diverged too.
    """


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
    """Local training state of a cohort of K clients within one round.

    Row k of params, cumulative_gradient and the AdamW moments belongs to
    client k. The clients advance in lockstep: every client still training
    is on the same local step, one more than its steps_this_round, and that
    step is AdamW's. The state is built afresh at every round start, and
    run_client_round returns it at round end: the server aggregates its rows.
    """

    params: np.ndarray  # (K, P)
    cumulative_gradient: np.ndarray  # (K, P)
    optimizer: OptimizerConfig
    moments: Moments | None  # AdamW's (m, v), each (K, P); None under SGD
    steps_this_round: np.ndarray  # (K,) local steps taken by each client
    etas: list[list[float]]  # each client's eta per local step

    @classmethod
    def start(cls, global_params: np.ndarray, n_clients: int, optimizer_cfg: OptimizerConfig) -> "ClientState":
        """K clients at the global snapshot: zero cumulative gradients, and zero moments under AdamW."""
        params = np.tile(np.asarray(global_params, dtype=np.float64), (n_clients, 1))
        return cls(
            params=params,
            cumulative_gradient=np.zeros_like(params),
            optimizer=optimizer_cfg,
            moments=None if optimizer_cfg.kind == "sgd" else (np.zeros_like(params), np.zeros_like(params)),
            steps_this_round=np.zeros(n_clients, dtype=np.int64),
            etas=[[] for _ in range(n_clients)],
        )


@dataclass(frozen=True)
class RoundStats:
    steps_total: int
    mean_eta: float
    max_eta: float


def sample_deltas(dataset: ClientData, strategy: StrategyConfig) -> np.ndarray | None:
    """Each sample's difficulty factor delta under fedgs, as an (n,) array in dataset order.

    Masks are read-only, so a run scores each client's mask stack once, in
    one difficulty_factor call, and every batch indexes its deltas from this
    array. Under fedavg eta is 1 whatever the masks, and the result is None.
    """
    if strategy.kind != "fedgs":
        return None
    return difficulty_factor(dataset.masks, strategy.difficulty).delta


def _kernel_calls(shapes: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """The positions of the batch `shapes`, split into the lists that share one backward call.

    Batches of the same (B, H, W) shape share calls of at most
    KERNEL_PIXELS pixels, in order; a batch larger than that gets a call of
    its own.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for j, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(j)
    calls = []
    for shape, positions in by_shape.items():
        per_call = max(1, KERNEL_PIXELS // math.prod(shape))
        calls.extend(positions[start : start + per_call] for start in range(0, len(positions), per_call))
    return calls


def local_iteration(
    state: ClientState,
    datasets: Sequence[ClientData],
    picks: Sequence[np.ndarray | None],
    etas: Sequence[float | None],
) -> ClientState:
    """One lockstep local step: client k trains on samples picks[k] of datasets[k]; returns the updated state.

    Clients whose picks are None sit the step out; the others must all be on
    the same local step. Each client's optimizer update uses the plain mean
    Dice-loss gradient of its batch. Batches of one shape share backward
    calls, each call's stack gathered just before it, and one optimizer step
    updates every training client's parameter and moment rows, AdamW's bias
    correction at the lockstep step. The decrement added to client k's
    cumulative gradient is scaled by etas[k], its batch's eta, which the
    round fixes in advance; the step itself never sees the strategy, and a
    training client whose eta is not a float is refused before any kernel
    call. A parameter vector that overflows the kernel's dtype, a non-finite
    gradient or a non-finite updated parameter vector raises DivergenceError
    naming the client and the step.
    """
    if not len(picks) == len(etas) == len(state.params):
        raise ValueError(f"{len(picks)} batches and {len(etas)} etas for a cohort of {len(state.params)} clients")
    active = [k for k, idx in enumerate(picks) if idx is not None]
    if not active:
        raise ValueError("no client has a batch")
    if not all(len(picks[k]) for k in active):
        raise ValueError("batch must be non-empty")
    for k in active:
        if not isinstance(etas[k], float):
            raise ValueError(f"client {k}: eta must be a float, got {type(etas[k]).__name__}")
    # every client trains on most steps: a slice then indexes the cohort's
    # rows as views
    rows = slice(None) if len(active) == len(state.params) else np.asarray(active)
    taken = state.steps_this_round[rows]
    if taken.min() != taken.max():
        raise ValueError(f"clients on different local steps {np.unique(taken).tolist()} cannot advance in lockstep")
    step = int(taken[0]) + 1

    params = state.params[rows]
    grad = np.empty_like(params)
    for at in _kernel_calls([(len(picks[k]), *datasets[k].images.shape[1:]) for k in active]):
        clients = [active[j] for j in at]
        images = np.concatenate([datasets[k].images[picks[k]] for k in clients])
        masks = np.concatenate([datasets[k].masks[picks[k]] for k in clients])
        try:
            grad[at] = backward(params[at], images, masks)
        except KernelOverflowError as exc:
            raise DivergenceError(
                f"client {clients[exc.row]}: local parameters overflow {exc.dtype} in the kernel at local step {step}"
            ) from exc
    moments = None if state.moments is None else tuple(moment[rows] for moment in state.moments)
    new_params, moments = optimizer_step(state.optimizer, step, params, grad, moments)
    for what, vectors in (("gradient", grad), ("local parameters", new_params)):
        if not np.isfinite(vectors).all():
            client = active[int(np.argmin(np.isfinite(vectors).all(axis=1)))]
            raise DivergenceError(f"client {client}: non-finite {what} at local step {step}")

    for k in active:
        state.etas[k].append(etas[k])
    decrement = params - new_params
    state.cumulative_gradient[rows] += np.asarray([etas[k] for k in active])[:, None] * decrement
    state.params[rows] = new_params
    if moments is not None:
        state.moments[0][rows], state.moments[1][rows] = moments
    state.steps_this_round[rows] += 1
    return state


def run_client_round(
    global_params: np.ndarray,
    datasets: Sequence[ClientData],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rngs: Sequence[np.random.Generator],
    client_deltas: Sequence[np.ndarray | None] | None = None,
) -> ClientState:
    """Run local_epochs epochs of batched training on every client, in lockstep.

    Every client starts fresh from the global snapshot: parameters copied,
    cumulative gradient zeroed, optimizer moments reinitialized. Client k
    shuffles each epoch from rngs[k], which must not depend on the strategy
    so that fedgs/fedavg trajectories stay comparable. Before any kernel
    call the round checks client_deltas and plans each client's batches of
    at most batch_size samples with their etas: batch_scaling_factor of the
    batch's deltas, in the epoch's shuffled order, under fedgs and 1 under
    fedavg. client_deltas[k] is sample_deltas(datasets[k], strategy), built
    here when omitted: a 1-D array of one delta per sample under fedgs and
    None under fedavg. Local step i advances every client that still has an
    i-th batch, so clients of unequal sizes drop out as their batches run
    out. Returns the cohort's state at round end; row k is bitwise what
    client k computes alone.
    """
    if not datasets:
        raise EmptyFederationError("need at least one client")
    if len(rngs) != len(datasets):
        raise ValueError("need one rng stream per client")
    if client_deltas is None:
        client_deltas = [sample_deltas(dataset, strategy) for dataset in datasets]
    elif len(client_deltas) != len(datasets):
        raise ValueError("need one delta list per client")
    fedgs = strategy.kind == "fedgs"
    for k, (dataset, deltas) in enumerate(zip(datasets, client_deltas)):
        if (deltas is None) == fedgs:
            need = "an array" if fedgs else "None"
            raise ValueError(f"client {k}: {strategy.kind} needs {need} for its deltas, got {type(deltas).__name__}")
        if fedgs and not (isinstance(deltas, np.ndarray) and deltas.shape == (len(dataset),)):
            got = f"{type(deltas).__name__} of shape {np.shape(deltas)}"
            raise ValueError(f"client {k}: fedgs needs a 1-D array of {len(dataset)} deltas, got {got}")

    # each client's (batch, eta) pairs over its epochs; a short batch's N is its length
    size = strategy.batch_size
    plans = []
    for dataset, deltas, rng in zip(datasets, client_deltas, rngs):
        orders = [rng.permutation(len(dataset)) for _ in range(strategy.local_epochs)]
        batches = [order[i : i + size] for order in orders for i in range(0, len(order), size)]
        plans.append([(batch, batch_scaling_factor(deltas[batch], len(batch)) if fedgs else 1.0) for batch in batches])

    state = ClientState.start(global_params, len(datasets), optimizer_cfg)
    for step in range(max(len(plan) for plan in plans)):
        picks, etas = zip(*(plan[step] if step < len(plan) else (None, None) for plan in plans))
        state = local_iteration(state, datasets, picks, etas)
    return state


def _weighted_mean(rows: np.ndarray, weights: np.ndarray, name: str) -> np.ndarray:
    """Sum over k of (weights[k] / sum(weights)) * rows[k], for a (K, P) array and K valid weights.

    numpy's reduction over axis 0 adds the weighted rows one at a time, in
    order, so the result is bitwise that of adding them to zeros in a loop.
    """
    rows = np.asarray(rows, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not len(rows):
        raise EmptyFederationError("no client rows to aggregate")
    if rows.ndim != 2 or w.shape != (len(rows),):
        raise ShapeMismatchError(f"{name} of shape {w.shape} for client rows of shape {rows.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"non-finite {name} {w.tolist()}")
    if (w < 0).any():
        raise ValueError(f"negative {name} {w.tolist()}")
    total = w.sum()
    if not total > 0:
        raise ValueError(f"{name} sum to {total}, not a positive total")
    return ((w / total)[:, None] * rows).sum(axis=0)


def aggregate_fedgs(cumulative_gradients: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Average the (K, P) cumulative gradients weighted by each client's (K,) iteration count."""
    return _weighted_mean(cumulative_gradients, steps, "steps")


def apply_global_update(global_params: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """New global parameters: current minus the aggregated pseudo-gradient."""
    if global_params.shape != aggregate.shape:
        raise ShapeMismatchError(f"global shape {global_params.shape} != aggregate shape {aggregate.shape}")
    return global_params - aggregate


def aggregate_fedavg(client_params: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of the (K, P) final parameter vectors (weights = client sample counts)."""
    return _weighted_mean(client_params, weights, "weights")


def run_round(
    global_params: np.ndarray,
    client_datasets: Sequence[ClientData],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rng_streams: Sequence[np.random.Generator],
    client_deltas: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, RoundStats]:
    """One full federated round: local training on every client, then aggregation.

    All clients start from the same global snapshot. fedgs subtracts the
    step-weighted cumulative-gradient average; fedavg averages final client
    parameters weighted by sample counts. `client_deltas` holds each client's
    sample_deltas; a run builds it once and passes it to every round, and it
    is built here when omitted.
    """
    state = run_client_round(global_params, client_datasets, strategy, optimizer_cfg, rng_streams, client_deltas)
    if strategy.kind == "fedgs":
        aggregate = aggregate_fedgs(state.cumulative_gradient, state.steps_this_round)
        new_global = apply_global_update(global_params, aggregate)
    else:
        new_global = aggregate_fedavg(state.params, [len(dataset) for dataset in client_datasets])
    if not np.isfinite(new_global).all():
        raise DivergenceError("non-finite aggregate of all clients")

    all_etas = [eta for etas in state.etas for eta in etas]
    steps_total = int(state.steps_this_round.sum())
    return new_global, RoundStats(steps_total, mean_eta=float(np.mean(all_etas)), max_eta=float(np.max(all_etas)))
