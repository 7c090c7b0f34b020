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
call, and its ClientState holds that plan as the round's only record. Its
clients then train in lockstep: local step i runs the i-th batch of every
client that has one, in shared kernel calls, and scales each decrement by
that batch's planned eta; the step never sees the strategy. Each client's
numbers are bitwise those it would compute alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .data import ClientData
from .masks import DifficultyConfig, batch_scaling_factor, difficulty_factor
from .model import KernelOverflowError, Moments, OptimizerConfig, backward, optimizer_step
from .shifts import images_per_call


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
    """A cohort of K clients within one round: its plan and each client's local training state.

    Client k's plan is batches[k], index arrays into its dataset in training
    order, and etas[k], each batch's eta as a (steps_k,) float64 array. Row k
    of params, cumulative_gradient and the AdamW moments belongs to client k.
    Local step i trains every client with an i-th batch, and is AdamW's step.
    The state is built afresh at every round start, and run_client_round
    returns it at round end: the server aggregates its rows.
    """

    params: np.ndarray  # (K, P)
    cumulative_gradient: np.ndarray  # (K, P)
    optimizer: OptimizerConfig
    moments: Moments  # AdamW's (m, v), each (K, P)
    batches: list[list[np.ndarray]]  # each client's sample indices per local step
    etas: list[np.ndarray]  # each client's eta per local step

    @property
    def steps(self) -> np.ndarray:
        """(K,) local steps in each client's round: its batch count."""
        return np.array([len(batches) for batches in self.batches])

    @classmethod
    def start(
        cls,
        global_params: np.ndarray,
        optimizer_cfg: OptimizerConfig,
        batches: list[list[np.ndarray]],
        etas: Sequence[Sequence[float]],
    ) -> "ClientState":
        """One client per plan at the global snapshot: zero cumulative gradients and zero moments."""
        etas = [np.asarray(client, dtype=np.float64) for client in etas]
        params = np.tile(np.asarray(global_params, dtype=np.float64), (len(batches), 1))
        moments = (np.zeros_like(params), np.zeros_like(params))
        return cls(params, np.zeros_like(params), optimizer_cfg, moments, batches, etas)


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
    shifts.KERNEL_PIXELS pixels, in order; a batch larger than that gets a
    call of its own.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for j, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(j)
    calls = []
    for shape, positions in by_shape.items():
        per_call = max(1, images_per_call(*shape[1:]) // shape[0])
        calls.extend(positions[start : start + per_call] for start in range(0, len(positions), per_call))
    return calls


def local_iteration(state: ClientState, datasets: Sequence[ClientData], step: int) -> ClientState:
    """Local step `step` of the round's plan: every client k with a step-th batch trains on it; returns the state.

    Steps count from 1. Each client's optimizer update uses the plain mean
    Dice-loss gradient of its batch of datasets[k]. Batches of one shape
    share backward calls, each call's stack gathered just before it, and one
    optimizer step updates every training client's parameter and moment
    rows, AdamW's bias correction at `step`. The decrement added to client
    k's cumulative gradient is scaled by state.etas[k][step - 1], its batch's
    planned eta; the step itself never sees the strategy. A parameter vector
    that overflows the kernel's dtype, a non-finite gradient or a non-finite
    updated parameter vector raises DivergenceError naming the client and
    the step.
    """
    active = [k for k, batches in enumerate(state.batches) if len(batches) >= step]
    picks = {k: state.batches[k][step - 1] for k in active}
    # every client trains on most steps: a slice then indexes the cohort's rows as views
    rows = slice(None) if len(active) == len(state.params) else np.asarray(active)

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
    moments = (state.moments[0][rows], state.moments[1][rows])
    new_params, moments = optimizer_step(state.optimizer, step, params, grad, moments)
    for what, vectors in (("gradient", grad), ("local parameters", new_params)):
        if not np.isfinite(vectors).all():
            client = active[int(np.argmin(np.isfinite(vectors).all(axis=1)))]
            raise DivergenceError(f"client {client}: non-finite {what} at local step {step}")

    decrement = params - new_params
    state.cumulative_gradient[rows] += np.array([state.etas[k][step - 1] for k in active])[:, None] * decrement
    state.params[rows] = new_params
    state.moments[0][rows], state.moments[1][rows] = moments
    return state


def run_client_round(
    global_params: np.ndarray,
    datasets: Sequence[ClientData],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rngs: Sequence[np.random.Generator],
    client_deltas: Sequence[np.ndarray | None],
) -> ClientState:
    """Run local_epochs epochs of batched training on every client, in lockstep.

    Every client starts fresh from the global snapshot: parameters copied,
    cumulative gradient zeroed, optimizer moments reinitialized. Client k
    shuffles each epoch from rngs[k], which must not depend on the strategy
    so that fedgs/fedavg trajectories stay comparable. Before any kernel
    call the round plans each client's batches of at most batch_size
    samples with their etas: batch_scaling_factor of the batch's deltas, in
    the epoch's shuffled order, under fedgs and 1 under fedavg.
    client_deltas[k] is sample_deltas(datasets[k], strategy): a 1-D array of
    one delta per sample under fedgs and None under fedavg. Local
    step i advances every client that still has an i-th batch, so clients
    of unequal sizes drop out as their batches run out. Returns the cohort's
    state at round end; row k is bitwise what client k computes alone.
    """
    fedgs = strategy.kind == "fedgs"
    # each client's batches over its epochs and their etas; a short batch's N is its length
    size = strategy.batch_size
    batches, etas = [], []
    for dataset, deltas, rng in zip(datasets, client_deltas, rngs):
        orders = [rng.permutation(len(dataset)) for _ in range(strategy.local_epochs)]
        batches.append([order[i : i + size] for order in orders for i in range(0, len(order), size)])
        etas.append([batch_scaling_factor(deltas[batch]) if fedgs else 1.0 for batch in batches[-1]])

    state = ClientState.start(global_params, optimizer_cfg, batches, etas)
    for step in range(1, int(state.steps.max()) + 1):
        state = local_iteration(state, datasets, step)
    return state


def _weighted_mean(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over k of (weights[k] / sum(weights)) * rows[k], for a (K, P) array and K positive weights.

    numpy's reduction over axis 0 adds the weighted rows one at a time, in
    order, so the result is bitwise that of adding them to zeros in a loop.
    """
    w = np.asarray(weights, dtype=np.float64)
    return ((w / w.sum())[:, None] * np.asarray(rows, dtype=np.float64)).sum(axis=0)


def aggregate_fedgs(cumulative_gradients: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Average the (K, P) cumulative gradients weighted by each client's (K,) iteration count."""
    return _weighted_mean(cumulative_gradients, steps)


def apply_global_update(global_params: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """New global parameters: current minus the aggregated pseudo-gradient."""
    return global_params - aggregate


def aggregate_fedavg(client_params: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of the (K, P) final parameter vectors (weights = client sample counts)."""
    return _weighted_mean(client_params, weights)


def run_round(
    global_params: np.ndarray,
    client_datasets: Sequence[ClientData],
    strategy: StrategyConfig,
    optimizer_cfg: OptimizerConfig,
    rng_streams: Sequence[np.random.Generator],
    client_deltas: Sequence[np.ndarray | None],
) -> tuple[np.ndarray, RoundStats]:
    """One full federated round: local training on every client, then aggregation.

    All clients start from the same global snapshot. fedgs subtracts the
    step-weighted cumulative-gradient average; fedavg averages final client
    parameters weighted by sample counts. `client_deltas` holds each client's
    sample_deltas; a run builds it once and passes it to every round.
    """
    state = run_client_round(global_params, client_datasets, strategy, optimizer_cfg, rng_streams, client_deltas)
    if strategy.kind == "fedgs":
        aggregate = aggregate_fedgs(state.cumulative_gradient, state.steps)
        new_global = apply_global_update(global_params, aggregate)
    else:
        new_global = aggregate_fedavg(state.params, [len(dataset) for dataset in client_datasets])
    if not np.isfinite(new_global).all():
        raise DivergenceError("non-finite aggregate of all clients")

    etas = np.concatenate(state.etas)
    return new_global, RoundStats(int(state.steps.sum()), mean_eta=float(np.mean(etas)), max_eta=float(np.max(etas)))
