from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import TrajectoryRecorder, reference_round, weighted_rows

from fedgs_sim.data import ClientDataSpec, generate_client_dataset
from fedgs_sim.fl import (
    ClientState,
    DivergenceError,
    EmptyFederationError,
    StrategyConfig,
    aggregate_fedavg,
    aggregate_fedgs,
    apply_global_update,
    local_iteration,
    run_client_round,
    run_round,
    sample_deltas,
)
from fedgs_sim.masks import BadBatchError, DifficultyConfig, ShapeMismatchError, batch_scaling_factor, difficulty_factor
from fedgs_sim.model import OptimizerConfig, backward, init_params, ArchDescriptor
from fedgs_sim.rng import SHUFFLE_STREAM, substream

SGD = OptimizerConfig(kind="sgd", learning_rate=0.01)
ADAMW = OptimizerConfig(kind="adamw", learning_rate=0.001)

# 32x32 grids: tau=13 separates small samples (inverse area >= ~17) from
# large ones (<= ~9.1) exactly, given the radius regimes below
DIFFICULTY = DifficultyConfig(log_base=100.0, threshold=13.0, regime="whole_mask")


def small_spec(**kwargs) -> ClientDataSpec:
    defaults = dict(
        n_samples=8,
        image_size=(32, 32),
        lesions_per_image=(1, 2),
        small_radius_range=(2.0, 3.0),
        large_radius_range=(6.0, 9.0),
        seed_offset=1,
    )
    defaults.update(kwargs)
    return ClientDataSpec(**defaults)


def make_dataset(n=8, small_fraction=0.0, offset=1, seed=0):
    return generate_client_dataset(small_spec(n_samples=n, small_fraction=small_fraction, seed_offset=offset), seed)


def no_kernel_call(*args):
    raise AssertionError("backward ran")


def fresh_state(params, optimizer_cfg=SGD):
    return ClientState.start(params, 1, optimizer_cfg)


def solo_step(state, dataset, idx, strategy):
    """local_iteration on a one-client cohort training on samples idx, seen as that client's row.

    The batch's eta is the one run_client_round plans for it under `strategy`.
    """
    deltas = sample_deltas(dataset, strategy)
    eta = 1.0 if deltas is None else batch_scaling_factor(deltas[idx], len(idx))
    state = local_iteration(state, [dataset], [idx], [eta])
    return SimpleNamespace(
        params=state.params[0],
        cumulative_gradient=state.cumulative_gradient[0],
        steps_this_round=int(state.steps_this_round[0]),
        etas=state.etas[0],
    )


class TestLocalIteration:
    def test_fedavg_accumulates_exact_decrement(self):
        params = init_params(ArchDescriptor(), 3)
        batch = make_dataset(n=4)
        state = fresh_state(params)
        state = solo_step(state, batch, np.arange(4), StrategyConfig(kind="fedavg", batch_size=4))
        assert np.array_equal(state.cumulative_gradient, params - state.params)
        assert state.steps_this_round == 1
        assert state.etas == [1.0]

    def test_fedgs_scales_only_the_cumulative_gradient(self):
        params = init_params(ArchDescriptor(), 4)
        batch = make_dataset(n=4, small_fraction=1.0)
        fedgs = solo_step(
            fresh_state(params),
            batch,
            np.arange(4),
            StrategyConfig(kind="fedgs", batch_size=4, difficulty=DIFFICULTY),
        )
        fedavg = solo_step(fresh_state(params), batch, np.arange(4), StrategyConfig(kind="fedavg", batch_size=4))
        # local params bitwise identical; only the accumulated gradient differs
        assert np.array_equal(fedgs.params, fedavg.params)
        eta = fedgs.etas[0]
        assert eta > 1.0
        assert np.allclose(fedgs.cumulative_gradient, eta * fedavg.cumulative_gradient, rtol=0, atol=1e-18)

    def test_eta_linearity_in_the_decrement(self):
        # replacing eta=1 by eta>1 changes the accumulated entry by exactly
        # (eta - 1) * decrement
        params = init_params(ArchDescriptor(), 5)
        batch = make_dataset(n=4, small_fraction=1.0)
        fedgs = solo_step(
            fresh_state(params), batch, np.arange(4), StrategyConfig(kind="fedgs", batch_size=4, difficulty=DIFFICULTY)
        )
        fedavg = solo_step(fresh_state(params), batch, np.arange(4), StrategyConfig(kind="fedavg", batch_size=4))
        eta = fedgs.etas[0]
        decrement = params - fedavg.params
        assert np.allclose(
            fedgs.cumulative_gradient - fedavg.cumulative_gradient,
            (eta - 1.0) * decrement,
            rtol=0,
            atol=1e-18,
        )

    def test_large_only_batch_has_eta_one(self):
        params = init_params(ArchDescriptor(), 6)
        batch = make_dataset(n=4, small_fraction=0.0)
        state = solo_step(
            fresh_state(params), batch, np.arange(4), StrategyConfig(kind="fedgs", batch_size=4, difficulty=DIFFICULTY)
        )
        assert state.etas == [1.0]

    @pytest.mark.parametrize(
        "strategy, deltas",
        [
            (StrategyConfig(kind="fedgs", difficulty=DIFFICULTY), None),
            (StrategyConfig(kind="fedavg"), np.ones(4)),
        ],
        ids=["fedgs-none", "fedavg-array"],
    )
    def test_rejects_deltas_of_the_other_strategy_before_any_kernel_call(self, monkeypatch, strategy, deltas):
        # called directly, outside run_client_round: client 0 is well formed,
        # active client 1 is handed the other strategy's deltas in place of its eta
        monkeypatch.setattr("fedgs_sim.fl.backward", no_kernel_call)
        params = init_params(ArchDescriptor(), 0)
        dataset = make_dataset(n=4)
        with pytest.raises(ValueError, match=f"client 1: eta must be a float, got {type(deltas).__name__}"):
            local_iteration(
                ClientState.start(params, 2, SGD), [dataset] * 2, [np.arange(4)] * 2, [1.0, deltas]
            )


class TestRunClientRound:
    def test_step_count(self):
        # 10 samples, batches of 4 -> 3 batches per epoch, 5 epochs -> 15
        params = init_params(ArchDescriptor(), 1)
        dataset = make_dataset(n=10)
        result = run_client_round(
            params,
            [dataset],
            StrategyConfig(kind="fedavg", batch_size=4, local_epochs=5),
            SGD,
            [substream(0, SHUFFLE_STREAM, 0, 0)],
        )
        assert result.steps_this_round[0] == 15
        assert len(result.etas[0]) == 15

    def test_deterministic_given_stream(self):
        params = init_params(ArchDescriptor(), 2)
        dataset = make_dataset(n=10)
        strategy = StrategyConfig(kind="fedavg", batch_size=4, local_epochs=2)
        a = run_client_round(params, [dataset], strategy, ADAMW, [substream(5, SHUFFLE_STREAM, 0, 0)])
        b = run_client_round(params, [dataset], strategy, ADAMW, [substream(5, SHUFFLE_STREAM, 0, 0)])
        assert np.array_equal(a.cumulative_gradient[0], b.cumulative_gradient[0])
        assert np.array_equal(a.params[0], b.params[0])

    def test_single_sample_single_epoch_sgd(self):
        # one step: cumulative gradient is exactly lr * mean-gradient
        params = init_params(ArchDescriptor(), 7)
        dataset = make_dataset(n=1)
        result = run_client_round(
            params,
            [dataset],
            StrategyConfig(kind="fedavg", batch_size=4, local_epochs=1),
            SGD,
            [substream(0, SHUFFLE_STREAM, 0, 0)],
        )
        grad = backward(params, dataset.images[0], dataset.masks[0])
        # the round-trip through params - (params - lr*g) rounds at ulp(params)
        assert np.allclose(result.cumulative_gradient[0], SGD.learning_rate * grad, rtol=0, atol=1e-15)

    def test_telescoping_identity_with_eta_one(self):
        # sum of decrements collapses to (global - final), any optimizer
        params = init_params(ArchDescriptor(), 8)
        dataset = make_dataset(n=10)
        for opt in (SGD, ADAMW):
            result = run_client_round(
                params,
                [dataset],
                StrategyConfig(kind="fedavg", batch_size=4, local_epochs=3),
                opt,
                [substream(1, SHUFFLE_STREAM, 0, 0)],
            )
            assert np.allclose(result.cumulative_gradient[0], params - result.params[0], rtol=0, atol=1e-13)

    def test_trajectory_recording(self, monkeypatch):
        recorder = TrajectoryRecorder(monkeypatch)
        params = init_params(ArchDescriptor(), 9)
        dataset = make_dataset(n=8)
        result = run_client_round(
            params,
            [dataset],
            StrategyConfig(kind="fedavg", batch_size=4, local_epochs=2),
            SGD,
            [substream(2, SHUFFLE_STREAM, 0, 0)],
        )
        (trajectory,) = recorder.take()
        assert len(trajectory) == result.steps_this_round[0] == 4
        assert np.array_equal(trajectory[-1], result.params[0])

    def test_etas_read_each_batch_deltas_in_shuffled_order(self):
        # 7 samples, batches of 3: the last batch of each epoch holds one sample
        params = init_params(ArchDescriptor(), 10)
        dataset = make_dataset(n=7, small_fraction=0.5, offset=4)
        assert any(dataset.is_small)
        strategy = StrategyConfig(kind="fedgs", batch_size=3, local_epochs=2, difficulty=DIFFICULTY)
        result = run_client_round(params, [dataset], strategy, ADAMW, [substream(4, SHUFFLE_STREAM, 0, 0)])

        rng = substream(4, SHUFFLE_STREAM, 0, 0)
        expected = []
        for _ in range(2):
            order = rng.permutation(7)
            for start in range(0, 7, 3):
                batch = order[start : start + 3]
                deltas = [difficulty_factor(dataset.masks[i], DIFFICULTY).delta for i in batch]
                expected.append(batch_scaling_factor(deltas, len(batch)))
        assert len(expected) == 6 and any(eta > 1.0 for eta in expected)
        assert result.etas[0] == expected

    def test_rejects_deltas_of_another_length(self):
        params = init_params(ArchDescriptor(), 0)
        dataset = make_dataset(n=4)
        strategy = StrategyConfig(kind="fedgs", batch_size=4, difficulty=DIFFICULTY)
        message = r"client 0: fedgs needs a 1-D array of 4 deltas, got ndarray of shape \(3,\)"
        with pytest.raises(ValueError, match=message):
            run_client_round(params, [dataset], strategy, SGD, [substream(0, SHUFFLE_STREAM, 0, 0)], [np.zeros(3)])
        with pytest.raises(ValueError, match="one delta list per client"):
            run_round(params, [dataset], strategy, SGD, [substream(0, SHUFFLE_STREAM, 0, 0)], client_deltas=[])

    @pytest.mark.parametrize(
        "strategy, deltas, message",
        [
            (StrategyConfig(kind="fedgs", difficulty=DIFFICULTY), None, "fedgs needs an array"),
            (StrategyConfig(kind="fedavg"), np.ones(4), "fedavg needs None"),
        ],
        ids=["fedgs-none", "fedavg-array"],
    )
    def test_rejects_deltas_of_the_other_strategy_before_any_kernel_call(self, monkeypatch, strategy, deltas, message):
        monkeypatch.setattr("fedgs_sim.fl.backward", no_kernel_call)
        params = init_params(ArchDescriptor(), 0)
        dataset = make_dataset(n=4)
        # alone, and as client 1 of a cohort whose client 0 is well formed
        for cohort in ([deltas], [sample_deltas(dataset, strategy), deltas]):
            streams = [substream(0, SHUFFLE_STREAM, 0, c) for c in range(len(cohort))]
            with pytest.raises(ValueError, match=f"client {len(cohort) - 1}: {message}"):
                run_client_round(params, [dataset] * len(cohort), strategy, SGD, streams, cohort)

    @pytest.mark.parametrize("deltas", [[0.0] * 4, np.zeros((4, 1))], ids=["list", "column"])
    def test_rejects_deltas_that_are_not_a_1d_array_before_any_kernel_call(self, monkeypatch, deltas):
        # both have one entry per sample, but a batch cannot index them as one delta per sample
        monkeypatch.setattr("fedgs_sim.fl.backward", no_kernel_call)
        strategy = StrategyConfig(kind="fedgs", difficulty=DIFFICULTY)
        dataset = make_dataset(n=4)
        streams = [substream(0, SHUFFLE_STREAM, 0, c) for c in range(2)]
        with pytest.raises(ValueError, match="client 1: fedgs needs a 1-D array of 4 deltas"):
            run_client_round(
                init_params(ArchDescriptor(), 0), [dataset] * 2, strategy, SGD, streams, [np.zeros(4), deltas]
            )

    @pytest.mark.parametrize("bad", [1.0, -0.1, np.nan])
    def test_rejects_a_delta_outside_the_unit_interval_before_any_kernel_call(self, monkeypatch, bad):
        monkeypatch.setattr("fedgs_sim.fl.backward", no_kernel_call)
        strategy = StrategyConfig(kind="fedgs", batch_size=2, difficulty=DIFFICULTY)
        deltas = np.array([0.0, 0.5, bad, 0.0])
        params, stream = init_params(ArchDescriptor(), 0), substream(0, SHUFFLE_STREAM, 0, 0)
        with pytest.raises(BadBatchError, match="outside"):
            run_client_round(params, [make_dataset(n=4)], strategy, SGD, [stream], [deltas])

    def test_scheduled_batches_hold_one_to_batch_size_samples(self, monkeypatch):
        # the step takes its batches as given: the schedule is what bounds them
        recorder = TrajectoryRecorder(monkeypatch)
        datasets = [make_dataset(n=n, offset=c + 1) for c, n in enumerate((7, 4, 9, 1))]
        streams = [substream(0, SHUFFLE_STREAM, 0, c) for c in range(len(datasets))]
        for batch_size in (1, 2, 3, 4):
            strategy = StrategyConfig(kind="fedavg", batch_size=batch_size, local_epochs=2)
            run_client_round(init_params(ArchDescriptor(), 0), datasets, strategy, SGD, streams)
            steps, recorder.steps = recorder.steps, []
            sizes = [[len(picks[k]) for picks, _ in steps if picks[k] is not None] for k in range(len(datasets))]
            assert all(1 <= size <= batch_size for client in sizes for size in client)
            # and every epoch covers each sample once
            assert [sum(client) for client in sizes] == [2 * len(dataset) for dataset in datasets]

    def test_sample_deltas_score_fedgs_only(self):
        dataset = make_dataset(n=5, small_fraction=0.5)
        fedgs = StrategyConfig(kind="fedgs", difficulty=DIFFICULTY)
        assert sample_deltas(dataset, fedgs).tolist() == [difficulty_factor(m, DIFFICULTY).delta for m in dataset.masks]
        assert sample_deltas(dataset, StrategyConfig(kind="fedavg")) is None


class TestLockstep:
    """A cohort's clients advance together; each must compute what it computes alone."""

    @staticmethod
    def solo_and_cohort(monkeypatch, datasets, strategy, optimizer_cfg, seed):
        """The cohort's round state, after asserting it bitwise equal to each client's solo run."""
        recorder = TrajectoryRecorder(monkeypatch)
        params = init_params(ArchDescriptor(), seed)
        streams = lambda: [substream(seed, SHUFFLE_STREAM, 0, c) for c in range(len(datasets))]
        cohort = run_client_round(params, datasets, strategy, optimizer_cfg, streams())
        trajectories = recorder.take()
        # row k of the cohort's state is client k; each solo state has one row
        assert len(cohort.params) == len(cohort.steps_this_round) == len(trajectories) == len(datasets)
        for k, (dataset, rng) in enumerate(zip(datasets, streams())):
            b = run_client_round(params, [dataset], strategy, optimizer_cfg, [rng])
            (solo_trajectory,) = recorder.take()
            assert cohort.steps_this_round[k] == b.steps_this_round[0] == len(b.etas[0])
            assert len(trajectories[k]) == len(solo_trajectory) == b.steps_this_round[0]
            assert np.array_equal(cohort.params[k], b.params[0])
            assert np.array_equal(cohort.cumulative_gradient[k], b.cumulative_gradient[0])
            assert cohort.etas[k] == b.etas[0]
            assert all(np.array_equal(x, y) for x, y in zip(trajectories[k], solo_trajectory))
        return cohort

    def test_64_clients_match_their_solo_runs(self, monkeypatch):
        # 64 x 2 images of 32x32 per step fill two kernel calls
        datasets = [make_dataset(n=4, small_fraction=0.5, offset=c + 1) for c in range(64)]
        strategy = StrategyConfig(kind="fedgs", batch_size=2, local_epochs=2, difficulty=DIFFICULTY)
        cohort = self.solo_and_cohort(monkeypatch, datasets, strategy, ADAMW, seed=3)
        assert any(eta > 1.0 for etas in cohort.etas for eta in etas)

    def test_unequal_clients_with_short_and_missing_batches(self, monkeypatch):
        # batches per epoch: 7 -> 3, 3, 1; 4 -> 3, 1; 9 -> 3, 3, 3
        datasets = [make_dataset(n=n, small_fraction=0.5, offset=c + 1) for c, n in enumerate((7, 4, 9))]
        strategy = StrategyConfig(kind="fedgs", batch_size=3, local_epochs=2, difficulty=DIFFICULTY)
        calls = []

        def recording_backward(params, images, masks):
            calls.append((np.shape(params), len(images)))
            return backward(params, images, masks)

        monkeypatch.setattr("fedgs_sim.fl.backward", recording_backward)
        cohort = self.solo_and_cohort(monkeypatch, datasets, strategy, ADAMW, seed=5)
        assert cohort.steps_this_round.tolist() == [6, 4, 6]
        # the cohort's calls, (clients, images) per call: clients whose batches
        # share a shape share a call, and a client with no batch left sits out
        per_step = [[(3, 9)], [(2, 6), (1, 1)], [(1, 1), (2, 6)], [(2, 6), (1, 1)], [(2, 6)], [(1, 1), (1, 3)]]
        cohort_calls = [(shape[0], n) for shape, n in calls[: sum(map(len, per_step))]]
        assert cohort_calls == [call for step in per_step for call in step]

    def test_sgd_cohort_matches_solo_runs(self, monkeypatch):
        datasets = [make_dataset(n=n, offset=c + 1) for c, n in enumerate((5, 8))]
        strategy = StrategyConfig(kind="fedavg", batch_size=4, local_epochs=2)
        self.solo_and_cohort(monkeypatch, datasets, strategy, SGD, seed=6)

    def test_divergence_names_the_diverging_client(self, monkeypatch):
        def poisoned_step(cfg, step, params, grad, moments):
            params = params.copy()
            params[1] = np.nan
            return params, moments

        monkeypatch.setattr("fedgs_sim.fl.optimizer_step", poisoned_step)
        datasets = [make_dataset(n=4, offset=c + 1) for c in range(3)]
        streams = [substream(0, SHUFFLE_STREAM, 0, c) for c in range(3)]
        with pytest.raises(DivergenceError, match=r"^client 1: non-finite local parameters at local step 1$"):
            run_client_round(init_params(ArchDescriptor(), 0), datasets, StrategyConfig(kind="fedavg"), SGD, streams)

    def test_adamw_corrects_each_client_at_its_lockstep_step(self):
        # client 1 takes its first step after client 0 took its own: both are
        # AdamW's step 1, so equal starts and batches give equal rows
        params = init_params(ArchDescriptor(), 0)
        batch = make_dataset(n=4)
        idx = np.arange(4)
        state = local_iteration(ClientState.start(params, 2, ADAMW), [batch, batch], [idx, None], [1.0, None])
        state = local_iteration(state, [batch, batch], [None, idx], [None, 1.0])
        assert state.steps_this_round.tolist() == [1, 1]
        assert np.array_equal(state.params[1], state.params[0])
        assert np.array_equal(state.moments[0][1], state.moments[0][0])

    def test_clients_on_different_steps_cannot_share_a_step(self):
        params = init_params(ArchDescriptor(), 0)
        batch = make_dataset(n=4)
        idx = np.arange(4)
        state = local_iteration(ClientState.start(params, 2, SGD), [batch, batch], [idx, None], [1.0, None])
        with pytest.raises(ValueError, match="different local steps"):
            local_iteration(state, [batch, batch], [idx, idx], [1.0, 1.0])


class TestAggregation:
    def test_single_client_weight_one(self):
        assert np.array_equal(aggregate_fedgs(np.array([[1.0, -2.0]]), np.array([7])), np.array([1.0, -2.0]))

    def test_step_weighting(self):
        gradients = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(aggregate_fedgs(gradients, np.array([10, 30])), [0.25, 0.75])

    def test_equal_steps_is_plain_mean(self):
        gradients = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(aggregate_fedgs(gradients, np.array([5, 5])), [1.0, 1.0])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        steps = rng.integers(1, 50, size=6)
        # identical unit gradients must aggregate to the unit vector
        assert np.allclose(aggregate_fedgs(np.ones((6, 3)), steps), 1.0)

    def test_errors(self):
        with pytest.raises(EmptyFederationError):
            aggregate_fedgs(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("aggregate", [aggregate_fedgs, aggregate_fedavg])
    def test_weight_count_must_match_the_rows(self, aggregate):
        # a (1,) weight array would otherwise broadcast across all three rows
        with pytest.raises(ShapeMismatchError, match=r"shape \(1,\) for client rows of shape \(3, 2\)"):
            aggregate(np.ones((3, 2)), np.array([1]))
        with pytest.raises(ShapeMismatchError):
            aggregate(np.ones((2, 2)), np.array([1, 1, 1]))

    @pytest.mark.parametrize("aggregate", [aggregate_fedgs, aggregate_fedavg])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_rejected(self, aggregate, bad):
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(np.ones((2, 2)), np.array([bad, 1.0]))

    @pytest.mark.parametrize("aggregate", [aggregate_fedgs, aggregate_fedavg])
    def test_zero_total_weight_is_rejected(self, aggregate):
        with pytest.raises(ValueError, match="sum to 0.0"):
            aggregate(np.ones((3, 2)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("aggregate", [aggregate_fedgs, aggregate_fedavg])
    def test_negative_weight_is_rejected(self, aggregate):
        with pytest.raises(ValueError, match="negative"):
            aggregate(np.ones((2, 2)), np.array([-1.0, 2.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 500), min_size=1, max_size=80),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e2]),
    )
    def test_rows_add_in_order(self, weights, seed, scale):
        # results.csv byte-identity rests on this summation order: from
        # zeros, add (w_k / sum(w)) * row_k for k = 0, 1, ..., K-1
        rows = np.random.default_rng(seed).standard_normal((len(weights), 77)) * scale
        expected = weighted_rows(rows, weights)
        assert np.array_equal(aggregate_fedgs(rows, np.array(weights)), expected)
        assert np.array_equal(aggregate_fedavg(rows, np.array(weights, dtype=np.float64)), expected)

    def test_apply_global_update(self):
        assert np.allclose(apply_global_update(np.array([1.0, 1.0]), np.array([0.1, -0.2])), [0.9, 1.2])
        unchanged = apply_global_update(np.array([3.0, 4.0]), np.zeros(2))
        assert np.array_equal(unchanged, [3.0, 4.0])
        with pytest.raises(ShapeMismatchError):
            apply_global_update(np.zeros(2), np.zeros(3))

    def test_fedavg_mean(self):
        identical = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert np.allclose(aggregate_fedavg(identical, np.array([3.0, 9.0])), [1.0, 2.0])
        assert np.allclose(aggregate_fedavg(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([1.0, 1.0])), [1.0, 1.0])
        assert np.allclose(aggregate_fedavg(np.array([[0.0], [4.0]]), np.array([1.0, 3.0])), [3.0])
        with pytest.raises(EmptyFederationError):
            aggregate_fedavg(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            aggregate_fedavg(np.zeros((1, 1)), np.array([0.0]))


class TestRunRound:
    def test_single_client_both_strategies_take_its_params(self):
        params = init_params(ArchDescriptor(), 11)
        dataset = make_dataset(n=8)
        for kind in ("fedgs", "fedavg"):
            strategy = StrategyConfig(
                kind=kind, batch_size=4, local_epochs=2, difficulty=DIFFICULTY if kind == "fedgs" else None
            )
            stream = substream(3, SHUFFLE_STREAM, 0, 0)
            new_global, stats = run_round(params, [dataset], strategy, SGD, [stream])
            reference = run_client_round(
                params, [dataset], strategy, SGD, [substream(3, SHUFFLE_STREAM, 0, 0)]
            )
            atol = 0.0 if kind == "fedavg" else 1e-15
            assert np.allclose(new_global, reference.params[0], rtol=0, atol=atol)
            assert stats.steps_total == reference.steps_this_round[0]

    def test_fedgs_equals_fedavg_on_all_large_data(self):
        # eta is identically 1, dataset sizes match: the strategies coincide
        params = init_params(ArchDescriptor(), 12)
        datasets = [make_dataset(n=8, offset=o) for o in (1, 2, 3)]
        fedgs_global = params
        fedavg_global = params
        for round_index in range(2):
            streams = lambda: [substream(6, SHUFFLE_STREAM, round_index, c) for c in range(3)]
            fedgs_global, stats = run_round(
                fedgs_global,
                datasets,
                StrategyConfig(kind="fedgs", batch_size=4, local_epochs=1, difficulty=DIFFICULTY),
                ADAMW,
                streams(),
            )
            fedavg_global, _ = run_round(
                fedavg_global,
                datasets,
                StrategyConfig(kind="fedavg", batch_size=4, local_epochs=1),
                ADAMW,
                streams(),
            )
            assert stats.mean_eta == 1.0 and stats.max_eta == 1.0
            assert np.abs(fedgs_global - fedavg_global).max() < 1e-12

    def test_zero_learning_progress_is_a_fixed_point(self):
        # lr=0 freezes every client, so all decrements vanish and the global
        # parameters pass through both aggregation paths unchanged
        params = init_params(ArchDescriptor(), 13)
        dataset = make_dataset(n=4)
        frozen = OptimizerConfig(kind="sgd", learning_rate=1e-300)
        for kind in ("fedgs", "fedavg"):
            strategy = StrategyConfig(
                kind=kind, batch_size=4, local_epochs=1, difficulty=DIFFICULTY if kind == "fedgs" else None
            )
            new_global, _ = run_round(params, [dataset], strategy, frozen, [substream(0, SHUFFLE_STREAM, 0, 0)])
            assert np.allclose(new_global, params, rtol=0, atol=1e-15)

    def test_nan_global_params_raise_naming_the_client(self):
        params = init_params(ArchDescriptor(), 14)
        params[5] = np.nan
        datasets = [make_dataset(n=4, offset=o) for o in (1, 2)]
        with pytest.raises(DivergenceError, match=r"client 0: non-finite gradient at local step 1"):
            run_round(
                params,
                datasets,
                StrategyConfig(kind="fedavg", batch_size=4),
                SGD,
                [substream(0, SHUFFLE_STREAM, 0, c) for c in range(2)],
            )

    def test_parameters_beyond_float32_range_raise_naming_the_client(self):
        # client images are float32, and 1e39 has no float32 value: it casts
        # to inf, and the kernel's logits are not finite
        message = "local parameters overflow float32 in the kernel at local step 1"
        params = init_params(ArchDescriptor(), 17)
        params[0] = 1e39
        with pytest.raises(DivergenceError, match=rf"^client 0: {message}$"):
            run_round(params, [make_dataset(n=4)], StrategyConfig(kind="fedavg"), SGD, [substream(0, SHUFFLE_STREAM, 0, 0)])
        # in a cohort
        state = ClientState.start(init_params(ArchDescriptor(), 17), 3, SGD)
        state.params[1, 4] = -1e39
        batch = make_dataset(n=4)
        with pytest.raises(DivergenceError, match=rf"^client 1: {message}$"):
            local_iteration(state, [batch] * 3, [np.arange(4)] * 3, [1.0] * 3)

    def test_parameters_that_overflow_inside_the_kernel_raise_naming_the_client(self):
        # far inside float32's range, but the float32 kernel's logits overflow
        message = "local parameters overflow float32 in the kernel at local step 1"
        params = init_params(ArchDescriptor(), 17) * 1e20
        with pytest.raises(DivergenceError, match=rf"^client 0: {message}$"):
            run_round(params, [make_dataset(n=4)], StrategyConfig(kind="fedavg"), SGD, [substream(0, SHUFFLE_STREAM, 0, 0)])
        state = ClientState.start(init_params(ArchDescriptor(), 17), 3, SGD)
        state.params[1] *= 1e20
        batch = make_dataset(n=4)
        with pytest.raises(DivergenceError, match=rf"^client 1: {message}$"):
            local_iteration(state, [batch] * 3, [np.arange(4)] * 3, [1.0] * 3)

    def test_non_finite_local_parameters_raise(self, monkeypatch):
        def poisoned_step(cfg, step, params, grad, moments):
            return params * np.nan, moments

        monkeypatch.setattr("fedgs_sim.fl.optimizer_step", poisoned_step)
        params = init_params(ArchDescriptor(), 15)
        with pytest.raises(DivergenceError, match=r"client 0: non-finite local parameters at local step 1"):
            run_round(params, [make_dataset(n=4)], StrategyConfig(kind="fedavg"), SGD, [substream(0, SHUFFLE_STREAM, 0, 0)])

    def test_non_finite_aggregate_raises(self, monkeypatch):
        monkeypatch.setattr("fedgs_sim.fl.aggregate_fedavg", lambda client_params, weights: client_params[0] * np.inf)
        params = init_params(ArchDescriptor(), 16)
        with pytest.raises(DivergenceError, match="non-finite aggregate"):
            run_round(params, [make_dataset(n=4)], StrategyConfig(kind="fedavg"), SGD, [substream(0, SHUFFLE_STREAM, 0, 0)])

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=2, max_size=3),
        batch_size=st.integers(1, 4),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 1000),
    )
    @example(sizes=[5, 8], batch_size=4, epochs=1, seed=0)  # 2 steps each: FedGS weighs them 1:1
    @example(sizes=[2, 1], batch_size=2, epochs=1, seed=377)  # the two means differ by only 8.7e-10
    def test_unit_eta_fedgs_is_the_step_weighted_mean(self, sizes, batch_size, epochs, seed):
        # FedGS weighs clients by local steps, FedAvg by samples; with eta = 1
        # they agree only when steps are proportional to sample counts
        params = init_params(ArchDescriptor(), seed)
        datasets = [make_dataset(n=n, offset=c + 1, seed=seed) for c, n in enumerate(sizes)]
        streams = lambda: [substream(seed, SHUFFLE_STREAM, 0, c) for c in range(len(sizes))]
        fedgs = StrategyConfig(kind="fedgs", batch_size=batch_size, local_epochs=epochs, difficulty=DIFFICULTY)
        fedavg = StrategyConfig(kind="fedavg", batch_size=batch_size, local_epochs=epochs)
        fedgs_global, stats = run_round(params, datasets, fedgs, ADAMW, streams())
        fedavg_global, _ = run_round(params, datasets, fedavg, ADAMW, streams())
        assert stats.max_eta == 1.0

        clients = [run_client_round(params, [dataset], fedavg, ADAMW, [rng]) for dataset, rng in zip(datasets, streams())]
        steps = [int(client.steps_this_round[0]) for client in clients]
        step_weighted = sum((s / sum(steps)) * client.params[0] for s, client in zip(steps, clients))
        sample_weighted = sum((n / sum(sizes)) * client.params[0] for n, client in zip(sizes, clients))
        assert np.abs(fedgs_global - step_weighted).max() < 1e-12
        assert np.abs(fedavg_global - sample_weighted).max() < 1e-12
        if all(s * sizes[0] == steps[0] * n for s, n in zip(steps, sizes)):
            assert np.abs(fedgs_global - fedavg_global).max() < 1e-12

    def test_requires_matching_stream_count(self):
        params = init_params(ArchDescriptor(), 0)
        with pytest.raises(ValueError):
            run_round(params, [make_dataset()], StrategyConfig(kind="fedavg"), SGD, [])


class TestReferenceRound:
    """run_round against tests/oracles.py::reference_round, a client-at-a-time loop written from the definitions."""

    @settings(max_examples=40, deadline=None)
    @given(
        clients=st.lists(
            st.tuples(st.integers(1, 9), st.sampled_from([(10, 10), (12, 16), (16, 16)])), min_size=1, max_size=5
        ),
        batch_size=st.integers(1, 4),
        epochs=st.integers(1, 2),
        kind=st.sampled_from(["fedgs", "fedavg"]),
        regime=st.sampled_from(["whole_mask", "blob_split"]),
        optimizer_cfg=st.sampled_from([SGD, OptimizerConfig(kind="adamw", learning_rate=0.01)]),
        seed=st.integers(0, 1000),
    )
    def test_run_round_is_the_reference_round_bitwise(
        self, clients, batch_size, epochs, kind, regime, optimizer_cfg, seed
    ):
        datasets = [
            generate_client_dataset(
                ClientDataSpec(
                    n_samples=n,
                    image_size=size,
                    small_fraction=0.5,
                    small_radius_range=(1.0, 1.5),
                    large_radius_range=(2.5, 3.5),
                    seed_offset=c + 1,
                ),
                seed,
            )
            for c, (n, size) in enumerate(clients)
        ]
        difficulty = DifficultyConfig(log_base=100.0, threshold=13.0, regime=regime) if kind == "fedgs" else None
        strategy = StrategyConfig(kind=kind, batch_size=batch_size, local_epochs=epochs, difficulty=difficulty)
        params = init_params(ArchDescriptor(), seed)
        streams = lambda: [substream(seed, SHUFFLE_STREAM, 0, c) for c in range(len(clients))]
        new_global, stats = run_round(params, datasets, strategy, optimizer_cfg, streams())
        expected, steps_total, mean_eta, max_eta = reference_round(params, datasets, strategy, optimizer_cfg, streams())
        assert np.array_equal(new_global, expected)
        assert (stats.steps_total, stats.mean_eta, stats.max_eta) == (steps_total, mean_eta, max_eta)


def test_local_trajectory_invariance_microcase(monkeypatch):
    # identical inputs and streams: every per-iteration parameter vector is
    # bitwise equal between the two accumulation modes
    recorder = TrajectoryRecorder(monkeypatch)
    params = init_params(ArchDescriptor(), 21)
    dataset = make_dataset(n=10, small_fraction=0.5, offset=4)
    fedgs = run_client_round(
        params,
        [dataset],
        StrategyConfig(kind="fedgs", batch_size=4, local_epochs=2, difficulty=DIFFICULTY),
        ADAMW,
        [substream(8, SHUFFLE_STREAM, 0, 0)],
    )
    (fedgs_trajectory,) = recorder.take()
    fedavg = run_client_round(
        params,
        [dataset],
        StrategyConfig(kind="fedavg", batch_size=4, local_epochs=2),
        ADAMW,
        [substream(8, SHUFFLE_STREAM, 0, 0)],
    )
    (fedavg_trajectory,) = recorder.take()
    assert len(fedgs_trajectory) == len(fedavg_trajectory) == 6
    for a, b in zip(fedgs_trajectory, fedavg_trajectory):
        assert np.array_equal(a, b)
    # and the cumulative gradients DO differ (scaling went somewhere)
    assert any(eta > 1.0 for eta in fedgs.etas[0])
    assert not np.array_equal(fedgs.cumulative_gradient[0], fedavg.cumulative_gradient[0])


def test_client_state_starts_with_zero_moments_only_under_adamw():
    params = init_params(ArchDescriptor(), 0)
    sgd = ClientState.start(params, 3, SGD)
    assert sgd.optimizer is SGD and sgd.moments is None
    adamw = ClientState.start(params, 3, ADAMW)
    m, v = adamw.moments
    assert adamw.optimizer is ADAMW
    assert m.shape == v.shape == (3, params.size) and not m.any() and not v.any()
    assert not np.shares_memory(m, v)


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="fedprox")
    with pytest.raises(ValueError):
        StrategyConfig(kind="fedgs")  # difficulty missing
    with pytest.raises(ValueError):
        StrategyConfig(kind="fedavg", batch_size=0)
