"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the directional-experiment table.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgs_sim.config import parse_config
from fedgs_sim.data import ClientData, ClientDataSpec, generate_client_dataset
from fedgs_sim.fl import StrategyConfig, run_client_round, run_round
from fedgs_sim.harness import emit_difficulty_curve, fedgs_overhead, run_experiment
from fedgs_sim.masks import DifficultyConfig, batch_scaling_factor, difficulty_factor
from fedgs_sim.metrics import dice_score, evaluate, sample_groups
from fedgs_sim.model import ArchDescriptor, OptimizerConfig, backward, dice_loss, forward, init_params
from fedgs_sim.rng import SHUFFLE_STREAM, substream
from oracles import TrajectoryRecorder, rasterize_disk
from test_model import smooth_fixtures

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO_ROOT / "configs" / "default.ini"

# difficulty-curve oracle, mpmath at 50 digits, frozen before the build
CURVE_ORACLE_L100 = {
    150.0: 0.828659644883873290,
    1_000.0: 0.978026114738813640,
    10_000.0: 0.999329299739067044,
    1_000_000.0: 0.999999969540040974,
}


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def desk_spec(**kwargs) -> ClientDataSpec:
    defaults = dict(
        n_samples=16,
        image_size=(16, 16),
        lesions_per_image=(1, 2),
        small_radius_range=(1.5, 2.0),
        large_radius_range=(4.0, 5.0),
        noise_std=0.4,
        seed_offset=1,
    )
    defaults.update(kwargs)
    return ClientDataSpec(**defaults)


# tau=7 exactly separates the desk_spec regimes (small samples have inverse
# area >= 256/26, large ones <= 256/49)
DESK_DIFFICULTY = DifficultyConfig(log_base=50.0, threshold=7.0, regime="whole_mask")
ADAMW = OptimizerConfig(kind="adamw", learning_rate=0.003)


@pytest.fixture(scope="module")
def default_experiment():
    """Shared run of the shipped default config (criteria 7 and 8)."""
    cfg = parse_config(DEFAULT_CONFIG)
    start = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, rows, elapsed


def test_criterion_1_fedavg_reduction_equivalence():
    """All-large data, equal client sizes: the strategies coincide to 1e-12."""
    start = time.perf_counter()
    specs = [desk_spec(small_fraction=0.0, seed_offset=o) for o in (1, 2, 3)]
    datasets = [generate_client_dataset(s, 77) for s in specs]
    params = init_params(ArchDescriptor(), 77)
    fedgs_global = params
    fedavg_global = params
    worst = 0.0
    for round_index in range(10):
        streams = lambda: [substream(77, SHUFFLE_STREAM, round_index, c) for c in range(3)]
        fedgs_global, stats = run_round(
            fedgs_global,
            datasets,
            StrategyConfig(kind="fedgs", batch_size=4, local_epochs=1, difficulty=DESK_DIFFICULTY),
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
        assert stats.max_eta == 1.0  # all-large by construction
        worst = max(worst, float(np.abs(fedgs_global - fedavg_global).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(1, "fedavg-reduction equivalence", ok, f"max |diff|={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_2_local_trajectory_invariance(monkeypatch):
    """Per-iteration local params are bitwise strategy-independent, 3 seeds."""
    recorder = TrajectoryRecorder(monkeypatch)
    start = time.perf_counter()
    mismatches = 0
    iterations = 0
    for seed in (1, 2, 3):
        specs = [desk_spec(small_fraction=0.5, seed_offset=o) for o in (1, 2)]
        datasets = [generate_client_dataset(s, seed) for s in specs]
        global_params = init_params(ArchDescriptor(), seed)
        for round_index in range(3):
            for client_index, dataset in enumerate(datasets):
                trajectories = {}
                for kind in ("fedgs", "fedavg"):
                    strategy = StrategyConfig(
                        kind=kind,
                        batch_size=4,
                        local_epochs=2,
                        difficulty=DESK_DIFFICULTY if kind == "fedgs" else None,
                    )
                    run_client_round(
                        global_params,
                        [dataset],
                        strategy,
                        ADAMW,
                        [substream(seed, SHUFFLE_STREAM, round_index, client_index)],
                    )
                    (trajectories[kind],) = recorder.take()
                assert len(trajectories["fedgs"]) == len(trajectories["fedavg"]) > 0
                for a, b in zip(trajectories["fedgs"], trajectories["fedavg"]):
                    iterations += 1
                    if not np.array_equal(a, b):
                        mismatches += 1
            # advance the shared snapshot along the fedgs trajectory
            global_params, _ = run_round(
                global_params,
                datasets,
                StrategyConfig(kind="fedgs", batch_size=4, local_epochs=2, difficulty=DESK_DIFFICULTY),
                ADAMW,
                [substream(seed, SHUFFLE_STREAM, round_index, c) for c in range(len(datasets))],
            )
            recorder.take()  # the shared round's steps are not compared
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(2, "local-trajectory invariance", ok, f"{iterations} iterations bitwise equal, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_3_gradient_oracle():
    """Analytic backward vs central differences: rel err < 1e-4 off-saturation."""
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    arch = ArchDescriptor()
    h = 1e-5
    worst = 0.0
    checked = 0
    for params, image, mask in smooth_fixtures(rng, arch, count=5, h=h):
        grad = backward(params, image, mask)
        for i in rng.choice(params.size, size=10, replace=False):
            plus, minus = params.copy(), params.copy()
            plus[i] += h
            minus[i] -= h
            fd = (dice_loss(forward(plus, image), mask) - dice_loss(forward(minus, image), mask)) / (2 * h)
            scale = max(abs(fd), abs(grad[i]), 1e-12)
            worst = max(worst, abs(fd - grad[i]) / scale)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(3, "gradient matches finite differences", ok, f"{checked} coords, worst rel err {worst:.2e}")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_4_difficulty_curve_fidelity():
    """Curve matches the frozen 50-digit oracle; increments decelerate."""
    oracle_grid = sorted(CURVE_ORACLE_L100)
    points = emit_difficulty_curve(100.0, 150.0, grid=oracle_grid)
    worst = max(abs(p.delta - CURVE_ORACLE_L100[p.inverse_area]) for p in points)

    doubling_grid = [150.0 * 2**k for k in range(13)]
    assert doubling_grid[-1] == 614_400
    curve = emit_difficulty_curve(100.0, 150.0, grid=doubling_grid)
    values = [p.delta for p in curve]
    increments = [b - a for a, b in zip(values, values[1:])]
    increasing = all(v > 0 for v in increments)
    decelerating = all(later < earlier for earlier, later in zip(increments, increments[1:]))

    ok = worst < 1e-9 and increasing and decelerating
    report(4, "difficulty-curve fidelity", ok, f"worst |err|={worst:.2e} vs 9-digit oracle")
    assert worst < 1e-9
    assert increasing and decelerating


def test_criterion_5_eta_contract():
    """1e4 random batches: bounds, the eta=1 iff no-small rule, count sensitivity."""
    rng = np.random.default_rng(999)
    cfg = DifficultyConfig(log_base=50.0, threshold=8.0, regime="whole_mask")
    small_mask = np.zeros((16, 16), dtype=np.uint8)
    small_mask[4:6, 4:6] = 1  # inverse area 64, classifies small
    empty_mask = np.zeros((16, 16), dtype=np.uint8)
    assert difficulty_factor(small_mask, cfg).is_small

    checked = 0
    for _ in range(10_000):
        size = int(rng.integers(1, 9))
        density = rng.uniform(0.0, 0.8)
        masks = [(rng.random((16, 16)) < density).astype(np.uint8) for _ in range(size)]
        results = [difficulty_factor(m, cfg) for m in masks]
        deltas = [r.delta for r in results]
        eta = batch_scaling_factor(deltas, size)
        assert 1.0 <= eta < 3.0
        assert (eta == 1.0) == all(not r.is_small for r in results)

        # count sensitivity at equal batch size: a slot holding a small-lesion
        # sample strictly raises eta over that slot holding a non-small one
        with_small = batch_scaling_factor(deltas + [difficulty_factor(small_mask, cfg).delta], size + 1)
        with_empty = batch_scaling_factor(deltas + [0.0], size + 1)
        assert with_small > with_empty
        checked += 1
    report(5, "eta contract", True, f"{checked} random batches")


def test_criterion_6_small_lesion_classifier():
    """500 constructed masks: exact classification away from the boundary."""
    size = 256
    hw = size * size
    tau = 150.0
    whole = DifficultyConfig(log_base=100.0, threshold=tau, regime="whole_mask")
    blob = DifficultyConfig(log_base=100.0, threshold=tau, regime="blob_split")
    rng = np.random.default_rng(606)

    failures = 0
    boundary_cases = 0
    n_single = 480
    for a_inv_target in np.geomspace(tau / 4, 4 * tau, n_single):
        radius = float(np.sqrt(hw / a_inv_target / np.pi))
        margin = int(np.ceil(radius)) + 1
        cy = int(rng.integers(margin, size - margin))
        cx = int(rng.integers(margin, size - margin))
        mask = rasterize_disk(size, size, cy, cx, radius)
        true_inverse_area = hw / int(mask.sum())
        truth_small = true_inverse_area >= tau
        if abs(true_inverse_area - tau) <= 0.1 * tau:
            boundary_cases += 1
            continue
        for cfg in (whole, blob):
            if difficulty_factor(mask, cfg).is_small != truth_small:
                failures += 1

    # attached small+large pairs, bridged by a single-pixel erodible line:
    # ground truth is "small" via the separated small lesion, yet the
    # whole-mask inverse area stays far below the threshold
    n_pairs = 0
    for big_r, small_r, gap in [(15, 4, 20), (20, 5, 30), (16, 4.5, 24), (18, 6, 25), (22, 5.5, 28)] * 4:
        cy = int(rng.integers(40, size - 40))
        big_cx = int(rng.integers(30, 60))
        small_cx = big_cx + int(big_r + gap + small_r)
        big = rasterize_disk(size, size, cy, big_cx, big_r)
        small = rasterize_disk(size, size, cy, small_cx, small_r)
        mask = (big | small).astype(np.uint8)
        mask[cy, big_cx : small_cx + 1] = 1
        n_pairs += 1
        if not difficulty_factor(mask, blob).is_small:
            failures += 1
        if difficulty_factor(mask, whole).is_small:
            failures += 1

    total = n_single + n_pairs
    ok = failures == 0 and total == 500
    report(
        6,
        "small-lesion classifier correctness",
        ok,
        f"{total} masks, {failures} failures, {boundary_cases} boundary cases reported",
    )
    assert total == 500
    assert failures == 0


def test_criterion_7_directional_replication(default_experiment):
    """Default federation: fedgs lifts DiceS without losing overall Dice."""
    cfg, rows, elapsed = default_experiment
    assert len(cfg.seeds) >= 5
    final = [r for r in rows if r.round == cfg.rounds - 1]

    def mean(strategy, field):
        values = [getattr(r, field) for r in final if r.strategy == strategy]
        assert all(v is not None for v in values)
        return float(np.mean(values))

    gs_small, av_small = mean("fedgs", "dice_s"), mean("fedavg", "dice_s")
    gs_dice, av_dice = mean("fedgs", "dice"), mean("fedavg", "dice")
    small_ok = gs_small >= av_small
    dice_ok = gs_dice >= av_dice - 0.03
    ok = small_ok and dice_ok and elapsed < 300.0

    # per-seed table, always emitted for inspection
    print()
    print("seed  dice_s(fedgs)  dice_s(fedavg)  dice(fedgs)  dice(fedavg)")
    for seed in cfg.seeds:
        gs = next(r for r in final if r.seed == seed and r.strategy == "fedgs")
        av = next(r for r in final if r.seed == seed and r.strategy == "fedavg")
        print(f"{seed:>4}  {gs.dice_s:>13.4f}  {av.dice_s:>14.4f}  {gs.dice:>11.4f}  {av.dice:>12.4f}")
    print(f"mean  {gs_small:>13.4f}  {av_small:>14.4f}  {gs_dice:>11.4f}  {av_dice:>12.4f}")

    report(
        7,
        "directional DiceS replication",
        ok,
        f"dice_s {gs_small:.4f} vs {av_small:.4f}, dice {gs_dice:.4f} vs {av_dice:.4f}, {elapsed:.0f}s",
    )
    assert small_ok, "fedgs must not trail fedavg on small-lesion dice"
    assert dice_ok, "fedgs must stay within 0.03 of fedavg on overall dice"
    assert elapsed < 300.0


def test_criterion_8_overhead_report(default_experiment):
    """Informational: per-round wall-time overhead of fedgs vs fedavg."""
    _, rows, _ = default_experiment
    overhead = fedgs_overhead(rows)
    report(8, "runtime overhead report", overhead is not None, f"fedgs vs fedavg: {overhead * 100.0:+.1f}%")
    assert overhead is not None


mask_pairs = st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(
    lambda shape: st.tuples(
        arrays(np.uint8, shape, elements=st.integers(0, 1)),
        arrays(np.uint8, shape, elements=st.integers(0, 1)),
    )
)


@settings(max_examples=300, deadline=None)
@given(mask_pairs)
def _dice_properties(pair):
    a, b = pair
    score = dice_score(a, b)
    assert score == dice_score(b, a)
    assert 0.0 <= score <= 1.0
    assert (score == 1.0) == np.array_equal(a, b)


def test_criterion_9_metric_properties():
    """dice_score symmetry/range/identity and evaluate's partition rules."""
    _dice_properties()

    # evaluate: grouping partitions the set; empty masks excluded from S/L
    spec = desk_spec(n_samples=40, small_fraction=0.4, seed_offset=9)
    generated = generate_client_dataset(spec, 5)
    samples = ClientData(  # plus two empty samples
        images=np.concatenate([generated.images, np.zeros((2, 16, 16))]),
        masks=np.concatenate([generated.masks, np.zeros((2, 16, 16), dtype=np.uint8)]),
        is_small=np.concatenate([generated.is_small, [False, False]]),
        seed_offset=9,
    )
    cfg = DifficultyConfig(log_base=50.0, threshold=7.0, regime="whole_mask")
    rep = evaluate(init_params(ArchDescriptor(), 1), samples, sample_groups(samples, cfg))
    partition_ok = rep.n_total == rep.n_small + rep.n_large + rep.n_empty == len(samples)
    assert partition_ok
    assert rep.n_empty == 2
    assert 0.0 <= rep.dice <= 1.0
    per_sample = []
    for image, mask in zip(samples.images[:-2], samples.masks[:-2]):
        pred = (forward(init_params(ArchDescriptor(), 1), image) >= 0.5).astype(np.uint8)
        per_sample.append(dice_score(pred, mask))
    # the overall mean lies inside the per-sample hull (empties score 0 or 1)
    assert min(per_sample + [0.0]) <= rep.dice <= max(per_sample + [1.0])
    report(9, "metric properties", True, "300 random pairs + partition rules")
