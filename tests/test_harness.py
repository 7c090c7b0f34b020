import math

import numpy as np
import pytest
from oracles import reference_experiment

from fedgs_sim.config import parse_config
from fedgs_sim.fl import DivergenceError
from fedgs_sim.harness import (
    CSV_VERSION_LINE,
    emit_difficulty_curve,
    fedgs_overhead,
    run_experiment,
    write_curve_csv,
    write_results_csv,
)

TINY_CONFIG = """
[experiment]
seeds = 1 2
rounds = 3
strategies = fedgs fedavg

[strategy]
batch_size = 4
local_epochs = 1

[optimizer]
learning_rate = 0.01

[difficulty]
log_base = 100.0
threshold = 7.0
regime = whole_mask

[client 1]
n_samples = 8
image_size = 16 16
small_radius_range = 1.5 2.0
large_radius_range = 4.0 5.0
small_fraction = 0.25
seed_offset = 1

[client 2]
n_samples = 8
image_size = 16 16
small_radius_range = 1.5 2.0
large_radius_range = 4.0 5.0
small_fraction = 0.25
seed_offset = 2

[test]
n_samples = 10
image_size = 16 16
small_radius_range = 1.5 2.0
large_radius_range = 4.0 5.0
small_fraction = 0.3
seed_offset = 50
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return parse_config(path)


def strip_wall_ms(csv_text: str) -> str:
    # wall_ms is the final column and the only nondeterministic one
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines())


class TestRunExperiment:
    def test_row_count_and_order(self, tiny_cfg):
        rows = run_experiment(tiny_cfg)
        assert len(rows) == 2 * 2 * 3  # seeds x strategies x rounds
        keys = [(r.seed, r.strategy, r.round) for r in rows]
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical_up_to_wall_time(self, tiny_cfg, tmp_path):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(run_experiment(tiny_cfg), a_path)
        write_results_csv(run_experiment(tiny_cfg), b_path)
        assert strip_wall_ms(a_path.read_text()) == strip_wall_ms(b_path.read_text())

    # the ids keep the AdamW rows' names from when the optimizer was a parameter
    @pytest.mark.parametrize("regime", ["whole_mask", "blob_split"], ids=lambda regime: f"adamw-{regime}")
    def test_rows_are_the_reference_experiment(self, tiny_cfg, regime):
        # every column but wall_ms, from tests/oracles.py's per-client round,
        # per-image forward, Dice by definition and per-mask difficulty; 8 and
        # 5 samples in batches of 3 give unequal step counts and short batches
        import dataclasses

        first, second, test = tiny_cfg.client_specs
        cfg = dataclasses.replace(
            tiny_cfg,
            batch_size=3,
            local_epochs=2,
            difficulty=dataclasses.replace(tiny_cfg.difficulty, regime=regime),
            client_specs=(first, dataclasses.replace(second, n_samples=5), test),
        )
        rows = [dataclasses.replace(row, wall_ms=0.0) for row in run_experiment(cfg)]
        assert rows == reference_experiment(cfg)
        assert any(row.max_eta > 1.0 for row in rows) and all(row.dice_s is not None for row in rows)

    def test_fedavg_only_leaves_eta_at_sentinel_one(self, tiny_cfg, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(tiny_cfg, strategies=("fedavg",))
        rows = run_experiment(cfg)
        assert all(r.mean_eta == 1.0 and r.max_eta == 1.0 for r in rows)

    def test_row_invariants(self, tiny_cfg):
        for row in run_experiment(tiny_cfg):
            assert 0.0 <= row.dice <= 1.0
            if row.dice_s is not None:
                assert 0.0 <= row.dice_s <= 1.0
            assert 1.0 <= row.mean_eta < 3.0
            assert row.steps_total == 2 * 2  # 2 clients x ceil(8/4) batches x 1 epoch

    def test_csv_layout(self, tiny_cfg, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(run_experiment(tiny_cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_VERSION_LINE
        assert lines[1] == "seed,strategy,round,dice,dice_s,dice_l,mean_eta,max_eta,steps_total,wall_ms"
        assert len(lines) == 2 + 12

    def test_failed_write_leaves_existing_csv_and_no_temporary(self, tiny_cfg, tmp_path):
        rows = run_experiment(tiny_cfg)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path = out_dir / "results.csv"
        write_results_csv(rows, path)
        before = path.read_bytes()

        def failing_rows():
            yield from rows[:5]
            raise RuntimeError("disk went away")

        with pytest.raises(RuntimeError, match="disk went away"):
            write_results_csv(failing_rows(), path)
        assert path.read_bytes() == before
        assert [p.name for p in out_dir.iterdir()] == ["results.csv"]

    @pytest.mark.parametrize("rounds, epochs", [(1, 1), (3, 2)])
    def test_difficulty_is_scored_once_per_sample_per_run(self, tiny_cfg, monkeypatch, rounds, epochs):
        import dataclasses

        from fedgs_sim import fl, metrics

        # each call scores a whole (N, H, W) mask stack: count the masks
        scored = []

        def counted(fn):
            def wrapper(masks, cfg):
                assert np.ndim(masks) == 3
                scored.append(len(masks))
                return fn(masks, cfg)

            return wrapper

        for module in (fl, metrics):
            monkeypatch.setattr(module, "difficulty_factor", counted(module.difficulty_factor))
        n_train = sum(spec.n_samples for spec in tiny_cfg.training_specs)
        n_test = tiny_cfg.test_spec.n_samples
        for strategy, expected in (("fedgs", n_train + n_test), ("fedavg", n_test)):
            scored.clear()
            cfg = dataclasses.replace(tiny_cfg, seeds=(1,), strategies=(strategy,), rounds=rounds, local_epochs=epochs)
            run_experiment(cfg)
            assert sum(scored) == expected, strategy

    def test_overflow_in_evaluation_names_seed_strategy_and_round(self, tiny_cfg, monkeypatch):
        from fedgs_sim import harness

        real = harness.run_round

        def overflowing_round(params, *args):
            new_global, stats = real(params, *args)
            return new_global * 1e20, stats

        monkeypatch.setattr(harness, "run_round", overflowing_round)
        message = r"^seed 1, strategy fedgs, round 0: parameter row 0 overflows float32 in the kernel"
        with pytest.raises(DivergenceError, match=message):
            run_experiment(tiny_cfg)

    def test_federation_is_built_once_per_seed(self, tiny_cfg, monkeypatch):
        from fedgs_sim import harness

        seeds = []
        real = harness.build_federation
        monkeypatch.setattr(harness, "build_federation", lambda specs, seed: seeds.append(seed) or real(specs, seed))
        rows = run_experiment(tiny_cfg)
        assert seeds == [1, 2]  # 2 seeds x 2 strategies share 2 federations
        assert {(r.seed, r.strategy) for r in rows} == {(s, k) for s in (1, 2) for k in ("fedgs", "fedavg")}

    def test_lockstep_round_fills_the_kernel_pixel_budget(self, tiny_cfg, monkeypatch):
        # 16 clients x 4 images x 16x16 = 16384 pixels: one backward call and
        # one optimizer step per local step
        import dataclasses

        from fedgs_sim import fl
        from fedgs_sim.data import ClientDataSpec
        from fedgs_sim.shifts import KERNEL_PIXELS

        counts = {"backward": 0, "optimizer_step": 0, "local_iteration": 0}

        def counted(name):
            fn = getattr(fl, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(fl, name, counted(name))
        spec = ClientDataSpec(
            n_samples=8, image_size=(16, 16), small_radius_range=(1.5, 2.0), large_radius_range=(4.0, 5.0)
        )
        clients = tuple(dataclasses.replace(spec, seed_offset=k) for k in range(1, 17))
        cfg = dataclasses.replace(
            tiny_cfg,
            seeds=(1,),
            rounds=1,
            strategies=("fedgs",),
            batch_size=4,
            local_epochs=1,
            client_specs=clients + (dataclasses.replace(spec, seed_offset=50),),
        )
        run_experiment(cfg)
        steps = 2  # ceil(8 / 4) batches, one epoch
        assert counts["local_iteration"] == steps
        assert counts["backward"] == steps * math.ceil(16 * 4 * 16 * 16 / KERNEL_PIXELS) == steps
        assert counts["optimizer_step"] == steps

    def test_overhead_report(self, tiny_cfg):
        rows = run_experiment(tiny_cfg)
        overhead = fedgs_overhead(rows)
        assert overhead is not None and overhead > -1.0
        only_fedgs = [r for r in rows if r.strategy == "fedgs"]
        assert fedgs_overhead(only_fedgs) is None


class TestDifficultyCurve:
    def test_raw_at_log_base_is_tanh_one(self):
        points = emit_difficulty_curve(100.0, 150.0, grid=[100.0])
        assert points[0].raw == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_gated_column_is_zero_below_threshold(self):
        points = emit_difficulty_curve(100.0, 150.0, grid=[10.0, 100.0, 149.0])
        assert all(p.delta == 0.0 for p in points)
        above = emit_difficulty_curve(100.0, 150.0, grid=[150.0, 200.0])
        assert all(p.delta == p.raw > 0.0 for p in above)

    def test_raw_strictly_increasing(self):
        points = emit_difficulty_curve(100.0, 150.0, grid=np.geomspace(1.5, 1e7, 60))
        raws = [p.raw for p in points]
        assert all(b > a for a, b in zip(raws, raws[1:]))

    def test_default_grid_and_bounds(self):
        points = emit_difficulty_curve(100.0, 150.0)
        assert points[0].inverse_area == 1.0
        assert points[-1].inverse_area == pytest.approx(1e7)
        with pytest.raises(ValueError):
            emit_difficulty_curve(100.0, 150.0, grid=[0.5])
        with pytest.raises(ValueError):
            emit_difficulty_curve(100.0, 150.0, grid=[1e8])

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(emit_difficulty_curve(100.0, 150.0, grid=[150.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_VERSION_LINE
        assert lines[1] == "inverse_area,raw,delta"
        a_inv, raw, delta = lines[2].split(",")
        assert float(a_inv) == 150.0
        assert float(raw) == float(delta)
        # full float precision survives the round trip
        assert float(raw) == emit_difficulty_curve(100.0, 150.0, grid=[150.0])[0].raw
