import numpy as np
import pytest
from oracles import read_written_pgm

from fedgs_sim import cli, harness
from fedgs_sim.cli import main
from fedgs_sim.config import default_config, render_config

from test_harness import TINY_CONFIG


def test_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    assert capsys.readouterr().out == render_config(default_config())


def test_curve_command(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--l", "100", "--tau", "150", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "inverse_area,raw,delta"
    assert len(lines) > 100


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--l", "1", "log_base must be > 1, got 1.0"),
        ("--l", "0.5", "log_base must be > 1, got 0.5"),
        ("--l", "nan", "log_base must be > 1, got nan"),
        ("--l", "inf", "log_base must be finite, got inf"),
        ("--tau", "0.5", "threshold must be >= 1, got 0.5"),
        ("--tau", "nan", "threshold must be >= 1, got nan"),
        ("--tau", "inf", "threshold must be finite, got inf"),
    ],
)
def test_curve_rejects_an_invalid_setting(tmp_path, capsys, flag, value, message):
    out = tmp_path / "curve.csv"
    settings = {"--l": "100", "--tau": "150", flag: value}
    argv = ["curve", *(item for pair in settings.items() for item in pair), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_command(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    text = (out_dir / "results.csv").read_text()
    assert text.startswith("# fedgs-sim v1\n")
    assert "overhead" in capsys.readouterr().out


def test_gen_data_command(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    out_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    mask = read_written_pgm(out_dir / "client_1" / "msk_0000.pgm")
    assert set(np.unique(mask)) <= {0, 255}
    assert (out_dir / "test" / "manifest.txt").exists()


_BAD_SETTINGS = [
    ("experiment", "rounds = 0", "rounds must be >= 1"),
    ("strategy", "batch_size = 0", "batch_size must be >= 1"),
    ("optimizer", "beta1 = 1.0", "beta1 must lie in [0, 1), got 1.0"),
    ("optimizer", "beta1 = nan", "beta1 must lie in [0, 1), got nan"),
    ("optimizer", "beta1 = 2.0", "beta1 must lie in [0, 1), got 2.0"),
    ("optimizer", "beta2 = -0.1", "beta2 must lie in [0, 1), got -0.1"),
    ("optimizer", "weight_decay = nan", "weight_decay must be finite and >= 0, got nan"),
    ("optimizer", "weight_decay = -0.01", "weight_decay must be finite and >= 0, got -0.01"),
    ("optimizer", "learning_rate = inf", "learning_rate must be finite and > 0, got inf"),
    ("optimizer", "eps = -1.0", "eps must be finite and > 0, got -1.0"),
    ("optimizer", "eps = inf", "eps must be finite and > 0, got inf"),
    ("difficulty", "log_base = inf", "log_base must be finite, got inf"),
    ("client 1", "large_radius_range = 6.0 inf", "bad large_radius_range (6.0, inf)"),
    ("client 1", "small_radius_range = nan 3.0", "bad small_radius_range (nan, 3.0)"),
    ("client 1", "noise_std = nan", "bad noise_std nan: must be finite and >= 0"),
    ("client 1", "noise_std = inf", "bad noise_std inf: must be finite and >= 0"),
    ("client 1", "lesion_intensity = inf", "bad lesion_intensity inf: must be finite"),
    ("test", "lesion_intensity = nan", "bad lesion_intensity nan: must be finite"),
    ("client 1", "image_size = 16 16", "disk radius 9.0 cannot fit fully inside a 16x16 image"),
]


@pytest.mark.parametrize(
    "section, setting, error",
    [(section, setting, f"error: section [{section}]: {reason}\n") for section, setting, reason in _BAD_SETTINGS],
    ids=[setting.replace(" = ", "-").replace(" ", "-") for _, setting, _ in _BAD_SETTINGS],
)
def test_validation_error_exits_1(tmp_path, capsys, section, setting, error):
    # every other setting is the shipped default
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{setting}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == error
    assert not out.exists()  # rejected at parse time, before the output directory is made


def test_unreachable_fedgs_threshold_exits_1(tmp_path, capsys):
    # no 32x32 training mask has an inverse area above 1024: fedgs would silently run as fedavg
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nseeds = 1\nrounds = 2\n\n[difficulty]\nthreshold = 2000\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: threshold 2000.0 is above 1024, the largest inverse area a training mask can have: "
        "fedgs would count no sample as small\n"
    )
    assert not out.exists()


# default.ini's 32x32 training disks have inverse areas far below 500, and the
# 20x20 test center's at most 400: within the parse-time bound, no mask is small
UNREACHED_THRESHOLD = "[experiment]\nseeds = 1\nrounds = 1\n{}\n[difficulty]\nthreshold = 500\n\n[test]\nimage_size = 20 20\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        (UNREACHED_THRESHOLD.format(""), "at threshold 500.0, every training delta is 0, so fedgs would run as fedavg"),
        # fedavg comes first: its rounds must not run before fedgs is refused
        (
            UNREACHED_THRESHOLD.format("strategies = fedavg fedgs\n"),
            "at threshold 500.0, every training delta is 0, so fedgs would run as fedavg",
        ),
        # the test center draws large disks only, which never reach 13 at 32x32
        (
            "[experiment]\nseeds = 1\nrounds = 1\n\n[test]\nsmall_fraction = 0.0\n",
            "at threshold 13.0, no test sample is small, so dice_s would be blank in every row",
        ),
    ],
    ids=["no_small_training_mask", "no_small_training_mask_fedavg_first", "no_small_test_sample"],
)
def test_fedgs_that_cannot_act_exits_1_before_its_first_round(tmp_path, capsys, monkeypatch, text, reason):
    rounds, original = [], harness.run_round
    monkeypatch.setattr(harness, "run_round", lambda *args: rounds.append(args) or original(*args))
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed 1: {reason}\n"
    assert not (out / "results.csv").exists()
    assert rounds == []  # no strategy ran a round


def test_fedavg_alone_runs_where_fedgs_cannot_act(tmp_path, capsys):
    cfg_path = tmp_path / "fedavg.ini"
    cfg_path.write_text(UNREACHED_THRESHOLD.format("strategies = fedavg\n"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 2 + 1


def test_unknown_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nlr_decay = 1\n")
    assert main(["run", "--config", str(bad)]) == 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_unusable_out_dir_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    (tmp_path / "afile").write_text("")

    def no_sweep(cfg):
        raise AssertionError("the sweep ran before the output directory was made")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "afile" / "out")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_diverged_run_exits_1_with_context(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    real_init = harness.init_params
    monkeypatch.setattr(harness, "init_params", lambda seed: real_init(seed) * np.nan)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "seed 1, strategy fedgs, round 0: client 0: non-finite gradient" in err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_threads_option_is_gone(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
