import numpy as np
import pytest

from fedgs_sim import harness
from fedgs_sim.cli import main
from fedgs_sim.config import default_config_text
from fedgs_sim.pgm import read_mask_pgm

from test_harness import TINY_CONFIG


def test_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    assert capsys.readouterr().out == default_config_text()


def test_curve_command(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--l", "100", "--tau", "150", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "inverse_area,raw,delta"
    assert len(lines) > 100


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
    mask = read_mask_pgm(out_dir / "client_1" / "msk_0000.pgm")
    assert set(np.unique(mask)) <= {0, 1}
    assert (out_dir / "test" / "manifest.txt").exists()


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nrounds = 0\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nlr_decay = 1\n")
    assert main(["run", "--config", str(bad)]) == 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_diverged_run_exits_1_with_context(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    real_init = harness.init_params
    monkeypatch.setattr(harness, "init_params", lambda arch, seed: real_init(arch, seed) * np.nan)
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
