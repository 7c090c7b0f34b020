import numpy as np
import pytest

from fedgs_sim.config import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    default_config,
    default_config_text,
    parse_config,
    render_config,
)


def write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


def test_default_config_text_parses_and_roundtrips(tmp_path):
    path = write(tmp_path, default_config_text())
    assert parse_config(path) == default_config()


def test_defaults_are_valid():
    cfg = default_config()
    assert cfg.rounds >= 1
    assert len(cfg.client_specs) >= 2
    assert set(cfg.strategies) == {"fedgs", "fedavg"}


def test_partial_file_fills_in_defaults(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = 3\nseeds = 42\n")
    cfg = parse_config(path)
    assert cfg.rounds == 3
    assert cfg.seeds == (42,)
    assert cfg.batch_size == default_config().batch_size
    assert cfg.client_specs == default_config().client_specs


def test_rounds_zero_is_validation_error(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = 0\n")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_unknown_key_is_parse_error_naming_the_key(tmp_path):
    path = write(tmp_path, "[optimizer]\nlr_decay = 0.9\n")
    with pytest.raises(ParseError, match="lr_decay"):
        parse_config(path)


def test_unknown_section_is_parse_error(tmp_path):
    path = write(tmp_path, "[scheduler]\nkind = cosine\n")
    with pytest.raises(ParseError, match="scheduler"):
        parse_config(path)


def test_bad_literal_is_parse_error_with_context(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = soon\n")
    with pytest.raises(ParseError, match="rounds"):
        parse_config(path)


def test_syntax_error_is_parse_error(tmp_path):
    path = write(tmp_path, "rounds = 3\n")  # key before any section header
    with pytest.raises(ParseError):
        parse_config(path)


def test_duplicate_key_is_parse_error(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = 3\nrounds = 4\n")
    with pytest.raises(ParseError):
        parse_config(path)


def test_client_sections_replace_default_federation(tmp_path):
    text = """
[client 1]
n_samples = 5
seed_offset = 10

[client 2]
n_samples = 7
seed_offset = 11

[test]
n_samples = 9
seed_offset = 99
"""
    cfg = parse_config(write(tmp_path, text))
    assert [s.n_samples for s in cfg.client_specs] == [5, 7, 9]
    assert cfg.test_spec.seed_offset == 99


def test_client_sections_sorted_by_number(tmp_path):
    text = """
[client 2]
n_samples = 7

[client 1]
n_samples = 5
"""
    cfg = parse_config(write(tmp_path, text))
    assert [s.n_samples for s in cfg.training_specs] == [5, 7]


def test_client_sections_default_their_seed_offset_to_their_number(tmp_path):
    # sharing client 1's offset, both clients would train on the same images
    from fedgs_sim.data import build_federation

    text = """
[client 1]
n_samples = 5

[client 2]
n_samples = 5
"""
    cfg = parse_config(write(tmp_path, text))
    assert [s.seed_offset for s in cfg.training_specs] == [1, 2]
    first, second = build_federation(list(cfg.client_specs), 1).clients
    assert not any(np.array_equal(a.image, b.image) for a, b in zip(first, second))


@pytest.mark.parametrize(
    "text",
    [
        "[client 1]\nseed_offset = 3\n\n[client 2]\nseed_offset = 3\n",
        "[client 1]\n\n[client 2]\nseed_offset = 1\n",
        "[client 1]\n\n[test]\nseed_offset = 1\n",
    ],
)
def test_shared_seed_offset_is_validation_error(tmp_path, text):
    with pytest.raises(ValidationError, match="seed_offset 1|seed_offset 3"):
        parse_config(write(tmp_path, text))


def test_unknown_strategy_is_validation_error(tmp_path):
    path = write(tmp_path, "[experiment]\nstrategies = fedprox\n")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_bad_client_values_are_validation_errors(tmp_path):
    path = write(tmp_path, "[client 1]\nn_samples = 0\n")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_difficulty_values_flow_through(tmp_path):
    text = """
[difficulty]
log_base = 1000.0
threshold = 1000.0
regime = blob_split
connectivity = 4
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.difficulty.log_base == 1000.0
    assert cfg.difficulty.threshold == 1000.0
    assert cfg.difficulty.regime == "blob_split"
    assert cfg.difficulty.connectivity == 4


def test_render_is_inverse_of_parse(tmp_path):
    cfg = default_config()
    reparsed = parse_config(write(tmp_path, render_config(cfg)))
    assert reparsed == cfg


def test_shipped_default_file_matches_generator():
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "configs" / "default.ini"
    assert shipped.read_text() == default_config_text()


def test_direct_construction_validates():
    base = default_config()
    with pytest.raises(ValidationError):
        ExperimentConfig(
            seeds=(),
            rounds=base.rounds,
            strategies=base.strategies,
            batch_size=base.batch_size,
            local_epochs=base.local_epochs,
            hidden_channels=base.hidden_channels,
            optimizer=base.optimizer,
            difficulty=base.difficulty,
            client_specs=base.client_specs,
        )
