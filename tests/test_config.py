import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgs_sim.config import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    default_config,
    default_config_text,
    parse_config,
    render_config,
)
from fedgs_sim.data import ClientDataSpec
from fedgs_sim.masks import DifficultyConfig
from fedgs_sim.model import OptimizerConfig


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nseeds = 1 1\n", "duplicate seeds"),
        ("[experiment]\nseeds = 3, 1, 3\n", "duplicate seeds"),
        ("[experiment]\nstrategies = fedgs fedgs\n", "duplicate strategies"),
        ("[model]\nhidden_channels = 0\n", "hidden_channels"),
        ("[strategy]\nbatch_size = 0\n", "batch_size"),
        ("[strategy]\nlocal_epochs = 0\n", "local_epochs"),
    ],
)
def test_experiment_invariants_are_validation_errors(tmp_path, text, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(write(tmp_path, text))


def test_strategy_settings_come_from_the_config():
    cfg = default_config()
    fedgs, fedavg = cfg.strategy("fedgs"), cfg.strategy("fedavg")
    assert (fedgs.kind, fedgs.batch_size, fedgs.local_epochs) == ("fedgs", cfg.batch_size, cfg.local_epochs)
    assert fedgs.difficulty == cfg.difficulty
    assert (fedavg.kind, fedavg.difficulty) == ("fedavg", None)
    with pytest.raises(ValueError, match="fedprox"):
        cfg.strategy("fedprox")


def _parsed_value(cfg, section, key):
    owner = {
        "optimizer": cfg.optimizer,
        "difficulty": cfg.difficulty,
        "client 1": cfg.training_specs[0],
        "test": cfg.test_spec,
    }.get(section, cfg)
    return getattr(owner, key)


# Literal rules: lists split on whitespace or commas and must not be empty;
# pairs take exactly two whitespace-separated values; ints reject reals, and
# reals accept ints.
@pytest.mark.parametrize(
    "section, key, text, expected",
    [
        ("experiment", "seeds", "1,2", (1, 2)),
        ("experiment", "seeds", "1, 2 3", (1, 2, 3)),
        ("experiment", "seeds", "", ParseError),
        ("experiment", "seeds", ",", ParseError),
        ("experiment", "seeds", "1.5", ParseError),
        ("experiment", "strategies", "fedavg,fedgs", ("fedavg", "fedgs")),
        ("experiment", "strategies", "", ParseError),
        ("experiment", "rounds", "3", 3),
        ("experiment", "rounds", "3.0", ParseError),
        ("experiment", "rounds", "3 4", ParseError),
        ("experiment", "out_dir", "runs/a", "runs/a"),
        ("optimizer", "learning_rate", "1", 1.0),
        ("optimizer", "eps", "1e-08", 1e-08),
        ("optimizer", "beta1", "high", ParseError),
        ("difficulty", "erosion_iterations", "2", 2),
        ("difficulty", "regime", "blob_split", "blob_split"),
        ("client 1", "image_size", "16 24", (16, 24)),
        ("client 1", "image_size", "32,32", ParseError),
        ("client 1", "image_size", "32", ParseError),
        ("client 1", "lesions_per_image", "1 2 3", ParseError),
        ("test", "small_radius_range", "2 3", (2.0, 3.0)),
        ("test", "large_radius_range", "6.0 9.0 12.0", ParseError),
        ("test", "n_samples", "7.0", ParseError),
    ],
)
def test_literal_rules(tmp_path, section, key, text, expected):
    path = write(tmp_path, f"[{section}]\n{key} = {text}\n")
    if expected is ParseError:
        with pytest.raises(ParseError, match=key):
            parse_config(path)
        return
    value = _parsed_value(parse_config(path), section, key)
    assert value == expected
    assert type(value) is type(expected)
    if isinstance(value, tuple):
        assert [type(v) for v in value] == [type(v) for v in expected]


_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False)


@st.composite
def _client_specs(draw, seed_offset):
    small_lo = draw(st.floats(min_value=0.5, max_value=4.0))
    small_hi = small_lo + draw(st.floats(min_value=0.0, max_value=3.0))
    large_lo = small_hi + draw(st.floats(min_value=0.01, max_value=5.0))
    lesions_lo = draw(st.integers(1, 3))
    return ClientDataSpec(
        n_samples=draw(st.integers(1, 500)),
        image_size=(draw(st.integers(1, 128)), draw(st.integers(1, 128))),
        lesions_per_image=(lesions_lo, lesions_lo + draw(st.integers(0, 3))),
        small_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        small_radius_range=(small_lo, small_hi),
        large_radius_range=(large_lo, large_lo + draw(st.floats(min_value=0.0, max_value=10.0))),
        noise_std=draw(st.floats(min_value=0.0, max_value=10.0)),
        lesion_intensity=draw(_reals),
        seed_offset=seed_offset,
    )


@st.composite
def _experiment_configs(draw):
    n_clients = draw(st.integers(1, 5))
    offsets = draw(st.lists(st.integers(0, 10_000), min_size=n_clients + 1, max_size=n_clients + 1, unique=True))
    return ExperimentConfig(
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True))),
        rounds=draw(st.integers(1, 1000)),
        strategies=draw(st.sampled_from([("fedgs",), ("fedavg",), ("fedgs", "fedavg"), ("fedavg", "fedgs")])),
        batch_size=draw(st.integers(1, 64)),
        local_epochs=draw(st.integers(1, 10)),
        hidden_channels=draw(st.integers(1, 16)),
        optimizer=OptimizerConfig(
            kind=draw(st.sampled_from(["sgd", "adamw"])),
            learning_rate=draw(_positive),
            beta1=draw(_reals),
            beta2=draw(_reals),
            eps=draw(_positive),
            weight_decay=draw(_reals),
        ),
        difficulty=DifficultyConfig(
            log_base=draw(st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
            threshold=draw(st.floats(min_value=1.0, max_value=1e6)),
            regime=draw(st.sampled_from(["whole_mask", "blob_split"])),
            erosion_iterations=draw(st.integers(0, 5)),
            structuring_element=draw(st.sampled_from(["square3", "cross3"])),
            connectivity=draw(st.sampled_from([4, 8])),
        ),
        client_specs=tuple(draw(_client_specs(offset)) for offset in offsets),
        out_dir=draw(st.text(alphabet="abcxyz0123456789_-./", min_size=1, max_size=20)),
    )


@settings(max_examples=60, deadline=None)
@given(_experiment_configs())
def test_parse_inverts_render_for_any_valid_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(render_config(cfg))
        assert parse_config(path) == cfg
