import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgs_sim.config import (
    ExperimentConfig,
    default_config,
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
    path = write(tmp_path, render_config(default_config()))
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
    with pytest.raises(ValueError, match=r"^section \[experiment\]: rounds must be >= 1$"):
        parse_config(path)


def test_unknown_key_is_parse_error_naming_the_key(tmp_path):
    # kind, erosion_iterations, structuring_element and connectivity name no
    # field: a config that sets one fails instead of ignoring it
    for section, key in [
        ("optimizer", "lr_decay"),
        ("optimizer", "kind"),
        ("difficulty", "erosion_iterations"),
        ("difficulty", "structuring_element"),
        ("difficulty", "connectivity"),
    ]:
        path = write(tmp_path, f"[{section}]\n{key} = 1\n")
        with pytest.raises(ValueError, match=rf"^unknown key '{key}' in section \[{section}\]$"):
            parse_config(path)


def test_unknown_section_is_parse_error(tmp_path):
    # the model's width is a constant, so [model] names no fields either
    for section, setting in [("scheduler", "kind = cosine"), ("model", "hidden_channels = 4")]:
        path = write(tmp_path, f"[{section}]\n{setting}\n")
        with pytest.raises(ValueError, match=rf"^unknown section \[{section}\]$"):
            parse_config(path)


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nrounds = 3\n",  # alone: its keys were dropped, rounds stayed 20
        "[DEFAULT]\nrounds = 3\n\n[experiment]\nseeds = 1\n",  # merged into [experiment]: rounds became 3
        "[DEFAULT]\nrounds = 3\n\n[strategy]\nbatch_size = 2\n",  # merged into [strategy]: "unknown key"
    ],
    ids=["alone", "beside-experiment", "beside-strategy"],
)
def test_default_section_is_parse_error(tmp_path, text):
    with pytest.raises(ValueError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(write(tmp_path, text))


def test_bad_literal_is_parse_error_with_context(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = soon\n")
    with pytest.raises(ValueError, match="rounds"):
        parse_config(path)


def test_syntax_error_is_parse_error(tmp_path):
    path = write(tmp_path, "rounds = 3\n")  # key before any section header
    with pytest.raises(ValueError, match="no section headers"):
        parse_config(path)


def test_duplicate_key_is_parse_error(tmp_path):
    path = write(tmp_path, "[experiment]\nrounds = 3\nrounds = 4\n")
    with pytest.raises(ValueError, match="option 'rounds' in section 'experiment' already exists"):
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
    assert not any(np.array_equal(a, b) for a, b in zip(first.images, second.images))


@pytest.mark.parametrize(
    "text",
    [
        "[client 1]\nseed_offset = 3\n\n[client 2]\nseed_offset = 3\n",
        "[client 1]\n\n[client 2]\nseed_offset = 1\n",
        "[client 1]\n\n[test]\nseed_offset = 1\n",
    ],
)
def test_shared_seed_offset_is_validation_error(tmp_path, text):
    with pytest.raises(ValueError, match="seed_offset 1|seed_offset 3"):
        parse_config(write(tmp_path, text))


def test_unknown_strategy_is_validation_error(tmp_path):
    path = write(tmp_path, "[experiment]\nstrategies = fedprox\n")
    with pytest.raises(ValueError, match=r"^section \[experiment\]: unknown strategy 'fedprox'$"):
        parse_config(path)


def test_bad_client_values_are_validation_errors(tmp_path):
    path = write(tmp_path, "[client 1]\nn_samples = 0\n")
    with pytest.raises(ValueError, match=r"^section \[client 1\]: n_samples must be >= 1$"):
        parse_config(path)


def test_difficulty_values_flow_through(tmp_path):
    text = """
[difficulty]
log_base = 1000.0
threshold = 1000.0
regime = blob_split
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.difficulty.log_base == 1000.0
    assert cfg.difficulty.threshold == 1000.0
    assert cfg.difficulty.regime == "blob_split"


def test_render_is_inverse_of_parse(tmp_path):
    cfg = default_config()
    reparsed = parse_config(write(tmp_path, render_config(cfg)))
    assert reparsed == cfg


def test_shipped_default_file_matches_generator():
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "configs" / "default.ini"
    assert shipped.read_text() == render_config(default_config())


def test_direct_construction_validates():
    base = default_config()
    with pytest.raises(ValueError, match="^need at least one seed$"):
        ExperimentConfig(
            seeds=(),
            rounds=base.rounds,
            strategies=base.strategies,
            batch_size=base.batch_size,
            local_epochs=base.local_epochs,
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
        ("[strategy]\nbatch_size = 0\n", "batch_size"),
        ("[strategy]\nlocal_epochs = 0\n", "local_epochs"),
    ],
)
def test_experiment_invariants_are_validation_errors(tmp_path, text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "text, rejected",
    [
        ("[difficulty]\nthreshold = 2000\n", True),
        ("[difficulty]\nthreshold = 1024\n", False),  # a one-pixel lesion at 32x32
        ("[experiment]\nstrategies = fedavg\n\n[difficulty]\nthreshold = 2000\n", False),  # no fedgs
        ("[client 1]\nimage_size = 64 64\n\n[difficulty]\nthreshold = 2000\n", False),  # 4096 in client 1
        ("[difficulty]\nthreshold = 2000\n\n[test]\nimage_size = 64 64\n", True),  # the test center never trains
    ],
    ids=["above_32x32", "one_pixel_at_32x32", "fedavg_only", "64x64_client", "64x64_test_center"],
)
def test_fedgs_threshold_must_be_reachable_by_a_training_mask(tmp_path, text, rejected):
    path = write(tmp_path, text)
    if not rejected:
        parse_config(path)
        return
    message = (
        "threshold 2000.0 is above 1024, the largest inverse area a training mask can have: "
        "fedgs would count no sample as small"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config(path)


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
        ("experiment", "seeds", "", ValueError),
        ("experiment", "seeds", ",", ValueError),
        ("experiment", "seeds", "1.5", ValueError),
        ("experiment", "strategies", "fedavg,fedgs", ("fedavg", "fedgs")),
        ("experiment", "strategies", "", ValueError),
        ("experiment", "rounds", "3", 3),
        ("experiment", "rounds", "3.0", ValueError),
        ("experiment", "rounds", "3 4", ValueError),
        ("experiment", "out_dir", "runs/a", "runs/a"),
        ("optimizer", "learning_rate", "1", 1.0),
        ("optimizer", "learning_rate", "1e-08", 1e-08),
        ("optimizer", "learning_rate", "high", ValueError),
        ("difficulty", "log_base", "30", 30.0),
        ("difficulty", "regime", "blob_split", "blob_split"),
        ("client 1", "image_size", "20 24", (20, 24)),
        ("client 1", "image_size", "32,32", ValueError),
        ("client 1", "image_size", "32", ValueError),
        ("client 1", "small_radius_range", "1 2 3", ValueError),
        ("test", "small_radius_range", "2 3", (2.0, 3.0)),
        ("test", "large_radius_range", "6.0 9.0 12.0", ValueError),
        ("test", "n_samples", "7.0", ValueError),
    ],
    # a rejected row keeps the id it had when config syntax errors had a type of their own
    ids=lambda value: "ParseError" if value is ValueError else None,
)
def test_literal_rules(tmp_path, section, key, text, expected):
    path = write(tmp_path, f"[{section}]\n{key} = {text}\n")
    if expected is ValueError:
        with pytest.raises(ValueError, match=rf"^bad value for '{key}' in section \[{section}\]: "):
            parse_config(path)
        return
    value = _parsed_value(parse_config(path), section, key)
    assert value == expected
    assert type(value) is type(expected)
    if isinstance(value, tuple):
        assert [type(v) for v in value] == [type(v) for v in expected]


_positive = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False)


@st.composite
def _client_specs(draw, seed_offset):
    small_lo = draw(st.floats(min_value=0.5, max_value=4.0))
    small_hi = small_lo + draw(st.floats(min_value=0.0, max_value=3.0))
    large_lo = small_hi + draw(st.floats(min_value=0.01, max_value=5.0))
    large_hi = large_lo + draw(st.floats(min_value=0.0, max_value=10.0))
    fits = 2 * math.ceil(large_hi) + 1  # no smaller side holds the largest disk: such specs are invalid
    return ClientDataSpec(
        n_samples=draw(st.integers(1, 500)),
        image_size=(draw(st.integers(fits, 128)), draw(st.integers(fits, 128))),
        small_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        small_radius_range=(small_lo, small_hi),
        large_radius_range=(large_lo, large_hi),
        noise_std=draw(st.floats(min_value=0.0, max_value=10.0)),
        seed_offset=seed_offset,
    )


@st.composite
def _experiment_configs(draw):
    n_clients = draw(st.integers(1, 5))
    offsets = draw(st.lists(st.integers(0, 10_000), min_size=n_clients + 1, max_size=n_clients + 1, unique=True))
    client_specs = tuple(draw(_client_specs(offset)) for offset in offsets)
    strategies = draw(st.sampled_from([("fedgs",), ("fedavg",), ("fedgs", "fedavg"), ("fedavg", "fedgs")]))
    # fedgs needs a threshold that a one-pixel lesion in some training image reaches
    reachable = max(math.prod(spec.image_size) for spec in client_specs[:-1]) if "fedgs" in strategies else 1e6
    return ExperimentConfig(
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True))),
        rounds=draw(st.integers(1, 1000)),
        strategies=strategies,
        batch_size=draw(st.integers(1, 64)),
        local_epochs=draw(st.integers(1, 10)),
        optimizer=OptimizerConfig(learning_rate=draw(_positive)),
        difficulty=DifficultyConfig(
            log_base=draw(st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
            threshold=draw(st.floats(min_value=1.0, max_value=reachable)),
            regime=draw(st.sampled_from(["whole_mask", "blob_split"])),
        ),
        client_specs=client_specs,
        out_dir=draw(st.text(alphabet="abcxyz0123456789_-./", min_size=1, max_size=20)),
    )


@settings(max_examples=60, deadline=None)
@given(_experiment_configs())
def test_parse_inverts_render_for_any_valid_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(render_config(cfg))
        assert parse_config(path) == cfg
