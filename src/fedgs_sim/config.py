"""Experiment configuration: strict key=value files with [section] headers.

Grammar (INI subset): lines are `key = value` inside `[section]` headers;
`#`/`;` start comments; values are whitespace-separated tokens. Unknown
sections or keys are hard errors, so typos never silently fall back to
defaults. Every key has a default; `fedgs-sim print-defaults` emits the full
default file. Training clients live in numbered `[client <n>]` sections
(ascending order) and the held-out test center in `[test]`.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .data import ClientDataSpec
from .masks import DifficultyConfig
from .model import OptimizerConfig


class ParseError(ValueError):
    """Malformed config file: bad syntax, unknown section/key, or a bad literal."""


class ValidationError(ValueError):
    """Config parsed fine but violates an invariant (e.g. rounds < 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...]
    rounds: int
    strategies: tuple[str, ...]
    batch_size: int
    local_epochs: int
    hidden_channels: int
    optimizer: OptimizerConfig
    difficulty: DifficultyConfig
    client_specs: tuple[ClientDataSpec, ...]  # last one is the test center
    out_dir: str = "results"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if not self.seeds:
            raise ValidationError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValidationError("seeds must be non-negative")
        if not self.strategies:
            raise ValidationError("need at least one strategy")
        for strategy in self.strategies:
            if strategy not in ("fedgs", "fedavg"):
                raise ValidationError(f"unknown strategy {strategy!r}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValidationError("duplicate strategies")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValidationError("local_epochs must be >= 1")
        if len(self.client_specs) < 2:
            raise ValidationError("need at least one training client and a test center")
        offsets = [spec.seed_offset for spec in self.client_specs]
        shared = sorted({offset for offset in offsets if offsets.count(offset) > 1})
        if shared:
            raise ValidationError(f"seed_offset {shared[0]} is used by two clients, which would draw the same data")

    @property
    def training_specs(self) -> tuple[ClientDataSpec, ...]:
        return self.client_specs[:-1]

    @property
    def test_spec(self) -> ClientDataSpec:
        return self.client_specs[-1]


def default_config() -> ExperimentConfig:
    """Desk-scale default: small lesions globally under-represented.

    Three large-lesion-dominated clients plus one small-lesion-rich client;
    the test center mixes both regimes. Sized so the full two-strategy,
    five-seed sweep finishes in a few minutes on one core.
    """
    common = dict(
        image_size=(32, 32),
        lesions_per_image=(1, 2),
        small_radius_range=(2.0, 3.0),
        large_radius_range=(6.0, 9.0),
        noise_std=0.5,
        lesion_intensity=1.0,
    )
    clients = tuple(
        ClientDataSpec(n_samples=60, small_fraction=fraction, seed_offset=offset, **common)
        for offset, fraction in ((1, 0.05), (2, 0.05), (3, 0.05), (4, 0.4))
    )
    test = ClientDataSpec(n_samples=120, small_fraction=0.3, seed_offset=100, **common)
    return ExperimentConfig(
        seeds=(1, 2, 3, 4, 5),
        rounds=20,
        strategies=("fedgs", "fedavg"),
        batch_size=4,
        local_epochs=2,
        hidden_channels=4,
        optimizer=OptimizerConfig(kind="adamw", learning_rate=0.003),
        difficulty=DifficultyConfig(log_base=30.0, threshold=13.0, regime="whole_mask"),
        client_specs=clients + (test,),
        out_dir="results",
    )


# ---------------------------------------------------------------------------
# parsing

_CLIENT_SECTION = re.compile(r"^client (\d+)$")


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _parse_strs(text: str) -> tuple[str, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected two reals, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_str(text: str) -> str:
    return text.strip()


_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "experiment": {
        "seeds": _parse_ints,
        "rounds": _parse_int,
        "strategies": _parse_strs,
        "out_dir": _parse_str,
    },
    "strategy": {
        "batch_size": _parse_int,
        "local_epochs": _parse_int,
    },
    "model": {
        "hidden_channels": _parse_int,
    },
    "optimizer": {
        "kind": _parse_str,
        "learning_rate": _parse_float,
        "beta1": _parse_float,
        "beta2": _parse_float,
        "eps": _parse_float,
        "weight_decay": _parse_float,
    },
    "difficulty": {
        "log_base": _parse_float,
        "threshold": _parse_float,
        "regime": _parse_str,
        "erosion_iterations": _parse_int,
        "structuring_element": _parse_str,
        "connectivity": _parse_int,
    },
}

_CLIENT_SCHEMA: dict[str, Callable[[str], object]] = {
    "n_samples": _parse_int,
    "image_size": _parse_int_pair,
    "lesions_per_image": _parse_int_pair,
    "small_fraction": _parse_float,
    "small_radius_range": _parse_float_pair,
    "large_radius_range": _parse_float_pair,
    "noise_std": _parse_float,
    "lesion_intensity": _parse_float,
    "seed_offset": _parse_int,
}


def _typed_section(
    raw: configparser.SectionProxy, schema: dict[str, Callable[[str], object]], section: str
) -> dict[str, object]:
    values: dict[str, object] = {}
    for key, text in raw.items():
        if key not in schema:
            raise ParseError(f"unknown key {key!r} in section [{section}]")
        try:
            values[key] = schema[key](text)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r} in section [{section}]: {exc}") from exc
    return values


def _spec_from_section(defaults: ClientDataSpec, values: dict[str, object], section: str) -> ClientDataSpec:
    kwargs = {f.name: getattr(defaults, f.name) for f in fields(ClientDataSpec)}
    kwargs.update(values)
    try:
        return ClientDataSpec(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ValidationError(f"section [{section}]: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file against the defaults.

    Raises ParseError for syntax problems and unknown sections/keys,
    ValidationError when values break an invariant.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    base = default_config()
    known_flat = set(_SCHEMA)
    client_sections: list[tuple[int, str]] = []
    test_section: str | None = None
    for section in parser.sections():
        match = _CLIENT_SECTION.match(section)
        if match:
            client_sections.append((int(match.group(1)), section))
        elif section == "test":
            test_section = section
        elif section not in known_flat:
            raise ParseError(f"unknown section [{section}]")

    flat: dict[str, dict[str, object]] = {}
    for section, schema in _SCHEMA.items():
        flat[section] = _typed_section(parser[section], schema, section) if parser.has_section(section) else {}

    try:
        optimizer = OptimizerConfig(
            kind=flat["optimizer"].get("kind", base.optimizer.kind),  # type: ignore[arg-type]
            learning_rate=flat["optimizer"].get("learning_rate", base.optimizer.learning_rate),  # type: ignore[arg-type]
            beta1=flat["optimizer"].get("beta1", base.optimizer.beta1),  # type: ignore[arg-type]
            beta2=flat["optimizer"].get("beta2", base.optimizer.beta2),  # type: ignore[arg-type]
            eps=flat["optimizer"].get("eps", base.optimizer.eps),  # type: ignore[arg-type]
            weight_decay=flat["optimizer"].get("weight_decay", base.optimizer.weight_decay),  # type: ignore[arg-type]
        )
        difficulty = DifficultyConfig(
            log_base=flat["difficulty"].get("log_base", base.difficulty.log_base),  # type: ignore[arg-type]
            threshold=flat["difficulty"].get("threshold", base.difficulty.threshold),  # type: ignore[arg-type]
            regime=flat["difficulty"].get("regime", base.difficulty.regime),  # type: ignore[arg-type]
            erosion_iterations=flat["difficulty"].get("erosion_iterations", base.difficulty.erosion_iterations),  # type: ignore[arg-type]
            structuring_element=flat["difficulty"].get("structuring_element", base.difficulty.structuring_element),  # type: ignore[arg-type]
            connectivity=flat["difficulty"].get("connectivity", base.difficulty.connectivity),  # type: ignore[arg-type]
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    if client_sections:
        client_sections.sort()
        # [client n] takes the first default client's values, and seed_offset n
        train_specs = tuple(
            _spec_from_section(
                base.training_specs[0],
                {"seed_offset": number, **_typed_section(parser[name], _CLIENT_SCHEMA, name)},
                name,
            )
            for number, name in client_sections
        )
    else:
        train_specs = base.training_specs
    if test_section is not None:
        test_spec = _spec_from_section(
            base.test_spec, _typed_section(parser[test_section], _CLIENT_SCHEMA, test_section), test_section
        )
    else:
        test_spec = base.test_spec

    try:
        return ExperimentConfig(
            seeds=flat["experiment"].get("seeds", base.seeds),  # type: ignore[arg-type]
            rounds=flat["experiment"].get("rounds", base.rounds),  # type: ignore[arg-type]
            strategies=flat["experiment"].get("strategies", base.strategies),  # type: ignore[arg-type]
            out_dir=flat["experiment"].get("out_dir", base.out_dir),  # type: ignore[arg-type]
            batch_size=flat["strategy"].get("batch_size", base.batch_size),  # type: ignore[arg-type]
            local_epochs=flat["strategy"].get("local_epochs", base.local_epochs),  # type: ignore[arg-type]
            hidden_channels=flat["model"].get("hidden_channels", base.hidden_channels),  # type: ignore[arg-type]
            optimizer=optimizer,
            difficulty=difficulty,
            client_specs=train_specs + (test_spec,),
        )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# rendering (print-defaults and the shipped default file)


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_client(section: str, spec: ClientDataSpec) -> list[str]:
    lines = [f"[{section}]"]
    for f in fields(ClientDataSpec):
        lines.append(f"{f.name} = {_format_value(getattr(spec, f.name))}")
    lines.append("")
    return lines


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    lines = [
        "[experiment]",
        f"seeds = {_format_value(cfg.seeds)}",
        f"rounds = {cfg.rounds}",
        f"strategies = {_format_value(cfg.strategies)}",
        f"out_dir = {cfg.out_dir}",
        "",
        "[strategy]",
        f"batch_size = {cfg.batch_size}",
        f"local_epochs = {cfg.local_epochs}",
        "",
        "[model]",
        f"hidden_channels = {cfg.hidden_channels}",
        "",
        "[optimizer]",
        f"kind = {cfg.optimizer.kind}",
        f"learning_rate = {_format_value(cfg.optimizer.learning_rate)}",
        f"beta1 = {_format_value(cfg.optimizer.beta1)}",
        f"beta2 = {_format_value(cfg.optimizer.beta2)}",
        f"eps = {_format_value(cfg.optimizer.eps)}",
        f"weight_decay = {_format_value(cfg.optimizer.weight_decay)}",
        "",
        "[difficulty]",
        f"log_base = {_format_value(cfg.difficulty.log_base)}",
        f"threshold = {_format_value(cfg.difficulty.threshold)}",
        f"regime = {cfg.difficulty.regime}",
        f"erosion_iterations = {cfg.difficulty.erosion_iterations}",
        f"structuring_element = {cfg.difficulty.structuring_element}",
        f"connectivity = {cfg.difficulty.connectivity}",
        "",
    ]
    for i, spec in enumerate(cfg.training_specs, start=1):
        lines.extend(_render_client(f"client {i}", spec))
    lines.extend(_render_client("test", cfg.test_spec))
    return "\n".join(lines)


def default_config_text() -> str:
    return render_config(default_config())
