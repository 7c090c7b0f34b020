"""Experiment configuration: strict key=value files with [section] headers.

Grammar (INI subset): lines are `key = value` inside `[section]` headers;
`#`/`;` start comments. Each key is a field of a config dataclass, and the
field's type picks the parser of its value. Unknown sections or keys are hard
errors, so typos never silently fall back to defaults. Every key has a
default; `fedgs-sim print-defaults` emits the full default file. Training
clients live in numbered `[client <n>]` sections (ascending order) and the
held-out test center in `[test]`.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Literal, get_args, get_origin, get_type_hints

from .data import ClientDataSpec
from .fl import StrategyConfig
from .masks import DifficultyConfig
from .model import ArchDescriptor, OptimizerConfig

Parser = Callable[[str], Any]


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
        try:
            for kind in self.strategies:
                self.strategy(kind)
            ArchDescriptor(hidden_channels=self.hidden_channels)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        for name, values in (("seeds", self.seeds), ("strategies", self.strategies)):
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {name}")
        if len(self.client_specs) < 2:
            raise ValidationError("need at least one training client and a test center")
        offsets = [spec.seed_offset for spec in self.client_specs]
        shared = sorted({offset for offset in offsets if offsets.count(offset) > 1})
        if shared:
            raise ValidationError(f"seed_offset {shared[0]} is used by two clients, which would draw the same data")

    def strategy(self, kind: str) -> StrategyConfig:
        """The local-training and aggregation settings of strategy `kind` ("fedgs" or "fedavg")."""
        difficulty = self.difficulty if kind == "fedgs" else None
        return StrategyConfig(kind, self.batch_size, self.local_epochs, difficulty)  # type: ignore[arg-type]

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
    specs = tuple(
        ClientDataSpec(n_samples=n, small_fraction=fraction, noise_std=0.5, seed_offset=offset)
        for offset, n, fraction in ((1, 60, 0.05), (2, 60, 0.05), (3, 60, 0.05), (4, 60, 0.4), (100, 120, 0.3))
    )
    return ExperimentConfig(
        seeds=(1, 2, 3, 4, 5),
        rounds=20,
        strategies=("fedgs", "fedavg"),
        batch_size=4,
        local_epochs=2,
        hidden_channels=4,
        optimizer=OptimizerConfig(kind="adamw", learning_rate=0.003),
        difficulty=DifficultyConfig(log_base=30.0, threshold=13.0, regime="whole_mask"),
        client_specs=specs,
    )


def _literal_parser(hint: Any) -> Parser:
    """int, float, str or Literal; tuple[X, ...] (whitespace or commas, not empty); tuple[X, Y]."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        items = [_literal_parser(arg) for arg in args if arg is not Ellipsis]
        return partial(_parse_tuple, items, args[-1] is Ellipsis)
    if hint in (int, float):
        return hint
    if hint is str or get_origin(hint) is Literal:
        return str.strip  # a Literal's members are checked by its dataclass
    raise TypeError(f"no literal parser for {hint!r}")


def _parse_tuple(items: list[Parser], is_list: bool, text: str) -> tuple[Any, ...]:
    if is_list:
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty list")
        return tuple(map(items[0], parts))
    parts = text.split()
    if len(parts) != len(items):
        raise ValueError(f"expected {len(items)} values, got {text!r}")
    return tuple(parse(part) for parse, part in zip(items, parts))


def _parsers(cls: type, names: tuple[str, ...] = ()) -> dict[str, Parser]:
    hints = get_type_hints(cls)  # at import only: it costs more than a whole parse
    return {name: _literal_parser(hints[name]) for name in names or [f.name for f in fields(cls)]}


# Each section and its fields' parsers, in file order. A flat section names ExperimentConfig
# fields; a nested one holds every field of the ExperimentConfig field it is named after.
_FLAT = {
    "experiment": _parsers(ExperimentConfig, ("seeds", "rounds", "strategies", "out_dir")),
    "strategy": _parsers(ExperimentConfig, ("batch_size", "local_epochs")),
    "model": _parsers(ExperimentConfig, ("hidden_channels",)),
}
_NESTED = {"optimizer": _parsers(OptimizerConfig), "difficulty": _parsers(DifficultyConfig)}
_CLIENT_SCHEMA = _parsers(ClientDataSpec)  # [client n] and [test]
_CLIENT_SECTION = re.compile(r"^client (\d+)$")


def _typed_section(parser: configparser.ConfigParser, section: str, schema: dict[str, Parser]) -> dict[str, object]:
    values: dict[str, object] = {}
    for key, text in parser.items(section, raw=True) if parser.has_section(section) else ():
        if key not in schema:
            raise ParseError(f"unknown key {key!r} in section [{section}]")
        try:
            values[key] = schema[key](text)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r} in section [{section}]: {exc}") from exc
    return values


def _override(obj: Any, parser: configparser.ConfigParser, section: str, schema: dict[str, Parser]) -> Any:
    values = _typed_section(parser, section, schema)
    try:
        return replace(obj, **values)
    except ValueError as exc:
        raise ValidationError(f"section [{section}]: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file against the defaults.

    Raises ParseError for syntax problems and unknown sections/keys,
    ValidationError when values break an invariant.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    matches = {name: _CLIENT_SECTION.match(name) for name in parser.sections()}
    unknown = [name for name, match in matches.items() if not match and name not in {*_FLAT, *_NESTED, "test"}]
    if unknown:
        raise ParseError(f"unknown section [{unknown[0]}]")
    base = default_config()
    flat = {key: value for name, schema in _FLAT.items() for key, value in _typed_section(parser, name, schema).items()}
    nested = {name: _override(getattr(base, name), parser, name, schema) for name, schema in _NESTED.items()}
    # [client n] takes the first default client's values, and seed_offset n
    numbered = sorted((int(match.group(1)), name) for name, match in matches.items() if match)
    first = base.training_specs[0]
    clients = tuple(_override(replace(first, seed_offset=n), parser, name, _CLIENT_SCHEMA) for n, name in numbered)
    test = _override(base.test_spec, parser, "test", _CLIENT_SCHEMA)
    return replace(base, **flat, **nested, client_specs=(clients or base.training_specs) + (test,))


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return " ".join(map(_format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form (print-defaults, configs/default.ini); parsing it back yields an equal config."""
    sections = [(name, cfg, schema) for name, schema in _FLAT.items()]
    sections += [(name, getattr(cfg, name), schema) for name, schema in _NESTED.items()]
    sections += [(f"client {i}", spec, _CLIENT_SCHEMA) for i, spec in enumerate(cfg.training_specs, start=1)]
    sections.append(("test", cfg.test_spec, _CLIENT_SCHEMA))
    lines = []
    for name, obj, schema in sections:
        lines += [f"[{name}]", *(f"{key} = {_format_value(getattr(obj, key))}" for key in schema), ""]
    return "\n".join(lines)


def default_config_text() -> str:
    return render_config(default_config())
