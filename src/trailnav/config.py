"""Global configuration and world specs: nested dataclasses that one strict
builder loads from YAML config files and ``key = JSON`` world-spec files, and
round-trip saves."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .controller import ControllerConfig
from .icp import RegistrationConfig
from .mapping import MappingConfig
from .simworld import LidarParams, WorldParams


class ConfigError(ValueError):
    """Config file, world spec or option problem; the message names the
    offending key, file or option."""


@dataclass
class PriorConfig:
    beta: float = 0.1
    rate_hz: float = 100.0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")


@dataclass
class SimConfig:
    lidar: LidarParams = field(default_factory=LidarParams)
    slip_rot: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.slip_rot < 1.0:
            raise ValueError("slip_rot must lie in [0, 1)")


@dataclass
class MissionConfig:
    d_ref: float = 0.05                 # m, trajectory subsampling distance
    init_overlap_floor: float = 40.0    # %, localization init threshold

    def __post_init__(self):
        if self.d_ref <= 0:
            raise ValueError("d_ref must be positive")
        if not 0.0 <= self.init_overlap_floor <= 100.0:
            raise ValueError("init_overlap_floor must lie in [0, 100]")


@dataclass
class GlobalConfig:
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)
    mapping: MappingConfig = field(default_factory=MappingConfig)
    path_following: ControllerConfig = field(default_factory=ControllerConfig)
    prior: PriorConfig = field(default_factory=PriorConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    seed: int = 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build(cls, data, path: str):
    """Instantiate dataclass ``cls`` from a mapping, rejecting unknown keys and
    a non-integer value for an ``int`` field, and reporting validation errors
    with their full key path. A field whose default is a dataclass is a
    nested section. A list becomes a tuple for a ``tuple`` field, and each
    item of a ``list`` field becomes a tuple."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{path}' must be a mapping" if path
                          else "config root must be a mapping")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(str(key) for key in set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'"
                          if path else f"unknown key '{unknown[0]}'")
    kwargs = {}
    for name, value in data.items():
        key_path = f"{path}.{name}" if path else name
        # Field annotations are strings: the config modules postpone them.
        kind, section = known[name].type, known[name].default_factory
        if kind == "int" and not _is_int(value):
            raise ConfigError(f"'{key_path}' must be an integer")
        if is_dataclass(section):
            value = _build(section, value, key_path)
        elif isinstance(value, list) and kind.startswith("tuple"):
            value = tuple(value)
        elif isinstance(value, list):
            try:
                value = [tuple(item) for item in value]
            except TypeError as exc:
                raise ConfigError(f"'{key_path}' must be a list of lists: "
                                  f"{exc}") from exc
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        prefix = f"{path}: " if path else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_dict(data: dict) -> GlobalConfig:
    return _build(GlobalConfig, data, "")


def config_to_dict(cfg: GlobalConfig) -> dict:
    data = asdict(cfg)
    data["registration"]["bboxes"] = [
        list(b) for b in data["registration"]["bboxes"]]
    return data


def load_config(path) -> GlobalConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


def save_config(cfg: GlobalConfig, path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=True,
                       default_flow_style=False))


def save_world_spec(path, seed: int, params: WorldParams) -> None:
    """Key-value text file from which the world regenerates deterministically:
    the seed, then one ``key = JSON`` line per ``WorldParams`` field."""
    lines = [f"seed = {json.dumps(seed)}"]
    for key, value in asdict(params).items():
        lines.append(f"{key} = {json.dumps(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_world_spec(path) -> tuple[int, WorldParams]:
    """(seed, WorldParams) from a ``save_world_spec`` file, through the
    config's checks; blank lines and ``#`` comments are skipped. A malformed
    file (bad JSON, a missing or non-integer seed, an unknown key, an invalid
    value) raises ConfigError naming the file."""
    text = Path(path).read_text()
    try:
        data = {}
        for line in text.splitlines():
            key, _, value = line.partition("=")
            key = key.strip()
            if key and not key.startswith("#"):
                data[key] = json.loads(value)
        seed = data.pop("seed", None)
        if not _is_int(seed):
            raise ConfigError("missing a seed" if seed is None
                              else "'seed' must be an integer")
        return seed, _build(WorldParams, data, "")
    except ValueError as exc:   # a ConfigError, or bad JSON
        raise ConfigError(f"world spec {path}: {exc}") from exc
