"""Global configuration: nested dataclasses, the simulated world among them,
that one strict builder loads from a YAML file, and its round-trip saver."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .controller import ControllerConfig
from .icp import RegistrationConfig
from .mapping import MappingConfig
from .simworld import LidarParams, WorldParams


class ConfigError(ValueError):
    """Config file problem; the message names the offending key or file."""


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
    world: WorldParams = field(default_factory=WorldParams)
    seed: int = 0    # the CLI's world seed, and every run's scan-noise seed


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build(cls, data, path: str):
    """Instantiate dataclass ``cls`` from a mapping, rejecting unknown keys, a
    non-integer value for an ``int`` field and a non-number for a ``float``
    field, and reporting validation errors with their full key path. A field
    whose default is a dataclass is a nested section. A list of numbers
    becomes a tuple for a ``tuple`` field, and a ``list`` field takes a list
    of lists of numbers, each becoming a tuple."""
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
        if kind == "int" and not (_is_number(value) and isinstance(value, int)):
            raise ConfigError(f"'{key_path}' must be an integer")
        if kind == "float" and not _is_number(value):
            raise ConfigError(f"'{key_path}' must be a number")
        if is_dataclass(section):
            value = _build(section, value, key_path)
        elif isinstance(value, list):
            single = kind.startswith("tuple")
            rows = [value] if single else value
            if not all(isinstance(row, list) and all(map(_is_number, row))
                       for row in rows):
                raise ConfigError(f"'{key_path}' must be a list of "
                                  + ("numbers" if single
                                     else "lists of numbers"))
            value = tuple(value) if single else [tuple(row) for row in value]
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        prefix = f"{path}: " if path else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_dict(data: dict) -> GlobalConfig:
    return _build(GlobalConfig, data, "")


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


class _Dumper(yaml.SafeDumper):
    """Safe YAML that writes a numpy scalar as the plain number it holds."""


_Dumper.add_multi_representer(
    np.generic, lambda dumper, value: dumper.represent_data(value.item()))


def save_config(cfg: GlobalConfig, path) -> None:
    Path(path).write_text(
        yaml.dump(asdict(cfg), Dumper=_Dumper, sort_keys=True,
                  default_flow_style=False))
