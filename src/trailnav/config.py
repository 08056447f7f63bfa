"""Global configuration: nested dataclasses, strict YAML loading, round-trip save."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .controller import ControllerConfig
from .icp import RegistrationConfig
from .mapping import MappingConfig
from .simworld import LidarParams


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending key."""


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


_SECTIONS = {
    "registration": RegistrationConfig,
    "mapping": MappingConfig,
    "path_following": ControllerConfig,
    "prior": PriorConfig,
    "sim": SimConfig,
    "mission": MissionConfig,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build(cls, data: dict, path: str):
    """Instantiate a config dataclass from a dict, rejecting unknown keys and
    a non-integer value for an ``int`` field, and reporting validation errors
    with their full key path."""
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'"
                          if path else f"unknown key '{unknown[0]}'")
    kwargs = {}
    for name, value in data.items():
        key_path = f"{path}.{name}" if path else name
        # Field annotations are strings: the config modules postpone them.
        if known[name].type == "int" and not _is_int(value):
            raise ConfigError(f"'{key_path}' must be an integer")
        if name == "lidar":
            if not isinstance(value, dict):
                raise ConfigError(f"'{key_path}' must be a mapping")
            value = _build(LidarParams, value, key_path)
        elif name == "bboxes":
            try:
                value = [tuple(float(v) for v in box) for box in value]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"'{key_path}' must be a list of 6-tuples: "
                                  f"{exc}") from exc
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        prefix = f"{path}: " if path else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_dict(data: dict) -> GlobalConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(data) - set(_SECTIONS) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data[name]
            if not isinstance(section, dict):
                raise ConfigError(f"'{name}' must be a mapping")
            kwargs[name] = _build(cls, section, name)
    if "seed" in data:
        if not _is_int(data["seed"]):
            raise ConfigError("'seed' must be an integer")
        kwargs["seed"] = data["seed"]
    return GlobalConfig(**kwargs)


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
