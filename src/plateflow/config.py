"""Experiment configuration: flat INI-style file with one section per group.

Values are literal text, and a ; or # after whitespace starts a comment.
Unknown sections, [DEFAULT] among them, or keys are rejected so that typos fail
loudly, and so is a float field that is nan or infinite; every validation error
names the offending field as section.key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .galerkin import FLUID_LOADS, PLATE_LOADS
from .mesh import Grid


class ConfigError(ValueError):
    pass


@dataclass
class ModesConfig:
    m: int = 12
    n: int = 8


@dataclass
class PhysicsConfig:
    nu: float = 1.0
    force: str = "none"            # none | kirchhoff | berger
    force_kappa: float = 1.0
    force_q: float = 2.0
    force_r: float = 0.0
    force_mu: float = 0.0
    force_gamma: float = 0.0
    gf_kind: str = "none"          # none | shear | bump
    gf_amp: float = 0.0
    gpl_kind: str = "none"         # none | sine
    gpl_amp: float = 0.0


@dataclass
class IntegrationConfig:
    dt: float = 1e-3
    T: float = 20.0
    stride: int = 10


@dataclass
class ProbesConfig:
    seed: int = 0


@dataclass
class OutputConfig:
    dir: str = "out"


@dataclass
class ExperimentConfig:
    geometry: Grid = field(default_factory=Grid)
    modes: ModesConfig = field(default_factory=ModesConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    probes: ProbesConfig = field(default_factory=ProbesConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_FORCE_KINDS = ("none", "kirchhoff", "berger")


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        value = target_type(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a {target_type.__name__}, got {raw!r}")
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    return value


def parse_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str    # keys are case sensitive (e.g. integration.T)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:     # a directory, say, or bytes not UTF-8
        raise ConfigError(f"cannot read config file {path}: {getattr(exc, 'strerror', exc)}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    cfg = ExperimentConfig()
    if parser.defaults():       # configparser would copy its keys into every section
        raise ConfigError("unknown config section [DEFAULT]")
    sections = {f.name for f in fields(cfg)}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        current = getattr(cfg, section)
        types = {f.name: type(getattr(current, f.name)) for f in fields(current)}
        values = {}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown config key {section}.{key}")
            values[key] = _coerce(section, key, raw, types[key])
        setattr(cfg, section, replace(current, **values))

    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig):
    g = cfg.geometry
    if g.n_x < 4 or g.n_z < 4:
        raise ConfigError("geometry.n_x and geometry.n_z must be at least 4")
    if g.L_x <= 0 or g.L_z <= 0:
        raise ConfigError("geometry.L_x and geometry.L_z must be positive")
    if cfg.modes.m < 1:
        raise ConfigError("modes.m must be positive")
    if cfg.modes.n < 1:
        raise ConfigError("modes.n must be positive")
    p = cfg.physics
    if p.nu <= 0:
        raise ConfigError("physics.nu must be positive")
    if p.force not in _FORCE_KINDS:
        raise ConfigError(f"physics.force must be one of {_FORCE_KINDS}")
    if p.gf_kind not in FLUID_LOADS:
        raise ConfigError(f"physics.gf_kind must be one of {FLUID_LOADS}")
    if p.gpl_kind not in PLATE_LOADS:
        raise ConfigError(f"physics.gpl_kind must be one of {PLATE_LOADS}")
    if p.force == "kirchhoff" and not p.force_q > p.force_r >= 0:
        raise ConfigError("physics.force_q must exceed physics.force_r >= 0")
    i = cfg.integration
    if i.dt <= 0:
        raise ConfigError("integration.dt must be positive")
    if i.T < 0:
        raise ConfigError("integration.T must be nonnegative")
    if i.stride < 1:
        raise ConfigError("integration.stride must be at least 1")
    if cfg.probes.seed < 0:
        raise ConfigError("probes.seed must be nonnegative")
