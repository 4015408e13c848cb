"""YAML config loading for the robot geometry and benchmark specs."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from .core import SolverId
from .kinematics import KinematicModel


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _load_yaml(path):
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def load_robot(path):
    """Robot geometry file -> (KinematicModel, sampler law).

    Keys: lengths (four mm values d1, d3, d5, d7), optional joint_limits
    (seven [lo, hi] radian pairs), convention (standard | modified),
    sampler (ball | paper).
    """
    data = _load_yaml(path)
    try:
        model = KinematicModel(
            lengths=data["lengths"],
            joint_limits=data.get("joint_limits"),
            convention=data.get("convention", "standard"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sampler = data.get("sampler", "ball")
    if sampler not in ("ball", "paper"):
        raise ConfigError(f"{path}: sampler must be 'ball' or 'paper'")
    return model, sampler


def default_model():
    """Unit-length canonical model (h = 1 mm, workspace radius 3 mm)."""
    return KinematicModel()


@dataclass
class BenchmarkSpec:
    """One benchmark campaign: a shared target batch applied to every
    listed algorithm."""
    n_targets: int = 100
    success_threshold: float = 1.0
    master_seed: int = 0
    algorithms: list = field(default_factory=lambda: list(SolverId))
    repeats_per_target: int = 1
    configs: dict = field(default_factory=dict)   # solver -> override dict
    budgets: dict = field(default_factory=dict)   # solver -> budget dict
    sampler: str = "ball"
    tree_path: str | None = None

    def __post_init__(self):
        if self.n_targets < 1:
            raise ConfigError("n_targets must be >= 1")
        if self.success_threshold <= 0:
            raise ConfigError("success_threshold must be positive")
        if self.repeats_per_target < 1:
            raise ConfigError("repeats_per_target must be >= 1")
        self.algorithms = [SolverId(a) for a in self.algorithms]
        for section, table in (("configs", self.configs),
                               ("budgets", self.budgets)):
            if not isinstance(table, dict):
                raise ConfigError(f"{section} must map solver ids to settings")
            unknown = set(table) - {s.value for s in SolverId}
            if unknown:
                raise ConfigError(
                    f"{section}: unknown solver ids {sorted(map(str, unknown))}")


def load_benchmark_spec(path):
    """Benchmark spec file -> BenchmarkSpec. The keys are BenchmarkSpec's
    field names, except that `tree` sets tree_path; an absent key keeps
    the field's default."""
    data = _load_yaml(path)
    keys = {f.name: f.name for f in fields(BenchmarkSpec)}
    keys["tree"] = keys.pop("tree_path")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return BenchmarkSpec(**{keys[k]: v for k, v in data.items()})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
