"""YAML config loading for the robot geometry and benchmark specs."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .core import SolverId, check_settings, setting
from .kinematics import KinematicModel
from .registry import make_budget, make_config


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _load_yaml(path):
    # yaml is imported here, where a file is parsed: it is about 15 ms of
    # the package import, which most commands do not need.
    import yaml
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def load_robot(path):
    """Robot geometry file -> KinematicModel.

    Keys: lengths (four mm values d1, d3, d5, d7), optional joint_limits
    (seven [lo, hi] radian pairs) and convention (standard | modified).
    Any other key is a ConfigError.
    """
    data = _load_yaml(path)
    unknown = set(data) - {"lengths", "joint_limits", "convention"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(map(str, unknown))}")
    try:
        return KinematicModel(
            lengths=data["lengths"],
            joint_limits=data.get("joint_limits"),
            convention=data.get("convention", "standard"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def default_model():
    """Unit-length canonical model (h = 1 mm, workspace radius 3 mm)."""
    return KinematicModel()


@dataclass
class BenchmarkSpec:
    """One benchmark campaign: a shared target batch applied to every
    listed algorithm."""
    n_targets: int = setting(100, 1)
    success_threshold: float = setting(1.0, 0, above=True)
    master_seed: int = setting(0, 0)
    algorithms: list = field(default_factory=lambda: list(SolverId))
    repeats_per_target: int = setting(1, 1)
    configs: dict = field(default_factory=dict)   # solver -> override dict
    budgets: dict = field(default_factory=dict)   # solver -> budget dict
    sampler: str = "ball"
    tree_path: str | None = None

    def __post_init__(self):
        check_settings(self, ConfigError)
        self.algorithms = [SolverId(a) for a in self.algorithms]
        repeated = {a.value for a in self.algorithms
                    if self.algorithms.count(a) > 1}
        if repeated:
            raise ConfigError(f"algorithms listed twice: {sorted(repeated)}")
        for section in ("configs", "budgets"):
            table = getattr(self, section)
            if not isinstance(table, Mapping):
                raise ConfigError(f"{section} must map solver ids to settings")
            unknown = set(table) - {s.value for s in SolverId}
            if unknown:
                raise ConfigError(
                    f"{section}: unknown solver ids {sorted(map(str, unknown))}")
            bad = [k for k, v in table.items()
                   if v is not None and not isinstance(v, Mapping)]
            if bad:
                raise ConfigError(
                    f"{section}: entries {sorted(bad)} must be mappings")
            # An empty entry (`ga:` in YAML) means no overrides.
            setattr(self, section, {k: dict(v or {}) for k, v in table.items()})


def load_benchmark_spec(path):
    """Benchmark spec file -> BenchmarkSpec. The keys are BenchmarkSpec's
    field names, except that `tree` sets tree_path; an absent key keeps
    the field's default. Every configs and budgets entry is built here,
    for a listed solver or not, so a bad one fails every command alike."""
    data = _load_yaml(path)
    keys = {f.name: f.name for f in fields(BenchmarkSpec)}
    keys["tree"] = keys.pop("tree_path")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(map(str, unknown))}")
    try:
        spec = BenchmarkSpec(**{keys[k]: v for k, v in data.items()})
        for solver, overrides in spec.configs.items():
            make_config(solver, overrides)
        for solver, overrides in spec.budgets.items():
            make_budget(solver, overrides)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return spec
