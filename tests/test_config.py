import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import arm7ik
from arm7ik import ConfigError
from arm7ik.config import (BenchmarkSpec, default_model, load_benchmark_spec,
                           load_robot)
from arm7ik.core import SolverId


def test_importing_the_package_leaves_yaml_unimported():
    # yaml is imported where a config file is parsed, not with the package.
    src = str(Path(arm7ik.__file__).resolve().parents[1])
    code = "import sys, arm7ik, arm7ik.cli; print('yaml' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestRobotConfig:
    def test_loads_geometry(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text(
            "lengths: [0.36, 0.42, 0.4, 0.126]\n"
            "convention: modified\n")
        model = load_robot(path)
        assert model.lengths == (0.36, 0.42, 0.4, 0.126)
        assert model.convention == "modified"
        assert model.workspace.h == pytest.approx(0.36)

    def test_joint_limits_round_trip(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text(
            "lengths: [1, 1, 1, 1]\n"
            "joint_limits: [[-1, 1], [-1, 1], [-1, 1], [-1, 1],"
            " [-1, 1], [-1, 1], [-1, 1]]\n")
        model = load_robot(path)
        assert model.upper.tolist() == [1.0] * 7

    def test_missing_lengths_rejected(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text("convention: standard\n")
        with pytest.raises(ConfigError):
            load_robot(path)

    def test_bad_sampler_rejected(self, tmp_path):
        # The sampler law belongs to the benchmark spec and to `sample
        # --sampler`; in a robot file any sampler is an unknown key.
        path = tmp_path / "robot.yaml"
        for law in ("paper", "ball", "cube"):
            path.write_text(f"lengths: [1, 1, 1, 1]\nsampler: {law}\n")
            with pytest.raises(ConfigError, match="sampler"):
                load_robot(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text("lengths: [1, 1, 1, 1]\nconvnetion: modified\n")
        with pytest.raises(ConfigError, match="convnetion"):
            load_robot(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            load_robot(path)

    def test_default_model_is_unit_scale(self):
        model = default_model()
        assert model.lengths == (1.0, 1.0, 1.0, 1.0)
        assert model.workspace.r == 3.0
        assert model.upper.tolist() == [math.pi] * 7


class TestBenchmarkSpec:
    def test_defaults_cover_all_algorithms(self):
        spec = BenchmarkSpec()
        assert spec.algorithms == list(SolverId)
        assert spec.n_targets == 100
        assert spec.success_threshold == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(n_targets=0)
        with pytest.raises(ConfigError):
            BenchmarkSpec(success_threshold=0.0)
        with pytest.raises(ValueError):
            BenchmarkSpec(algorithms=["warp"])

    @pytest.mark.parametrize("fields", [
        {"configs": {"ga": [1, 2]}}, {"budgets": {"nr": 3}},
        {"success_threshold": math.nan}, {"success_threshold": math.inf},
        {"success_threshold": "1"}, {"n_targets": 2.5},
        {"repeats_per_target": 1.5}, {"repeats_per_target": 0},
        {"master_seed": -1}, {"master_seed": 0.5},
        {"algorithms": ["nr", "nr"]}])
    def test_malformed_fields_rejected(self, fields):
        with pytest.raises(ConfigError):
            BenchmarkSpec(**fields)
        # dataclasses.replace, as a sweep builds its campaigns, goes
        # through the same checks.
        with pytest.raises(ConfigError):
            replace(BenchmarkSpec(), **fields)

    def test_empty_entry_means_no_overrides(self):
        spec = BenchmarkSpec(configs={"ga": None}, budgets={"ga": None})
        assert spec.configs == {"ga": {}}
        assert spec.budgets == {"ga": {}}

    def test_loads_yaml(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text(
            "n_targets: 5\n"
            "master_seed: 3\n"
            "algorithms: [nr, ga]\n"
            "configs:\n  ga: {population_size: 10}\n"
            "budgets:\n  ga: {max_iterations: 10}\n")
        spec = load_benchmark_spec(path)
        assert spec.n_targets == 5
        assert spec.algorithms == [SolverId.NR, SolverId.GA]
        assert spec.configs["ga"]["population_size"] == 10

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text("n_targets: 5\nturbo: true\n")
        with pytest.raises(ConfigError):
            load_benchmark_spec(path)
        path.write_text("n_targets: 5\n1: 2\nturbo: true\n")
        with pytest.raises(ConfigError, match="turbo"):
            load_benchmark_spec(path)
