import math

import pytest

from arm7ik import ConfigError
from arm7ik.config import (BenchmarkSpec, default_model, load_benchmark_spec,
                           load_robot)
from arm7ik.core import SolverId


class TestRobotConfig:
    def test_loads_geometry_and_sampler(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text(
            "lengths: [0.36, 0.42, 0.4, 0.126]\n"
            "convention: standard\n"
            "sampler: paper\n")
        model, sampler = load_robot(path)
        assert model.lengths == (0.36, 0.42, 0.4, 0.126)
        assert sampler == "paper"
        assert model.workspace.h == pytest.approx(0.36)

    def test_joint_limits_round_trip(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text(
            "lengths: [1, 1, 1, 1]\n"
            "joint_limits: [[-1, 1], [-1, 1], [-1, 1], [-1, 1],"
            " [-1, 1], [-1, 1], [-1, 1]]\n")
        model, _ = load_robot(path)
        assert model.upper.tolist() == [1.0] * 7

    def test_missing_lengths_rejected(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text("convention: standard\n")
        with pytest.raises(ConfigError):
            load_robot(path)

    def test_bad_sampler_rejected(self, tmp_path):
        path = tmp_path / "robot.yaml"
        path.write_text("lengths: [1, 1, 1, 1]\nsampler: cube\n")
        with pytest.raises(ConfigError):
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
