import csv
import json

import numpy as np
import pytest

from arm7ik.cli import EXIT_CONFIG, EXIT_MISSING_FILE, EXIT_OK, build_parser, main
import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = ["fk", "sample", "solve", "dataset", "train", "evaluate",
               "sweep", "bench", "report"]


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, name):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0

    def test_unknown_algorithm_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["solve", "--algo", "warp",
                                       "--target", "0,0,1"])
        assert exc.value.code == 2


class TestFk:
    def test_matches_the_matrix_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "fk", "--joints",
                               "0.3,-0.2,0.5,0.1,-0.4,0.2,0.6")
        assert code == EXIT_OK
        got = np.array([float(v) for v in out.strip().split(",")])
        q = [0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.6]
        assert np.allclose(got, oracles.fk_position(q), atol=1e-10)

    def test_wrong_arity_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "fk", "--joints", "1,2,3")
        assert code == EXIT_CONFIG
        assert "error" in err

    def test_custom_geometry_config(self, capsys, tmp_path):
        robot = tmp_path / "robot.yaml"
        robot.write_text("lengths: [0.36, 0.42, 0.4, 0.126]\n")
        code, out, _ = run_cli(capsys, "fk", "--config", str(robot),
                               "--joints", "0,0,0,0,0,0,0")
        assert code == EXIT_OK
        got = np.array([float(v) for v in out.strip().split(",")])
        expected = oracles.fk_position(np.zeros(7), (0.36, 0.42, 0.4, 0.126))
        assert np.allclose(got, expected, atol=1e-12)

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "fk", "--config", "/nope/robot.yaml",
                             "--joints", "0,0,0,0,0,0,0")
        assert code == EXIT_MISSING_FILE


class TestSample:
    def test_count_and_membership(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--count", "20", "--seed", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            x, y, z = (float(v) for v in line.split(","))
            assert x * x + y * y + (z - 1.0) ** 2 <= 9.0 + 1e-12

    def test_seed_controls_the_draw(self, capsys):
        _, a, _ = run_cli(capsys, "sample", "--count", "5", "--seed", "1")
        _, b, _ = run_cli(capsys, "sample", "--count", "5", "--seed", "1")
        _, c, _ = run_cli(capsys, "sample", "--count", "5", "--seed", "2")
        assert a == b
        assert a != c


class TestSolve:
    def test_same_invocation_twice_is_identical(self, capsys):
        args = ("solve", "--algo", "pso", "--target", "0.5,0.5,1.0",
                "--seed", "7", "--max-iterations", "40")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == EXIT_OK
        a, b = json.loads(out_a), json.loads(out_b)
        a.pop("elapsed_s"), b.pop("elapsed_s")  # wall clock is machine-bound
        assert a == b
        payload = json.loads(out_a)
        assert payload["algorithm"] == "pso"
        assert len(payload["joints"]) == 7

    def test_config_overrides_flow_through(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--algo", "ga",
                               "--target", "0.5,0.5,1.0", "--seed", "1",
                               "--opt", "population_size=5",
                               "--max-iterations", "5")
        assert code == EXIT_OK
        assert json.loads(out)["iterations_used"] <= 5

    def test_max_iterations_is_the_only_cap(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--algo", "pso",
                               "--target", "0.5,0.5,1.0",
                               "--max-iterations", "250",
                               "--tolerance", "1e-300")
        assert code == EXIT_OK
        assert json.loads(out)["iterations_used"] == 250

    def test_zero_max_iterations_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "nr",
                               "--target", "0.5,0.5,1.0",
                               "--max-iterations", "0")
        assert code == EXIT_CONFIG
        assert "max_iterations" in err

    def test_non_finite_target_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "nr",
                               "--target", "nan,0,1")
        assert code == EXIT_CONFIG
        assert "finite" in err

    def test_unknown_override_key_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "ga",
                               "--target", "0.5,0.5,1.0",
                               "--opt", "warp_speed=9")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("algo, opt", [
        ("ga", "elitism_count=7"),
        ("de", "population_size=3"),
        ("de", "mutation_probability=-1"),
        ("qpso", "num_particles=1"),
        ("afsa", "population_size=0"),
        ("sa", "max_stay_counter=0"),
    ])
    def test_removed_or_out_of_range_option_is_a_config_error(
            self, capsys, algo, opt):
        code, _, err = run_cli(capsys, "solve", "--algo", algo,
                               "--target", "0.5,0.5,1.0", "--opt", opt)
        assert code == EXIT_CONFIG
        assert opt.split("=")[0] in err

    def test_dtnr_without_tree_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "dtnr",
                               "--target", "0.5,0.5,1.0")
        assert code == EXIT_CONFIG
        assert "tree" in err

    def test_trace_file_is_written(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "solve", "--algo", "nr",
                             "--target", "0.5,0.5,1.0", "--seed", "2",
                             "--trace", str(trace))
        assert code == EXIT_OK
        assert trace.read_text().startswith("iteration,fitness_mm,elapsed_s")


class TestMlPipeline:
    def test_dataset_train_evaluate_and_dtnr_solve(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        tree = tmp_path / "tree.json"

        code, out, _ = run_cli(capsys, "dataset", "--count", "400",
                               "--out", str(data), "--seed", "5")
        assert code == EXIT_OK
        assert "400 rows" in out

        code, out, _ = run_cli(capsys, "train", "--model", "tree",
                               "--data", str(data), "--out", str(tree),
                               "--seed", "5")
        assert code == EXIT_OK
        metrics = json.loads(out)
        assert metrics["rows_train"] == 300
        assert metrics["rows_test"] == 100

        code, out, _ = run_cli(capsys, "evaluate", "--model-file", str(tree),
                               "--data", str(data))
        assert code == EXIT_OK
        assert "average_fitness_mm" in json.loads(out)

        code, out, _ = run_cli(capsys, "solve", "--algo", "dtnr",
                               "--target", "0.4,0.3,1.2",
                               "--tree", str(tree))
        assert code == EXIT_OK
        assert json.loads(out)["algorithm"] == "dtnr"

    def test_linear_and_poly_variants(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        run_cli(capsys, "dataset", "--count", "300", "--out", str(data))
        for name, extra in (("linear", []), ("poly", ["--degree", "2"])):
            out_file = tmp_path / f"{name}.json"
            code, _, _ = run_cli(capsys, "train", "--model", name,
                                 "--data", str(data), "--out", str(out_file),
                                 *extra)
            assert code == EXIT_OK
            assert out_file.exists()

    def test_poly_degree_zero_is_a_config_error(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        code, _, err = run_cli(capsys, "train", "--model", "poly",
                               "--data", str(data),
                               "--out", str(tmp_path / "poly.json"),
                               "--degree", "0")
        assert code == EXIT_CONFIG
        assert "degree must be >= 1" in err

    def test_missing_dataset_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "train", "--model", "linear",
                             "--data", str(tmp_path / "absent.csv"),
                             "--out", str(tmp_path / "m.json"))
        assert code == EXIT_MISSING_FILE

    @pytest.mark.parametrize("flag, value", [("--min-leaf", "0"),
                                             ("--max-depth", "-1")])
    def test_bad_tree_hyperparameter_is_a_config_error(self, capsys,
                                                       tmp_path, flag, value):
        data = tmp_path / "data.csv"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        code, _, err = run_cli(capsys, "train", "--model", "tree",
                               "--data", str(data),
                               "--out", str(tmp_path / "tree.json"),
                               flag, value)
        assert code == EXIT_CONFIG
        assert flag.lstrip("-").replace("-", "_") in err

    def test_version_1_tree_file_is_a_config_error(self, capsys, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "format": "arm7ik-model", "version": 1, "kind": "tree",
            "max_depth_used": 0, "root": {"leaf": [0.0] * 7}}))
        code, _, err = run_cli(capsys, "solve", "--algo", "dtnr",
                               "--target", "0.4,0.3,1.2", "--tree", str(tree))
        assert code == EXIT_CONFIG
        assert "re-train" in err


class TestBenchAndReport:
    def test_bench_then_independent_reaggregation(self, capsys, tmp_path):
        spec = tmp_path / "bench.yaml"
        spec.write_text(
            "n_targets: 2\n"
            "master_seed: 1\n"
            "algorithms: [nr, ccd]\n"
            "budgets:\n  ccd: {max_iterations: 30}\n")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec),
                               "--out", str(out_dir))
        assert code == EXIT_OK
        with open(out_dir / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + two algorithms
        assert rows[0][0] == "algorithm"

        redone = tmp_path / "report2.csv"
        code, _, _ = run_cli(capsys, "report",
                             "--runs", str(out_dir / "runs.jsonl"),
                             "--out", str(redone))
        assert code == EXIT_OK
        with open(redone, newline="") as fh:
            rows2 = list(csv.reader(fh))
        assert rows2 == rows

    def test_bad_spec_yaml_is_a_config_error(self, capsys, tmp_path):
        spec = tmp_path / "bench.yaml"
        spec.write_text("algorithms: [hyperdrive]\n")
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec),
                             "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("section,key", [("configs", "generations"),
                                             ("budgets", "max_iter")])
    def test_unknown_spec_key_is_a_config_error(self, capsys, tmp_path,
                                                section, key):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [nr, ga]\n"
                        f"{section}:\n  ga: {{{key}: 5}}\n")
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec),
                               "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["configs", "budgets"])
    def test_unknown_solver_key_is_a_config_error(self, capsys, tmp_path,
                                                  section):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [ga]\n"
                        f"{section}:\n  gaa: {{max_iterations: 3}}\n")
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec),
                               "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "gaa" in err
        assert not (tmp_path / "o").exists()

    def test_sweep_command(self, capsys, tmp_path):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [ga]\n")
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--algo", "ga",
                               "--param", "population_size", "--grid", "5,10",
                               "--repeats", "1", "--spec", str(spec),
                               "--out", str(out_csv))
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["population_size", "best_fitness_mm",
                           "best2_time_mean_s"]
        assert len(rows) == 3
