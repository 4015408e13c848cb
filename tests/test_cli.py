import base64
import csv
import json
import warnings

import numpy as np
import pytest

from arm7ik import KinematicModel, default_model, sample_workspace_batch
from arm7ik.cli import EXIT_CONFIG, EXIT_MISSING_FILE, EXIT_OK, build_parser, main
from arm7ik.ml import fit_polynomial, fit_tree, generate_dataset, save_model
import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each subcommand's required flags; parsing them reads no file.
REQUIRED = {
    "fk": ["--joints", "0,0,0,0,0,0,0"],
    "sample": [],
    "solve": ["--algo", "nr", "--target", "0,0,1"],
    "dataset": ["--count", "1", "--out", "d.csv"],
    "train": ["--model", "tree", "--data", "d.csv", "--out", "t.json"],
    "evaluate": ["--model-file", "t.json", "--data", "d.csv"],
    "sweep": ["--algo", "ga", "--param", "population_size", "--grid", "5",
              "--spec", "s.yaml"],
    "bench": ["--spec", "s.yaml", "--out", "o"],
    "report": ["--runs", "r.jsonl", "--out", "r.csv"],
}
SUBCOMMANDS = list(REQUIRED)


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, name):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    @pytest.mark.parametrize("flag, value, read_by", [
        ("--seed", 5, {"sample", "solve", "dataset", "train"}),
        ("--config", "robot.yaml", set(SUBCOMMANDS) - {"report"})])
    def test_seed_and_config_are_taken_only_where_read(self, name, flag,
                                                       value, read_by):
        argv = [name, *REQUIRED[name], flag, str(value)]
        if name in read_by:
            args = build_parser().parse_args(argv)
            assert getattr(args, flag[2:]) == value
            return
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_joint_is_a_config_error(self, capsys, bad):
        code, out, err = run_cli(capsys, "fk", "--joints",
                                 f"1,2,3,4,5,6,{bad}")
        assert code == EXIT_CONFIG
        assert "--joints values must be finite" in err
        assert out == ""

    def test_custom_geometry_config(self, capsys, tmp_path):
        robot = tmp_path / "robot.yaml"
        robot.write_text("lengths: [0.36, 0.42, 0.4, 0.126]\n")
        code, out, _ = run_cli(capsys, "fk", "--config", str(robot),
                               "--joints", "0,0,0,0,0,0,0")
        assert code == EXIT_OK
        got = np.array([float(v) for v in out.strip().split(",")])
        expected = oracles.fk_position(np.zeros(7), (0.36, 0.42, 0.4, 0.126))
        assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("robot, command", [
        ("lengths: [.nan, 1, 1, 1]\n", "fk"),
        ("lengths: [.inf, 1, 1, 1]\n", "fk"),
        ("lengths: [1, 1, 1, 1]\njoint_limits: [[.nan, 1]"
         + ", [-1, 1]" * 6 + "]\n", "solve"),
        ("lengths: [1, 1, 1, 1]\njoint_limits: [[-1, .nan]"
         + ", [-1, 1]" * 6 + "]\n", "solve"),
    ], ids=["nan-length", "inf-length", "nan-lower-limit", "nan-upper-limit"])
    def test_non_finite_geometry_is_a_config_error(self, capsys, tmp_path,
                                                   robot, command):
        path = tmp_path / "robot.yaml"
        path.write_text(robot)
        args = {"fk": ("fk", "--joints", "0,0,0,0,0,0,0"),
                "solve": ("solve", "--algo", "pso",
                          "--target", "0.5,0.5,1.0")}[command]
        code, out, _ = run_cli(capsys, *args, "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""

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

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_a_config_error(self, capsys, count):
        code, out, err = run_cli(capsys, "sample", "--count", count)
        assert code == EXIT_CONFIG
        assert "--count must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("sampler", ["ball", "paper"])
    def test_blocks_print_the_rows_of_one_draw(self, capsys, monkeypatch,
                                               sampler):
        rows = sample_workspace_batch(default_model().workspace,
                                      np.random.default_rng(4), 20, sampler)
        want = "".join(",".join(repr(float(v)) for v in p) + "\n"
                       for p in rows)
        monkeypatch.setattr("arm7ik.cli.SAMPLE_ROWS", 3)
        code, out, _ = run_cli(capsys, "sample", "--count", "20", "--seed",
                               "4", "--sampler", sampler)
        assert code == EXIT_OK
        assert out == want

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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0"])
    def test_bad_tolerance_is_a_config_error(self, capsys, tolerance):
        code, _, err = run_cli(capsys, "solve", "--algo", "nr",
                               "--target", "0.5,0.5,1.5",
                               f"--tolerance={tolerance}")
        assert code == EXIT_CONFIG
        assert "tolerance" in err

    def test_non_finite_target_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "nr",
                               "--target", "nan,0,1")
        assert code == EXIT_CONFIG
        assert "finite" in err

    @pytest.mark.parametrize("target", ["0,inf,1", "0,0,-inf", "nan,nan,nan"])
    def test_target_is_checked_before_solving(self, capsys, target):
        code, out, err = run_cli(capsys, "solve", "--algo", "pso",
                                 "--target", target)
        assert code == EXIT_CONFIG
        assert "--target values must be finite" in err
        assert out == ""

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
        ("ccd", "sweep_order=base_to_tip"),
        ("ccd", "per_joint_tolerance=NaN"),
        ("ccd", "per_joint_tolerance=-1"),
        ("ccd", "loop_guard=-1"),
        ("nm", "initial_simplex_scale=0"),
        ("nm", "initial_simplex_scale=Infinity"),
        ("nm", "reflection=NaN"),
        ("pso", "inertia=NaN"),
        ("pso", "num_particles=20.0"),
        ("qpso", "num_particles=true"),
        ("nm", 'reflection="x"'),
        ("afsa", "max_attempt_size=-3"),
        ("sa", "paper_literal_acceptance=3"),
    ])
    def test_removed_or_out_of_range_option_is_a_config_error(
            self, capsys, algo, opt):
        code, _, err = run_cli(capsys, "solve", "--algo", algo,
                               "--target", "0.5,0.5,1.0", "--opt", opt)
        assert code == EXIT_CONFIG
        assert opt.split("=")[0] in err

    def test_float_too_large_for_a_double_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algo", "pso",
                               "--target", "0.5,0.5,1", "--opt",
                               "inertia=1" + "0" * 400)
        assert code == EXIT_CONFIG
        assert "inertia must be a finite number" in err

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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_a_config_error(self, capsys, tmp_path,
                                                noise):
        data = tmp_path / "data.csv"
        code, _, err = run_cli(capsys, "dataset", "--count", "200",
                               "--noise", noise, "--out", str(data))
        assert code == EXIT_CONFIG
        assert "noise_amplitude" in err
        assert not data.exists()

    @pytest.mark.parametrize("rows, fraction", [(2, "0.25"), (300, "0.001")])
    def test_a_split_with_an_empty_test_set_writes_no_model(
            self, capsys, tmp_path, rows, fraction):
        data = tmp_path / "data.csv"
        out_file = tmp_path / "tree.json"
        run_cli(capsys, "dataset", "--count", str(rows), "--out", str(data))
        code, out, err = run_cli(capsys, "train", "--model", "tree",
                                 "--data", str(data), "--out", str(out_file),
                                 "--test-fraction", fraction)
        assert code == EXIT_CONFIG
        assert err == (f"error: test_fraction {fraction} of {rows} rows "
                       f"leaves the test set empty\n")
        assert out == ""
        assert not out_file.exists()

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

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("degree"),
        lambda d: d.update(degree="x"),
        lambda d: d.update(weights=d["weights"][:-1]),
        lambda d: d.update(version=99),
    ], ids=["no-degree", "string-degree", "short-weights", "version-99"])
    def test_malformed_polynomial_file_is_a_config_error(self, capsys,
                                                         tmp_path, damage):
        data = tmp_path / "data.csv"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        path = tmp_path / "poly.json"
        run_cli(capsys, "train", "--model", "poly", "--degree", "2",
                "--data", str(data), "--out", str(path))
        d = json.loads(path.read_text())
        damage(d)
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "evaluate", "--model-file",
                                 str(path), "--data", str(data))
        assert code == EXIT_CONFIG
        assert "polynomial model" in err
        assert out == ""

    def test_missing_config_fails_before_the_fit(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        out_file = tmp_path / "tree.json"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        code, out, err = run_cli(capsys, "train", "--model", "tree",
                                 "--data", str(data), "--out", str(out_file),
                                 "--config", str(tmp_path / "nope.yaml"))
        assert code == EXIT_MISSING_FILE
        assert "nope.yaml" in err
        assert out == ""
        assert not out_file.exists()

    def test_unwritable_out_fails_before_the_fit(self, capsys, tmp_path,
                                                monkeypatch):
        data = tmp_path / "data.csv"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        monkeypatch.setattr("arm7ik.ml.fit_tree", None)  # a fit would raise
        code, out, err = run_cli(capsys, "train", "--model", "tree",
                                 "--data", str(data),
                                 "--out", str(tmp_path / "nope" / "t.json"))
        assert code == EXIT_MISSING_FILE
        assert "nope" in err and "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "nope").exists()
        code, out, err = run_cli(capsys, "train", "--model", "tree",
                                 "--data", str(data), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "is a directory" in err and out == ""

    def test_missing_dataset_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "train", "--model", "linear",
                             "--data", str(tmp_path / "absent.csv"),
                             "--out", str(tmp_path / "m.json"))
        assert code == EXIT_MISSING_FILE

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_header_only_data_is_a_config_error(self, capsys, tmp_path,
                                                command):
        data = tmp_path / "data.csv"
        tree = tmp_path / "tree.json"
        run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
        run_cli(capsys, "train", "--model", "tree", "--data", str(data),
                "--out", str(tree))
        empty = tmp_path / "empty.csv"
        empty.write_bytes(data.read_bytes().splitlines(keepends=True)[0])
        argv = {"train": ["train", "--model", "tree",
                          "--out", str(tmp_path / "new.json")],
                "evaluate": ["evaluate", "--model-file", str(tree)]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--data", str(empty))
        assert code == EXIT_CONFIG
        assert err == f"error: {empty} holds no data rows\n"
        assert out == ""
        assert [str(w.message) for w in caught] == []

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

    @pytest.mark.parametrize("line", ['{"algorithm": "nr"}', "[1, 2]"],
                             ids=["missing-field", "not-an-object"])
    def test_malformed_runs_line_is_a_config_error(self, capsys, tmp_path,
                                                   line):
        runs = tmp_path / "runs.jsonl"
        good = {"algorithm": "nr", "final_fitness": 0.1, "elapsed_s": 0.01,
                "iterations_used": 3, "success": True, "trace": []}
        runs.write_text(json.dumps(good) + "\n" + line + "\n")
        out_file = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "report", "--runs", str(runs),
                                 "--out", str(out_file))
        assert code == EXIT_CONFIG
        assert "line 2 is not a JSON object holding" in err
        assert "final_fitness" in err and "Traceback" not in err
        assert out == ""
        assert not out_file.exists()

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

    @pytest.mark.parametrize("text, key", [
        ("algorithms: [ga]\nconfigs:\n  ga: [1, 2]\n", "configs"),
        ("algorithms: [ga]\nbudgets:\n  ga: [1, 2]\n", "budgets"),
        ("algorithms: [ga]\n1: 2\nturbo: true\n", "turbo"),
        ("algorithms: [ga]\nsuccess_threshold: .nan\n", "success_threshold"),
        ("algorithms: [ga]\nsuccess_threshold: .inf\n", "success_threshold"),
        ("algorithms: [ga]\nn_targets: 2.5\n", "n_targets"),
        ("algorithms: [ga]\nrepeats_per_target: 1.5\n", "repeats_per_target"),
        ("algorithms: [ga]\nmaster_seed: 1.5\n", "master_seed"),
        ("algorithms: [nr, ga, nr]\n", "nr"),
        # PyYAML reads 1e-3, with no dot, as a string.
        ("algorithms: [de]\nconfigs:\n  de: {mutation_probability: 1e-3}\n",
         "mutation_probability"),
    ], ids=["config-entry", "budget-entry", "mixed-type-keys", "nan-threshold",
            "inf-threshold", "float-n-targets", "float-repeats", "float-seed",
            "repeated-algorithm", "string-config-value"])
    def test_malformed_spec_is_a_config_error(self, capsys, tmp_path, text,
                                              key):
        spec = tmp_path / "bench.yaml"
        spec.write_text(text)
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec),
                               "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, entry, message", [
        ("configs", "ga: {popsize: 3}", "unknown ga config keys: ['popsize']"),
        ("budgets", "ga: {max_iter: 3}", "bad ga budget {'max_iter': 3}"),
    ])
    def test_entry_for_an_unlisted_solver_fails_bench_and_sweep_alike(
            self, capsys, tmp_path, section, entry, message):
        spec = tmp_path / "bench.yaml"
        spec.write_text(f"n_targets: 1\nalgorithms: [nr]\n{section}:\n"
                        f"  {entry}\n")
        bench = run_cli(capsys, "bench", "--spec", str(spec),
                        "--out", str(tmp_path / "o"))
        sweep = run_cli(capsys, "sweep", "--algo", "ga",
                        "--param", "population_size", "--grid", "5",
                        "--repeats", "1", "--spec", str(spec))
        assert bench == sweep
        code, out, err = bench
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {spec}: {message}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_empty_config_entry_means_no_overrides(self, capsys, tmp_path):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [ga]\nconfigs:\n  ga:\n"
                        "budgets:\n  ga:\n")
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec),
                             "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "sweep", "--algo", "ga",
                               "--param", "population_size", "--grid", "5",
                               "--repeats", "1", "--spec", str(spec))
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1

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


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A small trained tree and a linear model, saved as model files."""
    out = tmp_path_factory.mktemp("models")
    data = generate_dataset(KinematicModel(), 300, seed=4)
    save_model(fit_tree(data), out / "tree.json")
    save_model(fit_polynomial(data, 1), out / "lin.json")
    return out


class TestTreeFiles:
    """solve, bench and sweep load the tree one way: --tree, else the
    spec's `tree:`; a model file that is not a tree is exit 3."""

    DTNR_SPEC = "n_targets: 1\nalgorithms: [dtnr]\n"
    SWEEP = ("sweep", "--algo", "dtnr", "--param", "refine_joint_count",
             "--grid", "3,7", "--repeats", "1")

    def test_sweep_honours_the_spec_tree(self, capsys, tmp_path, model_files):
        spec = tmp_path / "bench.yaml"
        spec.write_text(f"{self.DTNR_SPEC}tree: {model_files / 'tree.json'}\n")
        code, out, _ = run_cli(capsys, *self.SWEEP, "--spec", str(spec))
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    def test_bench_honours_the_spec_tree(self, capsys, tmp_path, model_files):
        spec = tmp_path / "bench.yaml"
        spec.write_text(f"{self.DTNR_SPEC}tree: {model_files / 'tree.json'}\n")
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec),
                               "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        assert out.startswith("dtnr")

    def test_dtnr_takes_nr_settings_by_their_own_names(self, capsys,
                                                       model_files):
        solve = ("solve", "--algo", "dtnr", "--target", "0.4,0.3,1.2",
                 "--tree", str(model_files / "tree.json"))
        code, out, _ = run_cli(capsys, *solve, "--opt", "damping=0.05")
        assert code == EXIT_OK
        assert json.loads(out)["algorithm"] == "dtnr"
        code, _, err = run_cli(capsys, *solve, "--opt", "newton=5")
        assert code == EXIT_CONFIG
        assert "newton" in err

    @pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
    def test_tree_flag_naming_a_linear_model_is_a_config_error(
            self, capsys, tmp_path, model_files, command):
        spec = tmp_path / "bench.yaml"
        spec.write_text(self.DTNR_SPEC)
        args = {"solve": ("solve", "--algo", "dtnr", "--target", "0.4,0.3,1.2"),
                "bench": ("bench", "--spec", str(spec),
                          "--out", str(tmp_path / "o")),
                "sweep": (*self.SWEEP, "--spec", str(spec))}[command]
        code, _, err = run_cli(capsys, *args,
                               "--tree", str(model_files / "lin.json"))
        assert code == EXIT_CONFIG
        assert "not a regression tree" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_spec_tree_naming_a_linear_model_is_a_config_error(
            self, capsys, tmp_path, model_files, command):
        spec = tmp_path / "bench.yaml"
        spec.write_text(f"{self.DTNR_SPEC}tree: {model_files / 'lin.json'}\n")
        args = {"bench": ("bench", "--out", str(tmp_path / "o")),
                "sweep": self.SWEEP}[command]
        code, _, err = run_cli(capsys, *args, "--spec", str(spec))
        assert code == EXIT_CONFIG
        assert "not a regression tree" in err

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d.update(leaf_value=base64.b64encode(
            np.full(len(base64.b64decode(d["leaf_value"])) // 8, np.nan)
            .astype("<f8").tobytes()).decode("ascii")), "leaf_value"),
        (lambda d: d.update(max_depth_used=None), "max_depth_used"),
    ], ids=["nan-leaves", "null-depth"])
    def test_tree_file_with_bad_numbers_is_a_config_error(
            self, capsys, tmp_path, model_files, damage, message):
        d = json.loads((model_files / "tree.json").read_text())
        damage(d)
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "solve", "--algo", "dtnr", "--target",
                                 "0.4,0.3,1.2", "--tree", str(tree))
        assert code == EXIT_CONFIG
        assert message in err
        assert out == ""


@pytest.mark.parametrize("model", ["tree", "poly", "linear"])
def test_training_on_a_non_finite_cell_is_a_config_error(capsys, tmp_path,
                                                         model):
    data = tmp_path / "data.csv"
    run_cli(capsys, "dataset", "--count", "200", "--out", str(data))
    lines = data.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
    data.write_text("\n".join(lines) + "\n")
    out_file = tmp_path / "model.json"
    code, out, err = run_cli(capsys, "train", "--model", model,
                             "--data", str(data), "--out", str(out_file))
    assert code == EXIT_CONFIG
    assert "data row 5 (line 6)" in err
    assert out == ""
    assert not out_file.exists()


class TestOutputPathsCheckedFirst:
    """Each command refuses a bad output path before it does any work:
    the work's entry point is replaced by None, which would raise if it
    ran, and nothing is printed or written."""

    def test_bench_out_naming_a_file(self, capsys, tmp_path, monkeypatch):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [nr]\n")
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        monkeypatch.setattr("arm7ik.bench.run_benchmark", None)
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec),
                                 "--out", str(taken))
        assert code == EXIT_CONFIG
        assert "is not a directory" in err and "Traceback" not in err
        assert out == "" and taken.read_text() == "keep\n"

    def test_solve_trace_naming_a_directory(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr("arm7ik.cli.run_solver", None)
        code, out, err = run_cli(capsys, "solve", "--algo", "nr",
                                 "--target", "0.5,0.5,1.0",
                                 "--trace", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "--trace" in err and "is a directory" in err
        assert out == ""
        code, out, err = run_cli(capsys, "solve", "--algo", "nr",
                                 "--target", "0.5,0.5,1.0",
                                 "--trace", str(tmp_path / "no" / "t.csv"))
        assert code == EXIT_MISSING_FILE and out == ""

    def test_dataset_out_naming_a_directory(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr("arm7ik.ml.generate_dataset", None)
        code, out, err = run_cli(capsys, "dataset", "--count", "10",
                                 "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "is a directory" in err and out == ""
        code, out, err = run_cli(capsys, "dataset", "--count", "10",
                                 "--out", str(tmp_path / "no" / "d.csv"))
        assert code == EXIT_MISSING_FILE and out == ""
        assert not (tmp_path / "no").exists()

    def test_report_out_naming_a_directory(self, capsys, tmp_path,
                                           monkeypatch):
        runs = tmp_path / "runs.jsonl"
        runs.write_text("")
        monkeypatch.setattr("arm7ik.bench.load_runs_jsonl", None)
        code, out, err = run_cli(capsys, "report", "--runs", str(runs),
                                 "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "is a directory" in err and out == ""

    def test_sweep_out_in_a_missing_folder(self, capsys, tmp_path,
                                           monkeypatch):
        spec = tmp_path / "bench.yaml"
        spec.write_text("n_targets: 1\nalgorithms: [ga]\n")
        monkeypatch.setattr("arm7ik.bench.sweep_parameter", None)
        code, out, err = run_cli(capsys, "sweep", "--algo", "ga",
                                 "--param", "population_size",
                                 "--grid", "5,10", "--repeats", "1",
                                 "--spec", str(spec),
                                 "--out", str(tmp_path / "no" / "s.csv"))
        assert code == EXIT_MISSING_FILE
        assert "no" in err and out == ""
        assert not (tmp_path / "no").exists()


# Each input flag, with a command that reads it first; "{tmp}" is the
# test's folder.
INPUT_FLAGS = {
    "--config": ["fk", "--joints", "0,0,0,0,0,0,0"],
    "--spec": ["bench", "--out", "{tmp}/bench"],
    "--tree": ["solve", "--algo", "dtnr", "--target", "0.4,0.3,1.2"],
    "--data": ["train", "--model", "tree", "--out", "{tmp}/t.json"],
    "--model-file": ["evaluate", "--data", "{tmp}/d.csv"],
    "--runs": ["report", "--out", "{tmp}/r.csv"],
}


class TestInputPaths:
    """An input path that names a directory is a config error (exit 3)
    and one that does not exist or runs through a regular file is a
    missing file (exit 4), each told in one `error:` line naming the bare
    path, not a traceback."""

    @staticmethod
    def run_flag(capsys, tmp_path, flag, path):
        argv = [a.format(tmp=tmp_path) for a in INPUT_FLAGS[flag]]
        return run_cli(capsys, *argv, flag, str(path))

    @pytest.mark.parametrize("flag", list(INPUT_FLAGS))
    def test_directory_is_a_config_error(self, capsys, tmp_path, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        code, out, err = self.run_flag(capsys, tmp_path, flag, folder)
        assert code == EXIT_CONFIG
        assert err == f"error: {folder} is a directory\n"
        assert out == ""

    @pytest.mark.parametrize("flag", list(INPUT_FLAGS))
    def test_path_through_a_file_is_a_missing_file(self, capsys, tmp_path,
                                                   flag):
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n")
        inner = plain / "inner.yaml"
        code, out, err = self.run_flag(capsys, tmp_path, flag, inner)
        assert code == EXIT_MISSING_FILE
        assert err == f"error: missing file: {inner}\n"
        assert out == ""

    @pytest.mark.parametrize("flag", list(INPUT_FLAGS))
    def test_absent_file_is_a_missing_file(self, capsys, tmp_path, flag):
        absent = tmp_path / "absent.yaml"
        code, out, err = self.run_flag(capsys, tmp_path, flag, absent)
        assert code == EXIT_MISSING_FILE
        assert err == f"error: missing file: {absent}\n"
        assert out == ""
