import csv
import json

import numpy as np
import pytest

import arm7ik.bench
from arm7ik import (BenchmarkSpec, Budget, KinematicModel, SolverId,
                    make_config, default_budget)
from arm7ik.bench import (REPORT_COLUMNS, SweepResult, aggregate_records,
                          batch_hash, export_report, generate_target_batch,
                          load_runs_jsonl, read_report_csv, reaggregate_runs,
                          run_benchmark, sweep_parameter, write_report_csv)
from arm7ik.core import DEFAULT_ITERATIONS
from arm7ik.ml import fit_tree, generate_dataset
from arm7ik.registry import all_solver_ids, run_solver


def tiny_spec(**kw):
    defaults = dict(
        n_targets=3,
        algorithms=["nr", "ccd", "ga"],
        master_seed=7,
        budgets={"ga": {"max_iterations": 25}, "ccd": {"max_iterations": 40}},
    )
    defaults.update(kw)
    return BenchmarkSpec(**defaults)


def fake_record(fitness, trace_len, success=True):
    return {"final_fitness": fitness, "elapsed_s": 0.01,
            "iterations_used": trace_len, "success": success,
            "trace": [[i, fitness + (trace_len - i), 0.0]
                      for i in range(trace_len)]}


def weighted_average(records):
    return aggregate_records("x", records).average_fitness_weighted


class TestRegistry:
    def test_every_solver_is_registered(self):
        assert set(all_solver_ids()) == set(SolverId)

    def test_make_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            make_config("ga", {"popsize": 10})

    def test_make_config_applies_overrides(self):
        config = make_config("pso", {"num_particles": 5})
        assert config.num_particles == 5

    def test_dtnr_newton_subconfig(self):
        config = make_config("dtnr", {"newton": {"damping": 0.25}})
        assert config.newton.damping == 0.25
        with pytest.raises(ValueError):
            make_config("dtnr", {"newton": {"max_iterations": 9}})

    def test_default_budgets_track_entries(self):
        for sid in SolverId:
            assert default_budget(sid).max_iterations == \
                DEFAULT_ITERATIONS[sid]

    def test_iteration_caps_are_not_config_keys(self):
        for sid, key in (("pso", "max_iterations"), ("ga", "generations"),
                         ("ccd", "max_cycles")):
            with pytest.raises(ValueError):
                make_config(sid, {key: 5})

    def test_run_solver_requires_tree_for_dtnr(self, model, rng):
        with pytest.raises(ValueError):
            run_solver("dtnr", model, np.array([0.5, 0.5, 1.0]), rng)

    @pytest.mark.parametrize("target", [[0.5, np.inf, 1.0], [np.nan, 0, 1],
                                        [0.5, 0.5]])
    def test_run_solver_rejects_bad_targets(self, model, rng, target):
        with pytest.raises(ValueError):
            run_solver("ga", model, np.array(target), rng)


@pytest.fixture(scope="module")
def small_tree():
    return fit_tree(generate_dataset(KinematicModel(), 500,
                                     rng=np.random.default_rng(3)))


class TestBudget:
    @pytest.mark.parametrize("solver_id", [s.value for s in SolverId])
    def test_wall_clock_limit_stops_every_solver(self, model, small_tree,
                                                 solver_id):
        budget = Budget(max_iterations=15, tolerance=1e-300,
                        wall_clock_limit=1e-12)
        result = run_solver(solver_id, model, np.array([0.5, 0.5, 1.0]),
                            np.random.default_rng(0), budget=budget,
                            tree=small_tree)
        assert result.iterations_used <= 1


class TestTargetBatch:
    def test_same_master_seed_same_batch(self, model):
        spec = tiny_spec(n_targets=20)
        a = generate_target_batch(model, spec)
        b = generate_target_batch(model, spec)
        assert np.array_equal(np.asarray(a), np.asarray(b))
        assert batch_hash(a) == batch_hash(b)

    def test_every_target_is_reachable(self, model):
        spec = tiny_spec(n_targets=100)
        sphere = model.workspace
        for t in generate_target_batch(model, spec):
            assert sphere.contains(t)

    def test_distinct_seeds_give_distinct_batches(self, model):
        a = generate_target_batch(model, tiny_spec(n_targets=100))
        b = generate_target_batch(model, tiny_spec(n_targets=100,
                                                   master_seed=8))
        assert batch_hash(a) != batch_hash(b)


class TestWeightedAverageFitness:
    """The report's average_fitness_weighted column: successful runs'
    fitness weighted by their trace sample counts."""

    def test_equal_length_runs_degenerate_to_the_mean(self):
        records = [fake_record(2.0, 5), fake_record(4.0, 5)]
        assert weighted_average(records) == pytest.approx(3.0)

    def test_single_run_is_its_own_average(self):
        assert weighted_average([fake_record(1.25, 3)]) == 1.25

    def test_mixed_lengths_match_direct_formula(self):
        records = [fake_record(1.0, 2), fake_record(3.0, 6),
                   fake_record(5.0, 4), fake_record(9.0, 7, success=False)]
        expected = (2 * 1.0 + 6 * 3.0 + 4 * 5.0) / 12.0
        assert weighted_average(records) == pytest.approx(expected)

    def test_empty_input_gives_none(self):
        # No successful run leaves nothing to average.
        assert weighted_average([fake_record(2.0, 5, success=False)]) is None


class TestRunBenchmark:
    def test_aggregates_match_naive_recomputation(self, model):
        spec = tiny_spec()
        reports, traces, runs, metadata = run_benchmark(model, spec)
        assert [r.algorithm for r in reports] == ["nr", "ccd", "ga"]
        assert metadata["target_batch_sha256"] == batch_hash(
            generate_target_batch(model, spec))
        for report in reports:
            recs = [r for r in runs if r["algorithm"] == report.algorithm]
            fits = [r["final_fitness"] for r in recs]
            assert report.best_fitness == min(fits)
            assert report.worst_fitness == max(fits)
            assert report.average_fitness_mm == pytest.approx(
                sum(fits) / len(fits))
            assert report.sd == pytest.approx(float(np.std(fits)))
            n_succ = sum(r["success"] for r in recs)
            assert report.success_rate == pytest.approx(
                100.0 * n_succ / len(recs))
            assert report.iteration_count == pytest.approx(
                sum(r["iterations_used"] for r in recs) / len(recs))

    def test_success_definition_uses_the_threshold(self, model):
        spec = tiny_spec(success_threshold=1e-12)
        _, _, runs, _ = run_benchmark(model, spec)
        for rec in runs:
            assert rec["success"] == (rec["final_fitness"] < 1e-12)

    def test_deterministic_modulo_timing(self, model):
        spec = tiny_spec(algorithms=["ga"])
        _, _, runs_a, _ = run_benchmark(model, spec)
        _, _, runs_b, _ = run_benchmark(model, spec)
        assert [r["final_fitness"] for r in runs_a] == \
            [r["final_fitness"] for r in runs_b]
        assert [r["joints"] for r in runs_a] == [r["joints"] for r in runs_b]

    def test_dtnr_without_tree_refused_up_front(self, model):
        with pytest.raises(ValueError):
            run_benchmark(model, tiny_spec(algorithms=["dtnr"]))


class TestReportFiles:
    def test_column_order(self):
        assert REPORT_COLUMNS == [
            "algorithm", "iteration_count", "best_fitness", "worst_fitness",
            "best_time_s", "worst_time_s", "average_fitness_mm",
            "average_fitness_weighted", "sd", "average_time_s",
            "success_rate"]

    def test_empty_report_list_writes_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [REPORT_COLUMNS]

    def test_csv_round_trip_reproduces_the_structs(self, model, tmp_path):
        spec = tiny_spec()
        reports, _, _, _ = run_benchmark(model, spec)
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        back = read_report_csv(path)
        assert back == reports

    def test_export_writes_every_artifact(self, model, tmp_path):
        spec = tiny_spec()
        reports, traces, runs, metadata = run_benchmark(model, spec)
        out = tmp_path / "out"
        export_report(out, reports, traces, runs, metadata)
        assert (out / "report.csv").exists()
        assert (out / "runs.jsonl").exists()
        assert (out / "metadata.json").exists()
        for algo in ("nr", "ccd", "ga"):
            assert (out / "traces" / f"{algo}.csv").exists()
            assert (out / "plotdata" / f"{algo}.csv").exists()
        assert json.loads((out / "metadata.json").read_text())["n_targets"] == 3

    def test_reaggregation_from_the_runs_log_is_exact(self, model, tmp_path):
        spec = tiny_spec()
        reports, traces, runs, metadata = run_benchmark(model, spec)
        out = tmp_path / "out"
        export_report(out, reports, traces, runs, metadata)
        loaded = load_runs_jsonl(out / "runs.jsonl")
        assert reaggregate_runs(loaded) == reports

    def test_mismatched_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_report_csv(path)


class TestSweep:
    def test_grid_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            SweepResult("ga", "population_size", [30, 10], [0.0, 0.0],
                        [0.0, 0.0])

    def test_single_cell_matches_a_direct_solve(self, model):
        spec = tiny_spec(n_targets=2, algorithms=["ga"])
        result = sweep_parameter("ga", "population_size", [20], 1, model,
                                 spec)

        targets = generate_target_batch(model, spec)
        fits = []
        for t_idx, target in enumerate(targets):
            rng = np.random.default_rng(np.random.SeedSequence(
                (spec.master_seed, 0, 0, t_idx)))
            res = run_solver("ga", model, target, rng,
                             make_config("ga", {"population_size": 20}),
                             Budget(max_iterations=25))
            fits.append(res.final_fitness)
        assert result.best_fitness[0] == pytest.approx(
            float(np.mean(fits)), abs=0.0)
        assert len(result.best2_time_mean) == 1

    def test_unknown_parameter_rejected(self, model):
        spec = tiny_spec(n_targets=1, algorithms=["ga"])
        with pytest.raises(ValueError):
            sweep_parameter("ga", "gene_count", [1, 2], 1, model, spec)

    def test_repeats_validation(self, model):
        spec = tiny_spec(n_targets=1)
        with pytest.raises(ValueError):
            sweep_parameter("ga", "population_size", [5], 0, model, spec)

    def test_sweep_uses_the_spec_budget(self, model, monkeypatch):
        budgets = []

        def fake_run_solver(solver_id, model, target, rng, config, budget,
                            tree=None):
            budgets.append(budget)
            return run_solver(solver_id, model, target, rng, config, budget,
                              tree=tree)

        monkeypatch.setattr(arm7ik.bench, "run_solver", fake_run_solver)
        spec = tiny_spec(n_targets=2, algorithms=["ga"],
                         budgets={"ga": {"max_iterations": 3}})
        sweep_parameter("ga", "population_size", [4, 6], 2, model, spec)
        assert len(budgets) == 8
        assert all(b.max_iterations == 3 for b in budgets)
