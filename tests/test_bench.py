import csv
import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arm7ik.bench
from arm7ik import (BenchmarkSpec, Budget, KinematicModel, SolverId,
                    end_effector_position, make_budget, make_config)
from arm7ik.bench import (REPORT_COLUMNS, SweepResult, aggregate_records,
                          batch_hash, export_report, generate_target_batch,
                          load_runs_jsonl, reaggregate_runs, run_benchmark,
                          sweep_parameter, write_report_csv, write_trace_csv)
from arm7ik.core import average_traces, run_steps
from arm7ik.evolution import DeConfig
from arm7ik.kinematics import wrap_angle
from arm7ik.ml import fit_tree, generate_dataset
from arm7ik.numeric import NewtonConfig
from arm7ik.registry import SOLVERS, run_solver
from arm7ik.swarm import AfsaConfig, PsoConfig, QpsoConfig


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
        assert list(SOLVERS) == list(SolverId)

    @pytest.mark.parametrize("solver_id", [s.value for s in SolverId
                                           if s is not SolverId.DTNR])
    def test_run_solver_is_a_direct_call(self, model, solver_id):
        # run_solver adds only its defaults and the wrap to a solve: the
        # table's step generator, driven by run_steps with the same rng,
        # solves the same way.
        config_cls, steps, _ = SOLVERS[SolverId(solver_id)]
        target = np.array([0.5, 0.5, 1.0])
        budget = Budget(max_iterations=8)
        direct = run_steps(steps(model, target, config_cls(), budget,
                                 np.random.default_rng(11)), budget)
        table = run_solver(solver_id, model, target,
                           np.random.default_rng(11), budget=budget)
        assert direct.same_outcome(table)

    @pytest.mark.parametrize("solver_id", [s.value for s in SolverId])
    def test_defaults_are_make_config_and_make_budget(self, model, small_tree,
                                                      solver_id):
        target = np.array([0.5, 0.5, 1.0])
        implicit = run_solver(solver_id, model, target,
                              np.random.default_rng(11), tree=small_tree)
        explicit = run_solver(solver_id, model, target,
                              np.random.default_rng(11),
                              make_config(solver_id), make_budget(solver_id),
                              tree=small_tree)
        assert implicit.same_outcome(explicit)

    def test_make_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            make_config("ga", {"popsize": 10})

    @pytest.mark.parametrize("solver_id, overrides", [
        ("pso", {"inertia": float("nan")}), ("sa", {"t_max": float("inf")}),
        ("dtnr", {"damping": float("nan")})])
    def test_make_config_rejects_non_finite_numbers(self, solver_id,
                                                    overrides):
        with pytest.raises(ValueError, match="finite"):
            make_config(solver_id, overrides)

    def test_make_config_applies_overrides(self):
        config = make_config("pso", {"num_particles": 5})
        assert config.num_particles == 5

    def test_dtnr_takes_newton_settings_flat(self):
        # dtnr's config is nr's plus refine_joint_count, one level deep.
        config = make_config("dtnr", {"damping": 0.25, "step_scale": 0.5,
                                      "refine_joint_count": 4})
        assert (config.damping, config.step_scale,
                config.refine_joint_count) == (0.25, 0.5, 4)
        assert isinstance(config, NewtonConfig)
        for overrides in ({"newton": {"damping": 0.25}}, {"newton": 5},
                          {"max_iterations": 9}):
            with pytest.raises(ValueError, match="unknown dtnr config keys"):
                make_config("dtnr", overrides)

    def test_default_budgets_track_entries(self):
        caps = {"dtnr": 15, "nr": 30, "nm": 799, "sa": 400, "pso": 200,
                "qpso": 302, "ccd": 300, "afsa": 200, "ga": 100, "de": 100}
        assert {sid.value: make_budget(sid).max_iterations
                for sid in SolverId} == caps
        assert make_budget("nr") == Budget(max_iterations=30)

    def test_make_budget_applies_overrides_to_the_default(self):
        budget = make_budget("ccd", {"tolerance": 1e-6})
        assert budget == Budget(max_iterations=300, tolerance=1e-6)
        with pytest.raises(ValueError):
            make_budget("ccd", {"max_cycles": 5})

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


@pytest.mark.parametrize("config_cls, name", [
    (PsoConfig, "inertia"), (PsoConfig, "cognitive"), (PsoConfig, "social"),
    (QpsoConfig, "beta_start"), (QpsoConfig, "beta_end"),
    (AfsaConfig, "visual_range"), (NewtonConfig, "damping"),
    (DeConfig, "mutation_probability"), (DeConfig, "differential_weight")])
def test_nan_config_bound_rejected(config_cls, name):
    # Built directly, without make_config's finite check in front.
    with pytest.raises(ValueError):
        config_cls(**{name: float("nan")})


# Every int, float and bool field of the solver configs and of Budget.
SCALAR_SETTINGS = [
    (cls, f) for cls in [row[0] for row in SOLVERS.values()] + [Budget]
    for f in dataclasses.fields(cls)
    if f.type in ("int", "float", "float | None", "bool")]
SETTING_IDS = [f"{cls.__name__}.{f.name}" for cls, f in SCALAR_SETTINGS]


@pytest.mark.parametrize("cls, field", SCALAR_SETTINGS, ids=SETTING_IDS)
def test_every_setting_declares_its_bounds(cls, field):
    # A field declared without setting() would skip the bounds check.
    assert "bounds" in field.metadata


@pytest.mark.parametrize("cls, field", SCALAR_SETTINGS, ids=SETTING_IDS)
def test_every_setting_rejects_values_of_the_wrong_kind(cls, field):
    required = {"max_iterations": 1} if cls is Budget else {}
    cls(**required)
    bad = [math.nan, math.inf, -math.inf, "x"]
    bad.append(1 if field.type == "bool" else True)
    if field.type == "int":
        bad.append(2.5)
    for value in bad:
        with pytest.raises(ValueError, match=field.name):
            cls(**{**required, field.name: value})


@pytest.fixture(scope="module")
def small_tree():
    return fit_tree(generate_dataset(KinematicModel(), 500, seed=3))


class TestStepContract:
    @pytest.mark.parametrize("solver_id", [s.value for s in SolverId])
    @settings(max_examples=12, deadline=None)
    @given(q=st.lists(st.floats(-np.pi, np.pi), min_size=7, max_size=7),
           seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 12))
    def test_trace_is_the_steps_bests(self, small_tree, solver_id, q, seed,
                                      cap):
        # The trace holds one sample per step, each step's best fitness,
        # so it never rises and ends on the result.
        arm = KinematicModel()
        result = run_solver(solver_id, arm, end_effector_position(arm, q),
                            np.random.default_rng(seed),
                            budget=Budget(max_iterations=cap),
                            tree=small_tree)
        samples = [s[:2] for s in result.trace]
        assert [it for it, _ in samples] == list(range(len(samples)))
        fits = [f for _, f in samples]
        assert all(a >= b for a, b in zip(fits, fits[1:]))
        assert samples[-1] == (result.iterations_used, result.final_fitness)
        assert result.trace[-1][1] == result.final_fitness


class TestOneFinish:
    ARMS = {"standard": KinematicModel(),
            "modified": KinematicModel(convention="modified"),
            "wide-limits": KinematicModel(
                joint_limits=[(-2 * np.pi, 2 * np.pi)] * 7)}

    @pytest.mark.parametrize("solver_id", [s.value for s in SolverId])
    @pytest.mark.parametrize("arm_name", sorted(ARMS))
    def test_every_solve_comes_back_wrapped(self, small_tree, solver_id,
                                            arm_name):
        # run_steps wraps every solver's last joints, and a wrap of
        # joints already in (-pi, pi] changes none of them.
        arm = self.ARMS[arm_name]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            target = end_effector_position(arm, arm.random_joints(rng))
            result = run_solver(solver_id, arm, target, rng,
                                budget=Budget(max_iterations=20),
                                tree=small_tree)
            assert np.array_equal(wrap_angle(result.joints), result.joints)
            assert np.all((result.joints > -np.pi)
                          & (result.joints <= np.pi))


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

    @pytest.mark.parametrize("over", [
        {"tolerance": float("nan")}, {"tolerance": float("inf")},
        {"wall_clock_limit": -1.0}, {"wall_clock_limit": float("nan")},
        {"max_iterations": float("inf")}])
    def test_bad_stop_conditions_in_spec_budgets_rejected(self, model, over):
        with pytest.raises(ValueError):
            run_benchmark(model, tiny_spec(budgets={"ccd": over}))


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

    def test_traces_are_folded_from_the_successful_records(self, model):
        # At 1e-6 mm nr succeeds and ga fails on every target.
        spec = tiny_spec(algorithms=["ga", "nr"], success_threshold=1e-6)
        _, traces, runs, _ = run_benchmark(model, spec)
        assert list(traces) == ["ga", "nr"]
        for algo, trace in traces.items():
            succ = [r["trace"] for r in runs
                    if r["algorithm"] == algo and r["success"]]
            assert trace == (average_traces(succ) if succ else [])
        assert traces["ga"] == [] and traces["nr"]

    def test_dtnr_without_tree_refused_up_front(self, model):
        with pytest.raises(ValueError):
            run_benchmark(model, tiny_spec(algorithms=["dtnr"]))

    def test_bad_de_config_refused_before_any_solve(self, model, monkeypatch):
        calls = []
        monkeypatch.setattr(arm7ik.bench, "run_solver",
                            lambda *a, **kw: calls.append(a))
        spec = tiny_spec(algorithms=["nr", "de"],
                         configs={"de": {"population_size": 3}})
        with pytest.raises(ValueError):
            run_benchmark(model, spec)
        assert calls == []

    @pytest.mark.parametrize("algo, config", [
        ("qpso", {"num_particles": 1}),
        ("afsa", {"population_size": 0}),
        ("sa", {"max_stay_counter": 0}),
    ])
    def test_bad_solver_config_refused_before_any_solve(
            self, model, monkeypatch, algo, config):
        calls = []
        monkeypatch.setattr(arm7ik.bench, "run_solver",
                            lambda *a, **kw: calls.append(a))
        spec = tiny_spec(algorithms=["nr", algo], configs={algo: config})
        with pytest.raises(ValueError):
            run_benchmark(model, spec)
        assert calls == []


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

    def test_trace_csv_round_trip(self, tmp_path):
        trace = [(0, 4.0, 0.0), (1, 2.0, 0.01), (2, 1.5, 0.02)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (3, 3)
        assert np.allclose(rows[:, 1], [4.0, 2.0, 1.5])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["iteration", "fitness_mm", "elapsed_s"],
                *[[repr(v) for v in s] for s in trace]]

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
        assert json.loads((out / "metadata.json").read_text())["n_targets"] == 3
        assert sorted(p.name for p in out.iterdir()) == [
            "metadata.json", "report.csv", "runs.jsonl", "traces"]

    def test_reaggregation_from_the_runs_log_is_exact(self, model, tmp_path):
        spec = tiny_spec()
        reports, traces, runs, metadata = run_benchmark(model, spec)
        out = tmp_path / "out"
        export_report(out, reports, traces, runs, metadata)
        loaded = load_runs_jsonl(out / "runs.jsonl")
        assert reaggregate_runs(loaded) == reports

    @pytest.mark.parametrize("field, value", [
        ("algorithm", ["nr"]), ("elapsed_s", "0.1"), ("final_fitness", "x"),
        ("final_fitness", True), ("iterations_used", 3.0),
        ("iterations_used", False), ("success", 1), ("trace", {})])
    def test_a_wrongly_typed_field_names_its_line(self, tmp_path, field,
                                                  value):
        good = {"algorithm": "nr", "elapsed_s": 0.01, "final_fitness": 0.1,
                "iterations_used": 3, "success": True, "trace": []}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(good) + "\n\n"
                        + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ValueError, match=f"line 3: {field} must be"):
            load_runs_jsonl(path)


class TestSweep:
    def test_grid_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            SweepResult("ga", "population_size", [30, 10], [0.0, 0.0],
                        [0.0, 0.0])

    @pytest.mark.parametrize("parameter, grid, message", [
        ("population_size", [40, 10], "increasing"),
        ("mutation_probability", [0.1, 0.2, 1.5], "mutation_probability")])
    def test_bad_grid_fails_before_the_first_solve(self, model, monkeypatch,
                                                   parameter, grid, message):
        calls = []
        monkeypatch.setattr(arm7ik.bench, "run_solver",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=message):
            sweep_parameter("ga", parameter, grid, 1, model,
                            tiny_spec(n_targets=1))
        assert calls == []

    def test_single_cell_matches_a_direct_solve(self, model):
        spec = tiny_spec(n_targets=2, algorithms=["ga"])
        result = sweep_parameter("ga", "population_size", [20], 1, model,
                                 spec)

        targets = generate_target_batch(model, spec)
        fits = []
        for t_idx, target in enumerate(targets):
            rng = np.random.default_rng(np.random.SeedSequence(
                (spec.master_seed, 0, t_idx, 0)))
            res = run_solver("ga", model, target, rng,
                             make_config("ga", {"population_size": 20}),
                             Budget(max_iterations=25))
            fits.append(res.final_fitness)
        assert result.best_fitness[0] == pytest.approx(
            float(np.mean(fits)), abs=0.0)
        assert len(result.best2_time_mean) == 1

    def test_cells_fold_one_solver_campaigns(self, model, monkeypatch):
        # Each grid value is one ga-only campaign with `repeats` runs per
        # target on the campaign's seeds; the cell folds that campaign's
        # runs by repeat.
        campaigns = []

        def recording_run_benchmark(model, spec, tree=None):
            out = run_benchmark(model, spec, tree=tree)
            campaigns.append((spec, out[2]))
            return out

        monkeypatch.setattr(arm7ik.bench, "run_benchmark",
                            recording_run_benchmark)
        spec = tiny_spec(n_targets=2,
                         configs={"ga": {"mutation_probability": 0.05}})
        result = sweep_parameter("ga", "population_size", [6, 10], 3, model,
                                 spec)
        assert len(campaigns) == 2
        for i, (value, (campaign, runs)) in enumerate(zip([6, 10],
                                                          campaigns)):
            expected = replace(spec, algorithms=["ga"], repeats_per_target=3,
                               configs={"ga": {"mutation_probability": 0.05,
                                               "population_size": value}})
            assert campaign == expected
            _, _, fresh, _ = run_benchmark(model, expected)
            assert ([r["final_fitness"] for r in fresh]
                    == [r["final_fitness"] for r in runs])
            by_rep = [[r for r in runs if r["repeat"] == k] for k in range(3)]
            assert all(len(recs) == 2 for recs in by_rep)
            assert result.best_fitness[i] == min(
                float(np.mean([r["final_fitness"] for r in recs]))
                for recs in by_rep)
            times = sorted(sum(r["elapsed_s"] for r in recs)
                           for recs in by_rep)
            assert result.best2_time_mean[i] == float(np.mean(times[:2]))
        seeds = [[r["seed"] for r in runs] for _, runs in campaigns]
        assert seeds[0] == seeds[1]
        assert seeds[0][:3] == [[7, 0, 0, 0], [7, 0, 0, 1], [7, 0, 0, 2]]

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
