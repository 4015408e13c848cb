import math

import numpy as np
import pytest

from arm7ik import (Budget, DeConfig, GaConfig, KinematicModel,
                    end_effector_position, ga_offspring, run_solver)
from arm7ik.evolution import de_donors, de_trials, tournament_winners
import oracles


BOX = KinematicModel(joint_limits=[(-1.0, 1.0)] * 7)


class FixedPicks:
    """Stands in for a Generator whose `integers` returns set picks."""

    def __init__(self, picks):
        self.picks = np.asarray(picks)

    def integers(self, low, high, size):
        assert self.picks.shape == size
        return self.picks


class TestGaOffspring:
    def test_identical_parents_without_mutation_give_identical_child(
            self, model, rng):
        p = rng.uniform(-math.pi, math.pi, size=7)
        config = GaConfig(mutation_probability=0.0)
        child = ga_offspring(rng, p, p.copy(), config, model)
        assert np.array_equal(child, p)

    def test_no_crossover_no_mutation_copies_first_parent(self, model, rng):
        p1 = rng.uniform(-math.pi, math.pi, size=7)
        p2 = rng.uniform(-math.pi, math.pi, size=7)
        config = GaConfig(mutation_probability=0.0, crossover_probability=0.0)
        assert np.array_equal(ga_offspring(rng, p1, p2, config, model), p1)

    def test_crossover_genes_come_from_a_parent(self, model, rng):
        p1 = np.full(7, -1.0)
        p2 = np.full(7, 1.0)
        config = GaConfig(mutation_probability=0.0, crossover_probability=1.0)
        for _ in range(20):
            child = ga_offspring(rng, p1, p2, config, model)
            assert np.all(np.isin(child, [-1.0, 1.0]))

    def test_mutation_resamples_within_limits(self, model, rng):
        p = np.zeros(7)
        config = GaConfig(mutation_probability=1.0, crossover_probability=0.0)
        child = ga_offspring(rng, p, p, config, model)
        assert np.all(child >= model.lower)
        assert np.all(child <= model.upper)
        assert not np.array_equal(child, p)

    def test_batch_without_crossover_or_mutation_copies_each_first_parent(
            self, model, rng):
        p1 = rng.uniform(-math.pi, math.pi, size=(30, 7))
        p2 = rng.uniform(-math.pi, math.pi, size=(30, 7))
        config = GaConfig(mutation_probability=0.0, crossover_probability=0.0)
        assert np.array_equal(ga_offspring(rng, p1, p2, config, model), p1)

    def test_batch_genes_come_from_the_rows_parents(self, model, rng):
        p1 = rng.uniform(-math.pi, math.pi, size=(200, 7))
        p2 = rng.uniform(-math.pi, math.pi, size=(200, 7))
        config = GaConfig(mutation_probability=0.0, crossover_probability=1.0)
        children = ga_offspring(rng, p1, p2, config, model)
        from_p1, from_p2 = children == p1, children == p2
        assert np.all(from_p1 | from_p2)
        assert 0.4 < from_p2.mean() < 0.6

    def test_batch_mutation_resamples_inside_a_limit_box(self, rng):
        p = np.zeros((50, 7))
        config = GaConfig(mutation_probability=1.0, crossover_probability=0.0)
        children = ga_offspring(rng, p, p, config, BOX)
        assert np.all((children >= -1.0) & (children <= 1.0))
        assert np.all(children != 0.0)
        assert children.min() < -0.9 and children.max() > 0.9


class TestTournament:
    def test_fitter_pick_wins_and_ties_go_to_the_first(self):
        values = np.array([3.0, 1.0, 1.0, 0.5])
        picks = [[0, 1], [1, 0], [1, 2], [2, 1], [3, 3], [0, 3]]
        winners = tournament_winners(FixedPicks(picks), values, (6,))
        assert winners.tolist() == [1, 1, 1, 2, 3, 3]

    def test_shape_and_selection_pressure(self, rng):
        n = 10
        values = np.arange(n, dtype=float)
        winners = tournament_winners(rng, values, (2, 20_000))
        assert winners.shape == (2, 20_000)
        # Tournament-2 picks rank r (0 = fittest) with (2n - 2r - 1) / n^2.
        expected = (2 * n - 2 * np.arange(n) - 1) / n ** 2
        freq = np.bincount(winners.ravel(), minlength=n) / winners.size
        assert np.allclose(freq, expected, atol=0.01)


class TestGaSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("ga", model, target, np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_best_fitness_never_regresses(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("ga", model, target, np.random.default_rng(2),
                            budget=Budget(max_iterations=40))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = run_solver("ga", model, target, np.random.default_rng(3),
                       budget=Budget(max_iterations=20))
        b = run_solver("ga", model, target, np.random.default_rng(3),
                       budget=Budget(max_iterations=20))
        assert a.same_outcome(b)

    def test_result_within_joint_limits(self, rng):
        from arm7ik import KinematicModel
        model = KinematicModel(joint_limits=[(-1.5, 1.5)] * 7)
        target = end_effector_position(model, np.full(7, 0.4))
        result = run_solver("ga", model, target, np.random.default_rng(4),
                            budget=Budget(max_iterations=15))
        assert np.all(result.joints >= model.lower - 1e-12)
        assert np.all(result.joints <= model.upper + 1e-12)

    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_ga_matches_reference(self, arm_name):
        oracles.assert_solver_matches(
            "ga", oracles.reference_ga_steps,
            oracles.POPULATION_ARMS[arm_name], GaConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)
        with pytest.raises(ValueError):
            GaConfig(mutation_probability=1.5)


class TestDeSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("de", model, target, np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_zero_weight_zero_noise_cannot_improve(self, model, rng):
        # With F = 0 and no noise the mutant equals the base vector, so
        # every trial is a copy of an existing individual and the best
        # fitness can never move off its initial value.
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        config = DeConfig(differential_weight=0.0, mutation_probability=0.0,
                          crossover_rate=1.0)
        result = run_solver("de", model, target, np.random.default_rng(2),
                            config, Budget(max_iterations=25))
        fits = result.trace.fitness_values()
        assert all(f == fits[0] for f in fits)

    def test_best_fitness_never_regresses(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("de", model, target, np.random.default_rng(3),
                            budget=Budget(max_iterations=40))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = run_solver("de", model, target, np.random.default_rng(5),
                       budget=Budget(max_iterations=20))
        b = run_solver("de", model, target, np.random.default_rng(5),
                       budget=Budget(max_iterations=20))
        assert a.same_outcome(b)

    def test_result_within_joint_limits(self):
        model = KinematicModel(joint_limits=[(-0.5, 1.0)] * 7)
        target = end_effector_position(model, np.full(7, 0.4))
        result = run_solver("de", model, target, np.random.default_rng(4),
                            budget=Budget(max_iterations=15))
        assert np.all(result.joints >= model.lower)
        assert np.all(result.joints <= model.upper)

    def test_config_validation(self):
        for bad in (dict(population_size=3), dict(mutation_probability=-1.0),
                    dict(differential_weight=-0.1), dict(crossover_rate=1.5)):
            with pytest.raises(ValueError):
                DeConfig(**bad)
        DeConfig(population_size=4, mutation_probability=0.0)

    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_de_matches_reference(self, arm_name):
        oracles.assert_solver_matches(
            "de", oracles.reference_de_steps,
            oracles.POPULATION_ARMS[arm_name], DeConfig())

    def test_tiny_population_rejected(self, model, rng):
        target = np.array([0.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            run_solver("de", model, target, np.random.default_rng(6),
                       DeConfig(population_size=3))

    def test_budget_caps_generations(self, model, rng):
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])
        result = run_solver("de", model, target, np.random.default_rng(7),
                            budget=Budget(max_iterations=7))
        assert result.iterations_used <= 7


class TestDeOperators:
    @pytest.mark.parametrize("n", [4, 5, 20])
    def test_donors_are_distinct_and_never_the_member(self, n, rng):
        donors = np.stack([de_donors(rng, n) for _ in range(500)])
        assert donors.shape == (500, n, 3)
        a, b, c = donors[..., 0], donors[..., 1], donors[..., 2]
        k = np.arange(n)
        assert np.all((a != b) & (b != c) & (a != c))
        assert np.all((a != k) & (b != k) & (c != k))
        assert donors.min() >= 0 and donors.max() < n

    def test_each_donor_slot_is_uniform_over_the_other_members(self, rng):
        n, draws = 5, 4000
        donors = np.stack([de_donors(rng, n) for _ in range(draws)])
        for k in range(n):
            for slot in range(3):
                freq = np.bincount(donors[:, k, slot], minlength=n) / draws
                assert freq[k] == 0.0
                assert np.allclose(np.delete(freq, k), 1 / (n - 1),
                                   atol=0.03)

    def test_every_trial_takes_at_least_one_mutant_gene(self, model, rng):
        # Wrapping may move a kept gene by an ulp; a mutant gene moves by
        # F * (pop[b] - pop[c]), far more than the tolerance.
        pop = rng.uniform(-2.0, 2.0, size=(20, 7))
        for rate, crossed in ((0.0, lambda k: k == 1),
                              (0.3, lambda k: k >= 1)):
            config = DeConfig(crossover_rate=rate, mutation_probability=0.0)
            for _ in range(20):
                trials = de_trials(rng, pop, config, model)
                changed = ~np.isclose(trials, pop, rtol=0.0, atol=1e-12)
                assert np.all(crossed(changed.sum(axis=1)))

    def test_trials_stay_inside_a_limit_box(self, rng):
        pop = rng.uniform(-1.0, 1.0, size=(20, 7))
        config = DeConfig(differential_weight=2.0, mutation_probability=0.5,
                          crossover_rate=1.0)
        trials = de_trials(rng, pop, config, BOX)
        assert np.all((trials >= -1.0) & (trials <= 1.0))
        assert np.any(trials == 1.0) and np.any(trials == -1.0)
