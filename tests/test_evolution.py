import math

import numpy as np
import pytest

from arm7ik import (Budget, DeConfig, GaConfig, end_effector_position,
                    ga_offspring, solve_de, solve_ga)


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


class TestGaSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_ga(model, target, rng=np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_best_fitness_never_regresses(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_ga(model, target, budget=Budget(max_iterations=40),
                          rng=np.random.default_rng(2))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_ga(model, target, budget=Budget(max_iterations=20),
                     rng=np.random.default_rng(3))
        b = solve_ga(model, target, budget=Budget(max_iterations=20),
                     rng=np.random.default_rng(3))
        assert a.same_outcome(b)

    def test_result_within_joint_limits(self, rng):
        from arm7ik import KinematicModel
        model = KinematicModel(joint_limits=[(-1.5, 1.5)] * 7)
        target = end_effector_position(model, np.full(7, 0.4))
        result = solve_ga(model, target, budget=Budget(max_iterations=15),
                          rng=np.random.default_rng(4))
        assert np.all(result.joints >= model.lower - 1e-12)
        assert np.all(result.joints <= model.upper + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)
        with pytest.raises(ValueError):
            GaConfig(mutation_probability=1.5)


class TestDeSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_de(model, target, rng=np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_zero_weight_zero_noise_cannot_improve(self, model, rng):
        # With F = 0 and no noise the mutant equals the base vector, so
        # every trial is a copy of an existing individual and the best
        # fitness can never move off its initial value.
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        config = DeConfig(differential_weight=0.0, mutation_probability=0.0,
                          crossover_rate=1.0)
        result = solve_de(model, target, config, Budget(max_iterations=25),
                          rng=np.random.default_rng(2))
        fits = result.trace.fitness_values()
        assert all(f == fits[0] for f in fits)

    def test_best_fitness_never_regresses(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_de(model, target, budget=Budget(max_iterations=40),
                          rng=np.random.default_rng(3))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_de(model, target, budget=Budget(max_iterations=20),
                     rng=np.random.default_rng(5))
        b = solve_de(model, target, budget=Budget(max_iterations=20),
                     rng=np.random.default_rng(5))
        assert a.same_outcome(b)

    def test_tiny_population_rejected(self, model, rng):
        target = np.array([0.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            solve_de(model, target, DeConfig(population_size=3),
                     rng=np.random.default_rng(6))

    def test_budget_caps_generations(self, model, rng):
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])
        result = solve_de(model, target, budget=Budget(max_iterations=7),
                          rng=np.random.default_rng(7))
        assert result.iterations_used <= 7
