import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arm7ik import (AfsaConfig, Budget, PsoConfig, QpsoConfig,
                    end_effector_position, solve_afsa, solve_pso, solve_qpso)
from arm7ik.swarm import afsa_prey_step, pso_velocity_update, qpso_attractor


class TestPsoVelocityUpdate:
    def test_ballistic_motion_with_zero_attraction(self, rng):
        v = rng.normal(size=(5, 7))
        x = rng.normal(size=(5, 7))
        out = pso_velocity_update(v, x, x + 1, x - 1, 1.0, 0.0, 0.0,
                                  rng.random((5, 7)), rng.random((5, 7)))
        assert np.array_equal(out, v)

    def test_reduces_to_inertia_term_at_the_best_point(self, rng):
        v = rng.normal(size=7)
        x = rng.normal(size=7)
        out = pso_velocity_update(v, x, x, x, 0.7, 1.5, 1.5,
                                  rng.random(7), rng.random(7))
        assert np.allclose(out, 0.7 * v, atol=1e-15)

    def test_matches_direct_formula(self, rng):
        v, x, pb, gb = rng.normal(size=(4, 7))
        r1, r2 = rng.random((2, 7))
        expected = 0.5 * v + 1.2 * r1 * (pb - x) + 1.8 * r2 * (gb - x)
        out = pso_velocity_update(v, x, pb, gb, 0.5, 1.2, 1.8, r1, r2)
        assert np.allclose(out, expected, atol=1e-15)


class TestPsoSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_pso(model, target, rng=np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_gbest_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_pso(model, target, budget=Budget(max_iterations=50),
                           rng=np.random.default_rng(2))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_pso(model, target, budget=Budget(max_iterations=30),
                      rng=np.random.default_rng(3))
        b = solve_pso(model, target, budget=Budget(max_iterations=30),
                      rng=np.random.default_rng(3))
        assert a.same_outcome(b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(num_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=-0.1)


class TestQpso:
    def test_attractor_of_equal_bests_is_that_point(self, rng):
        p = rng.normal(size=(6, 7))
        out = qpso_attractor(p, p[0], np.random.default_rng(0))
        # With pbest == gbest per dimension the convex combination is
        # the point itself wherever they coincide.
        same = qpso_attractor(p[0][None, :].repeat(6, axis=0), p[0],
                              np.random.default_rng(0))
        assert np.allclose(same, p[0], atol=1e-15)
        assert out.shape == p.shape

    def test_attractor_lies_between_the_bests(self, rng):
        pbest = np.zeros((4, 7))
        gbest = np.ones(7)
        out = qpso_attractor(pbest, gbest, rng)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_qpso(model, target, rng=np.random.default_rng(4))
        assert result.final_fitness < 1.0

    def test_gbest_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_qpso(model, target, budget=Budget(max_iterations=50),
                            rng=np.random.default_rng(5))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_qpso(model, target, budget=Budget(max_iterations=30),
                       rng=np.random.default_rng(6))
        b = solve_qpso(model, target, budget=Budget(max_iterations=30),
                       rng=np.random.default_rng(6))
        assert a.same_outcome(b)

    def test_single_particle_rejected(self, model):
        with pytest.raises(ValueError):
            solve_qpso(model, np.array([0.5, 0.5, 1.0]),
                       QpsoConfig(num_particles=1),
                       rng=np.random.default_rng(7))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QpsoConfig(beta_start=0.0)


class TestAfsa:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_prey_step_never_exceeds_visual_range(self, seed):
        step = afsa_prey_step(np.random.default_rng(seed), 0.6)
        assert np.linalg.norm(step) <= 0.6 + 1e-12

    def test_population_one_completes(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_afsa(model, target, AfsaConfig(population_size=1),
                            budget=Budget(max_iterations=60),
                            rng=np.random.default_rng(1))
        assert np.all(np.isfinite(result.joints))
        assert result.iterations_used <= 60

    def test_population_three_exercises_social_moves(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_afsa(model, target,
                            AfsaConfig(population_size=3),
                            budget=Budget(max_iterations=40),
                            rng=np.random.default_rng(2))
        assert np.all(np.isfinite(result.joints))

    def test_best_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_afsa(model, target, budget=Budget(max_iterations=60),
                            rng=np.random.default_rng(3))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_afsa(model, target, budget=Budget(max_iterations=40),
                       rng=np.random.default_rng(4))
        b = solve_afsa(model, target, budget=Budget(max_iterations=40),
                       rng=np.random.default_rng(4))
        assert a.same_outcome(b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AfsaConfig(exploration_q=1.0)
        with pytest.raises(ValueError):
            AfsaConfig(visual_range=0.0)
