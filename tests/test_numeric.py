import math

import numpy as np
import pytest

from arm7ik import (Budget, KinematicModel, NelderMeadConfig, NewtonConfig,
                    batch_end_effector_positions, end_effector_position,
                    fitness, nelder_mead_minimize, point_and_jacobian,
                    pseudo_inverse, solve_nelder_mead, solve_newton_raphson,
                    tool_point)
from arm7ik.numeric import pseudo_inverse_step3


class TestPseudoInverse:
    def test_identity_block(self):
        j = np.hstack([np.eye(3), np.zeros((3, 4))])
        assert np.allclose(pseudo_inverse(j), j.T, atol=1e-12)

    def test_zero_matrix_maps_to_zero(self):
        assert np.allclose(pseudo_inverse(np.zeros((3, 7))), np.zeros((7, 3)))

    def test_penrose_condition_on_random_matrices(self, rng):
        for _ in range(50):
            j = rng.normal(size=(3, 7))
            j_pinv = pseudo_inverse(j)
            assert np.abs(j @ j_pinv @ j - j).max() < 1e-9

    def test_damped_formula(self, rng):
        j = rng.normal(size=(3, 7))
        lam = 0.3
        expected = j.T @ np.linalg.inv(j @ j.T + lam ** 2 * np.eye(3))
        assert np.allclose(pseudo_inverse(j, damping=lam), expected, atol=1e-12)

    def test_damped_is_finite_on_singular_input(self):
        j = np.zeros((3, 7))
        j[0, 0] = 1.0  # rank one
        assert np.all(np.isfinite(pseudo_inverse(j, damping=0.1)))

    def test_closed_form_3x3_step_matches_the_svd(self, rng):
        arms = [KinematicModel(lengths=(0.36, 0.42, 0.4, 0.126),
                               convention=c) for c in ("standard", "modified")]
        for _ in range(200):
            u, _, vt = np.linalg.svd(rng.normal(size=(3, 3)))
            cases = [rng.normal(size=(3, 3)),
                     u @ np.diag([2.0, rng.uniform(1e-3, 1.0), 0.0]) @ vt]
            # dtnr's Jacobians, which have rank 2.
            for arm in arms:
                q = rng.uniform(-math.pi, math.pi, size=7)
                cases.append(np.array(point_and_jacobian(
                    arm, q, 3, tool_point(arm, q, 3))[1]))
            e = rng.normal(size=3)
            for j in cases:
                step = pseudo_inverse_step3(j.tolist(), tuple(e))
                assert np.allclose(step, pseudo_inverse(j) @ e,
                                   rtol=1e-9, atol=1e-9)

    def test_closed_form_3x3_step_leaves_rank_one_to_the_svd(self, rng):
        u, _, vt = np.linalg.svd(rng.normal(size=(3, 3)))
        for j in (u @ np.diag([2.0, 0.0, 0.0]) @ vt, np.zeros((3, 3))):
            assert pseudo_inverse_step3(j.tolist(), (1.0, 2.0, 3.0)) is None


class TestConfigs:
    def test_newton_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(damping=-1.0)
        with pytest.raises(ValueError):
            NewtonConfig(step_scale=0.0)

    def test_nelder_mead_validation(self):
        with pytest.raises(ValueError):
            NelderMeadConfig(expansion=0.5)
        with pytest.raises(ValueError):
            NelderMeadConfig(contraction=1.5)


class TestNewtonRaphson:
    def test_round_trip_with_perturbed_seed(self, model, rng):
        for _ in range(20):
            q_star = rng.uniform(-math.pi, math.pi, size=7)
            target = end_effector_position(model, q_star)
            seed = q_star + rng.normal(0.0, 0.05, size=7)
            result = solve_newton_raphson(model, target, start=seed)
            assert result.converged
            assert result.final_fitness < 1e-6
            assert result.iterations_used <= 30

    def test_converges_under_the_modified_convention(self, rng):
        model = KinematicModel(lengths=(0.36, 0.42, 0.4, 0.126),
                               convention="modified")
        targets = batch_end_effector_positions(
            model, rng.uniform(model.lower, model.upper, size=(20, 7)))
        for target in targets:
            result = solve_newton_raphson(model, target,
                                          start=model.random_joints(rng))
            assert result.final_fitness < 1e-6

    def test_unreachable_target_reports_failure(self, model, rng):
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 2.0])
        result = solve_newton_raphson(model, target,
                                      start=model.random_joints(rng))
        assert not result.converged
        # Best possible fitness is the gap to the workspace surface.
        assert result.final_fitness >= 2.0 - 1e-6

    def test_step_descends_fitness_locally(self, model, rng):
        # One damped-free Newton step from a mild perturbation should not
        # increase the distance to the target.
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        seed = q_star + 0.02
        one = solve_newton_raphson(model, target,
                                   budget=Budget(max_iterations=1), start=seed)
        assert one.final_fitness <= fitness(model, seed, target)

    def test_trace_is_monotone_and_nonempty(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = solve_newton_raphson(model, target,
                                      start=model.random_joints(rng))
        fits = result.trace.fitness_values()
        assert len(fits) >= 1
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_damped_variant_survives_aligned_start(self, model):
        # All-zero joints leave the arm stretched along z: a singular
        # Jacobian for radial targets. Damping must keep the step finite.
        target = np.array([0.5, 0.5, 1.5])
        result = solve_newton_raphson(model, target,
                                      NewtonConfig(damping=0.05),
                                      start=np.zeros(7))
        assert np.all(np.isfinite(result.joints))

    def test_joints_come_back_wrapped(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = solve_newton_raphson(model, target,
                                      start=rng.uniform(-3, 3, 7))
        assert np.all(result.joints > -math.pi)
        assert np.all(result.joints <= math.pi)


class TestNelderMeadCore:
    def test_two_dimensional_quadratic(self):
        # Sphere function restricted to two coordinates; the analytic
        # minimiser is the centre itself.
        center = np.array([0.7, -0.4])

        def obj(x):
            return float(np.sum((x - center) ** 2))

        budget = Budget(max_iterations=500, tolerance=1e-17)
        x, value, _ = nelder_mead_minimize(obj, np.zeros(2),
                                           NelderMeadConfig(),
                                           budget)
        assert np.abs(x - center).max() < 1e-8
        assert value < 1e-16

    def test_stops_without_restart_sampler_on_collapse(self):
        x, value, it = nelder_mead_minimize(
            lambda x: 0.0, np.zeros(3),
            NelderMeadConfig(),
            Budget(max_iterations=50, tolerance=1e-30))
        assert it <= 50
        assert value == 0.0


class TestNelderMeadSolver:
    def test_seed_at_solution_converges_immediately(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = solve_nelder_mead(model, target, start=q_star)
        assert result.converged
        assert result.iterations_used == 0
        assert result.final_fitness == 0.0

    def test_round_trip_target(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = solve_nelder_mead(model, target, rng=rng,
                                   start=model.random_joints(rng))
        assert result.final_fitness < 1e-3

    def test_trace_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_nelder_mead(model, target, rng=rng,
                                   start=model.random_joints(rng))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))
