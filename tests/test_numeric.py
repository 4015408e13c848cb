import math

import numpy as np
import pytest

from arm7ik import (Budget, KinematicModel, NelderMeadConfig, NewtonConfig,
                    batch_end_effector_positions, end_effector_position,
                    fitness, make_budget, point_and_jacobian, pseudo_inverse,
                    run_solver, tool_point)
from arm7ik.core import run_steps
from arm7ik.numeric import newton_steps, pseudo_inverse_step3
import oracles


def newton_from(model, target, start, config=NewtonConfig(),
                budget=make_budget("nr")):
    """An nr solve from a given start."""
    return run_steps(newton_steps(model, target, start, config), budget)


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
        # Checked directly, not only through make_config: NaN fails every
        # bound.
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="initial_simplex_scale"):
                NelderMeadConfig(initial_simplex_scale=bad)
        with pytest.raises(ValueError):
            NelderMeadConfig(reflection=math.nan)


class TestNewtonRaphson:
    def test_round_trip_with_perturbed_seed(self, model, rng):
        for _ in range(20):
            q_star = rng.uniform(-math.pi, math.pi, size=7)
            target = end_effector_position(model, q_star)
            seed = q_star + rng.normal(0.0, 0.05, size=7)
            result = newton_from(model, target, seed)
            assert result.converged
            assert result.final_fitness < 1e-6
            assert result.iterations_used <= 30

    def test_converges_under_the_modified_convention(self, rng):
        model = KinematicModel(lengths=(0.36, 0.42, 0.4, 0.126),
                               convention="modified")
        targets = batch_end_effector_positions(
            model, rng.uniform(model.lower, model.upper, size=(20, 7)))
        for target in targets:
            result = run_solver("nr", model, target, rng)
            assert result.final_fitness < 1e-6

    def test_unreachable_target_reports_failure(self, model, rng):
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 2.0])
        result = run_solver("nr", model, target, rng)
        assert not result.converged
        # Best possible fitness is the gap to the workspace surface.
        assert result.final_fitness >= 2.0 - 1e-6

    def test_step_descends_fitness_locally(self, model, rng):
        # One damped-free Newton step from a mild perturbation should not
        # increase the distance to the target.
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        seed = q_star + 0.02
        one = newton_from(model, target, seed,
                          budget=Budget(max_iterations=1))
        assert one.final_fitness <= fitness(model, seed, target)

    def test_trace_is_monotone_and_nonempty(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = run_solver("nr", model, target, rng)
        fits = [s[1] for s in result.trace]
        assert len(fits) >= 1
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_damped_variant_survives_aligned_start(self, model):
        # All-zero joints leave the arm stretched along z: a singular
        # Jacobian for radial targets. Damping must keep the step finite.
        target = np.array([0.5, 0.5, 1.5])
        result = newton_from(model, target, np.zeros(7),
                             NewtonConfig(damping=0.05))
        assert np.all(np.isfinite(result.joints))

    def test_joints_come_back_wrapped(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = newton_from(model, target, rng.uniform(-3, 3, 7))
        assert np.all(result.joints > -math.pi)
        assert np.all(result.joints <= math.pi)


class TestNelderMeadSolver:
    def test_seed_at_solution_converges_immediately(self, model, rng,
                                                   start_at):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = run_solver("nm", model, target, start_at(q_star))
        assert result.converged
        assert result.iterations_used == 0
        assert result.final_fitness == 0.0

    def test_round_trip_target(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = run_solver("nm", model, target, rng)
        assert result.final_fitness < 1e-3

    def test_trace_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("nm", model, target, rng)
        fits = [s[1] for s in result.trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_keeps_its_best_across_restarts(self, model, rng):
        # Out of reach, the simplex collapses onto a local minimum and
        # restarts; a restart that finds nothing better must not cost the
        # result the point it had.
        for i in range(40):
            direction = rng.normal(size=3)
            target = (np.array([0.0, 0.0, 1.0])
                      + 5.0 * direction / np.linalg.norm(direction))
            result = run_solver("nm", model, target, np.random.default_rng(i))
            assert result.final_fitness == result.trace[-1][1]
            assert fitness(model, result.joints, target) == pytest.approx(
                result.final_fitness, abs=1e-12)

    @pytest.mark.parametrize("arm_name", sorted(oracles.ARMS))
    def test_nm_matches_reference(self, arm_name):
        # nm runs on float lists and sorts ties stably; the reference is
        # the numpy simplex with a stable argsort. The target past the
        # workspace collapses the simplex, so restarts run too.
        arm = oracles.ARMS[arm_name]
        config = NelderMeadConfig()
        budget = make_budget("nm")
        rng = np.random.default_rng(29)
        for i, target in enumerate(oracles.solver_targets(arm, rng, 3)):
            got = run_solver("nm", arm, target, np.random.default_rng((i, 2)),
                             config, budget)
            want = run_steps(oracles.reference_nm_steps(
                arm, target, config, np.random.default_rng((i, 2))), budget)
            assert got.same_outcome(want)
