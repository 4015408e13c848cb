import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arm7ik import (AfsaConfig, Budget, PsoConfig, QpsoConfig,
                    end_effector_position, run_solver)
from arm7ik.core import run_steps
from arm7ik.swarm import (DRAW_BLOCK, DRAW_DOUBLES, afsa_prey_step,
                          draw_blocks, pso_velocity_update, qpso_attractor)
import oracles


class TestDrawBlocks:
    @pytest.mark.parametrize("shape, cap", [((2, 20, 7), 65),
                                            ((3, 20, 7), 1),
                                            ((2, 300, 7), 10),
                                            ((3, 2000, 7), 3)])
    def test_same_doubles_as_one_draw_per_iteration(self, shape, cap):
        blocks = list(draw_blocks(np.random.default_rng(9),
                                  Budget(max_iterations=cap), shape))
        rng = np.random.default_rng(9)
        want = [rng.random(shape) for _ in range(cap)]
        assert np.array_equal(np.concatenate(blocks), want)
        assert rng.random() == np.random.default_rng(9).random(
            cap * math.prod(shape) + 1)[-1]

    @pytest.mark.parametrize("shape", [(2, 20, 7), (3, 20, 7),
                                       (2, 300, 7), (3, 2000, 7)])
    def test_blocks_are_bounded_in_iterations_and_doubles(self, shape):
        per_iteration = math.prod(shape)
        for block in draw_blocks(np.random.default_rng(0),
                                 Budget(max_iterations=70), shape):
            assert 1 <= len(block) <= DRAW_BLOCK
            assert len(block) == 1 or block.size <= DRAW_DOUBLES
        # The default populations still draw a full block.
        if shape[1] == 20:
            assert next(draw_blocks(np.random.default_rng(0),
                                    Budget(max_iterations=70),
                                    shape)).shape[0] == DRAW_BLOCK


class TestPsoVelocityUpdate:
    def test_ballistic_motion_with_zero_attraction(self, rng):
        v = rng.normal(size=(5, 7))
        x = rng.normal(size=(5, 7))
        out = pso_velocity_update(v, x, np.stack((x + 1, x - 1)), 1.0,
                                  np.zeros((2, 5, 7)))
        assert np.array_equal(out, v)

    def test_reduces_to_inertia_term_at_the_best_point(self, rng):
        v = rng.normal(size=7)
        x = rng.normal(size=7)
        out = pso_velocity_update(v, x, np.stack((x, x)), 0.7,
                                  1.5 * rng.random((2, 7)))
        assert np.allclose(out, 0.7 * v, atol=1e-15)

    def test_matches_direct_formula(self, rng):
        v, x, pb, gb = rng.normal(size=(4, 7))
        r1, r2 = rng.random((2, 7))
        expected = 0.5 * v + 1.2 * r1 * (pb - x) + 1.8 * r2 * (gb - x)
        out = pso_velocity_update(v, x, np.stack((pb, gb)), 0.5,
                                  np.stack((1.2 * r1, 1.8 * r2)))
        assert np.array_equal(out, expected)

    def test_leaves_its_inputs_alone(self, rng):
        v, x = rng.normal(size=(2, 5, 7))
        pull, coeffs = rng.normal(size=(2, 2, 5, 7))
        before = [a.copy() for a in (v, x, pull, coeffs)]
        pso_velocity_update(v, x, pull, 0.7, coeffs)
        assert all(np.array_equal(a, b)
                   for a, b in zip((v, x, pull, coeffs), before))


class TestPsoSolver:
    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("pso", model, target, np.random.default_rng(1))
        assert result.final_fitness < 1.0

    def test_gbest_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("pso", model, target, np.random.default_rng(2),
                            budget=Budget(max_iterations=50))
        fits = [s[1] for s in result.trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = run_solver("pso", model, target, np.random.default_rng(3),
                       budget=Budget(max_iterations=30))
        b = run_solver("pso", model, target, np.random.default_rng(3),
                       budget=Budget(max_iterations=30))
        assert a.same_outcome(b)

    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_pso_matches_reference(self, arm_name):
        oracles.assert_solver_matches(
            "pso", oracles.reference_pso_steps,
            oracles.POPULATION_ARMS[arm_name], PsoConfig())

    # Uniforms are drawn DRAW_BLOCK (32) iterations at a time, never past
    # the cap: budgets at and around the block's edges.
    @pytest.mark.parametrize("max_iterations", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_pso_matches_reference_across_draw_blocks(self, arm_name,
                                                      max_iterations):
        oracles.assert_solver_matches(
            "pso", oracles.reference_pso_steps,
            oracles.POPULATION_ARMS[arm_name], PsoConfig(), max_iterations)

    # 300 particles draw 3 iterations per block (DRAW_DOUBLES).
    def test_pso_matches_reference_in_smaller_blocks(self):
        oracles.assert_solver_matches(
            "pso", oracles.reference_pso_steps, oracles.POPULATION_ARMS["wide"],
            PsoConfig(num_particles=300), 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(num_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=-0.1)


class TestQpso:
    def test_attractor_of_equal_bests_is_that_point(self, rng):
        p = rng.normal(size=(6, 7))
        phi = np.random.default_rng(0).random(p.shape)
        out = qpso_attractor(p, p[0], phi, 1.0 - phi)
        # With pbest == gbest per dimension the convex combination is
        # the point itself wherever they coincide.
        same = qpso_attractor(p[0][None, :].repeat(6, axis=0), p[0], phi,
                              1.0 - phi)
        assert np.allclose(same, p[0], atol=1e-15)
        assert out.shape == p.shape

    def test_attractor_lies_between_the_bests(self, rng):
        pbest = np.zeros((4, 7))
        gbest = np.ones(7)
        phi = rng.random(pbest.shape)
        out = qpso_attractor(pbest, gbest, phi, 1.0 - phi)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_attractor_matches_direct_formula(self, rng):
        pbest = rng.normal(size=(4, 7))
        gbest = np.tile(rng.normal(size=7), (4, 1))
        phi = rng.random(pbest.shape)
        out = qpso_attractor(pbest, gbest, phi, 1.0 - phi)
        assert np.array_equal(out, phi * pbest + (1.0 - phi) * gbest)

    def test_round_trip_target(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("qpso", model, target, np.random.default_rng(4))
        assert result.final_fitness < 1.0

    def test_gbest_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("qpso", model, target, np.random.default_rng(5),
                            budget=Budget(max_iterations=50))
        fits = [s[1] for s in result.trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = run_solver("qpso", model, target, np.random.default_rng(6),
                       budget=Budget(max_iterations=30))
        b = run_solver("qpso", model, target, np.random.default_rng(6),
                       budget=Budget(max_iterations=30))
        assert a.same_outcome(b)

    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_qpso_matches_reference(self, arm_name):
        oracles.assert_solver_matches(
            "qpso", oracles.reference_qpso_steps,
            oracles.POPULATION_ARMS[arm_name], QpsoConfig())

    # Uniforms are drawn DRAW_BLOCK (32) iterations at a time, never past
    # the cap: budgets at and around the block's edges.
    @pytest.mark.parametrize("max_iterations", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("arm_name", sorted(oracles.POPULATION_ARMS))
    def test_qpso_matches_reference_across_draw_blocks(self, arm_name,
                                                       max_iterations):
        oracles.assert_solver_matches(
            "qpso", oracles.reference_qpso_steps,
            oracles.POPULATION_ARMS[arm_name], QpsoConfig(), max_iterations)

    # 300 particles draw 2 iterations per block (DRAW_DOUBLES).
    def test_qpso_matches_reference_in_smaller_blocks(self):
        oracles.assert_solver_matches(
            "qpso", oracles.reference_qpso_steps,
            oracles.POPULATION_ARMS["wide"], QpsoConfig(num_particles=300), 10)

    def test_single_particle_rejected(self, model):
        with pytest.raises(ValueError):
            run_solver("qpso", model, np.array([0.5, 0.5, 1.0]),
                       np.random.default_rng(7),
                       QpsoConfig(num_particles=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QpsoConfig(beta_start=0.0)
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                QpsoConfig(num_particles=n)
        QpsoConfig(num_particles=2)


class TestAfsa:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_prey_step_never_exceeds_visual_range(self, seed):
        step = afsa_prey_step(np.random.default_rng(seed), 0.6)
        assert np.linalg.norm(step) <= 0.6 + 1e-12

    def test_population_one_completes(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("afsa", model, target, np.random.default_rng(1),
                            AfsaConfig(population_size=1),
                            Budget(max_iterations=60))
        assert np.all(np.isfinite(result.joints))
        assert result.iterations_used <= 60

    def test_population_three_exercises_social_moves(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("afsa", model, target, np.random.default_rng(2),
                            AfsaConfig(population_size=3),
                            Budget(max_iterations=40))
        assert np.all(np.isfinite(result.joints))

    def test_best_curve_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = run_solver("afsa", model, target, np.random.default_rng(3),
                            budget=Budget(max_iterations=60))
        fits = [s[1] for s in result.trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = run_solver("afsa", model, target, np.random.default_rng(4),
                       budget=Budget(max_iterations=40))
        b = run_solver("afsa", model, target, np.random.default_rng(4),
                       budget=Budget(max_iterations=40))
        assert a.same_outcome(b)

    @pytest.mark.parametrize("arm_name", sorted(oracles.ARMS))
    @pytest.mark.parametrize("population", [1, 5])
    def test_afsa_matches_reference(self, arm_name, population):
        # Prey moves run in plain floats; the reference makes them on numpy
        # vectors through clip_to_limits. With a population of 5 in the
        # (-1, 1) box, fish come within visual range of each other, so the
        # swarm and follow moves run too.
        arm = oracles.ARMS[arm_name]
        config = AfsaConfig(population_size=population)
        budget = Budget(max_iterations=60)
        rng = np.random.default_rng(31)
        for i, target in enumerate(oracles.solver_targets(arm, rng, 3)):
            got = run_solver("afsa", arm, target,
                             np.random.default_rng((i, 3)), config, budget)
            want = run_steps(oracles.reference_afsa_steps(
                arm, target, config, np.random.default_rng((i, 3))), budget)
            assert got.same_outcome(want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AfsaConfig(exploration_q=1.0)
        with pytest.raises(ValueError):
            AfsaConfig(visual_range=0.0)
        for n in (0, -1):
            with pytest.raises(ValueError):
                AfsaConfig(population_size=n)
