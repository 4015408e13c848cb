import math

import numpy as np
import pytest

from arm7ik import (Budget, CcdConfig, KinematicModel, SaConfig,
                    acceptance_probability, ccd_joint_update,
                    end_effector_position, solve_ccd,
                    solve_sa, temperature_schedule, wrap_angle)
from arm7ik.core import run_steps
import oracles

NONUNIT = (0.36, 0.42, 0.4, 0.126)
# Both conventions, and a joint limit box other than (-pi, pi).
ARMS = {
    "unit": KinematicModel(),
    "standard": KinematicModel(lengths=NONUNIT),
    "modified": KinematicModel(lengths=NONUNIT, convention="modified"),
    "limits": KinematicModel(joint_limits=[(-1.0, 1.0)] * 7),
}


def _targets(arm, rng, count):
    """FK targets of random poses, plus one past the workspace that no
    solve reaches."""
    targets = [end_effector_position(arm, arm.random_joints(rng))
               for _ in range(count)]
    sphere = arm.workspace
    return targets + [np.array([0.0, 0.0, sphere.h + sphere.r + 0.5])]


class TestCcd:
    def test_target_at_end_effector_needs_no_cycles(self, model, rng):
        q = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q)
        result = solve_ccd(model, target, q)
        assert result.converged
        assert result.iterations_used == 0

    def test_single_joint_alignment_recovers_the_rotation(self, model, rng):
        # Rotate one joint by phi; the target then lies on the circle the
        # tool traces about that joint's axis, so one closed-form update
        # must return exactly phi. Joints 0-4 only: the tool point lies on
        # joint 6's axis, and under the modified convention on joint 5's.
        modified = KinematicModel(lengths=(0.36, 0.42, 0.4, 0.126),
                                  convention="modified")
        for arm in (model, modified):
            for _ in range(25):
                q = rng.uniform(-math.pi, math.pi, size=7)
                joint = int(rng.integers(0, 5))
                phi = rng.uniform(-2.5, 2.5)
                q_rot = q.copy()
                q_rot[joint] += phi
                target = end_effector_position(arm, q_rot)
                delta = ccd_joint_update(arm, q, joint, target)
                assert float(wrap_angle(delta - phi)) == pytest.approx(
                    0.0, abs=1e-9)

    def test_update_is_zero_on_degenerate_projection(self, model):
        # Tool point on the rotation axis: nothing to align.
        q = np.zeros(7)
        target = np.array([0.0, 0.0, 2.5])
        assert ccd_joint_update(model, q, 6, target) == 0.0

    def test_trace_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_ccd(model, target, model.random_joints(rng))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_loop_guard_stops_oscillation(self, model):
        # A straight-up target from the stretched pose makes every joint
        # update degenerate; the run must terminate well under the cap.
        target = np.array([0.0, 0.0, 4.5])
        result = solve_ccd(model, target, np.zeros(7),
                           CcdConfig(loop_guard=10),
                           Budget(max_iterations=300))
        assert not result.converged
        assert result.iterations_used < 300

    def test_base_to_tip_order_also_works(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_ccd(model, target, model.random_joints(rng),
                           CcdConfig(sweep_order="base_to_tip"))
        assert np.all(np.isfinite(result.joints))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CcdConfig(sweep_order="middle_out")


class TestSaSchedule:
    def test_geometric_cooling_sequence(self):
        config = SaConfig(t_max=100.0, t_min=20.0, cooling_rate=0.5)
        assert list(temperature_schedule(config)) == [100.0, 50.0, 25.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SaConfig(t_max=1.0, t_min=2.0)
        with pytest.raises(ValueError):
            SaConfig(cooling_rate=1.5)


class TestAcceptanceProbability:
    def test_equal_energy_always_accepted(self):
        assert acceptance_probability(0.0, 10.0) == 1.0

    def test_improvement_always_accepted(self):
        assert acceptance_probability(-1.0, 1e-30) == 1.0

    def test_metropolis_half_point(self):
        # At dE = T ln 2 the acceptance probability is exactly 1/2.
        t = 3.7
        assert acceptance_probability(t * math.log(2.0), t) == pytest.approx(
            0.5, abs=1e-12)

    def test_empirical_frequency_at_half_point(self):
        rng = np.random.default_rng(11)
        t = 2.0
        p = acceptance_probability(t * math.log(2.0), t)
        accepted = np.mean(rng.random(20_000) < p)
        assert abs(accepted - 0.5) < 0.03

    def test_literal_variant_accepts_all_worsening_moves(self):
        assert acceptance_probability(5.0, 1.0, literal=True) == 1.0

    def test_probability_decreases_with_delta(self):
        probs = [acceptance_probability(d, 1.0) for d in (0.1, 1.0, 10.0)]
        assert probs[0] > probs[1] > probs[2]


class TestSaSolver:
    def test_round_trip_target(self, model, rng):
        q_star = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q_star)
        result = solve_sa(model, target, rng=np.random.default_rng(4))
        assert result.final_fitness < 1.0

    def test_deterministic_under_fixed_seed(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        a = solve_sa(model, target, rng=np.random.default_rng(5))
        b = solve_sa(model, target, rng=np.random.default_rng(5))
        assert a.same_outcome(b)

    def test_budget_caps_temperature_levels(self, model, rng):
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])
        result = solve_sa(model, target, budget=Budget(max_iterations=5),
                          rng=np.random.default_rng(6))
        assert result.iterations_used <= 5
        assert not result.converged

    def test_trace_is_monotone(self, model, rng):
        target = end_effector_position(model,
                                       rng.uniform(-math.pi, math.pi, 7))
        result = solve_sa(model, target, rng=np.random.default_rng(7),
                          budget=Budget(max_iterations=40))
        fits = result.trace.fitness_values()
        assert all(a >= b for a, b in zip(fits, fits[1:]))


class TestAgainstReference:
    """The sa and ccd loops run on cached Horner partials; each must give
    the same outcome, bit for bit, as the reference loops in
    tests/oracles.py, which evaluate every move with a full FK."""

    @pytest.mark.parametrize("arm_name", sorted(ARMS))
    @pytest.mark.parametrize("sweep_order", ["tip_to_base", "base_to_tip"])
    def test_ccd_matches_reference(self, arm_name, sweep_order):
        arm = ARMS[arm_name]
        config = CcdConfig(sweep_order=sweep_order)
        budget = Budget(max_iterations=300)
        rng = np.random.default_rng(17)
        for target in _targets(arm, rng, 5):
            for _ in range(2):
                seed = arm.random_joints(rng)
                got = solve_ccd(arm, target, seed, config, budget)
                want = run_steps(oracles.reference_ccd_steps(
                    arm, target, seed, config), budget, wrap_angle)
                assert got.same_outcome(want)

    @pytest.mark.parametrize("arm_name", sorted(ARMS))
    @pytest.mark.parametrize("literal", [False, True])
    def test_sa_matches_reference(self, arm_name, literal):
        arm = ARMS[arm_name]
        config = SaConfig(paper_literal_acceptance=literal)
        budget = Budget(max_iterations=25)
        rng = np.random.default_rng(23)
        for i, target in enumerate(_targets(arm, rng, 3)):
            for draw in range(2):
                # One solve from a given start point, one from a drawn one.
                seed = arm.random_joints(rng) if draw else None
                got = solve_sa(arm, target, config, budget,
                               np.random.default_rng((i, draw)), seed)
                want = run_steps(oracles.reference_sa_steps(
                    arm, target, config, budget.tolerance,
                    np.random.default_rng((i, draw)), seed), budget,
                    wrap_angle)
                assert got.same_outcome(want)
