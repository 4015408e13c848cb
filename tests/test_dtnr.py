import numpy as np
import pytest

from arm7ik import (Budget, DtnrConfig, NewtonConfig, make_budget,
                    run_solver)
from arm7ik.ml import fit_tree, generate_dataset


@pytest.fixture(scope="module")
def trained():
    from arm7ik import KinematicModel
    model = KinematicModel()
    ds = generate_dataset(model, 3000, seed=3)
    tree = fit_tree(ds, min_leaf=1)
    return model, ds, tree


class TestDtnrConfig:
    def test_refine_count_bounds(self):
        with pytest.raises(ValueError):
            DtnrConfig(refine_joint_count=0)
        with pytest.raises(ValueError):
            DtnrConfig(refine_joint_count=8)

    def test_defaults(self):
        config = DtnrConfig()
        assert config.refine_joint_count == 3
        assert (config.damping, config.step_scale) == (
            NewtonConfig().damping, NewtonConfig().step_scale)
        assert make_budget("dtnr").max_iterations == 15


class TestDtnrSolver:
    def test_distal_joints_stay_bitwise_at_the_tree_seed(self, trained, rng):
        # The one finish wraps every joint, and the tree's guess is already
        # wrapped, so the joints dtnr does not refine keep every bit.
        model, _, tree = trained
        from arm7ik import sample_workspace
        for k in range(1, 8):
            config = DtnrConfig(refine_joint_count=k)
            for _ in range(20):
                target = sample_workspace(model.workspace, rng)
                result = run_solver("dtnr", model, target, None, config,
                                    tree=tree)
                seed = tree.predict(target)
                assert result.joints[k:].tobytes() == seed[k:].tobytes()

    def test_training_row_targets_resolve_immediately(self, trained):
        # The min_leaf=1 tree memorises its rows, so a target that is the
        # stored position of a training row seeds the exact solution.
        model, ds, tree = trained
        hits = 0
        for target in ds.positions[:50]:
            result = run_solver("dtnr", model, target, None, tree=tree)
            if result.final_fitness < 1e-6:
                hits += 1
        assert hits >= 45

    def test_full_refinement_matches_tree_seeded_newton(self, trained, rng,
                                                        start_at):
        # dtnr on all seven joints runs nr's own loop from the tree seed;
        # the damped case takes the pseudo-inverse's other branch.
        model, _, tree = trained
        from arm7ik import sample_workspace
        for damping in (0.0, 0.05):
            for _ in range(10):
                target = sample_workspace(model.workspace, rng)
                full = run_solver("dtnr", model, target, None,
                                  DtnrConfig(refine_joint_count=7,
                                             damping=damping), tree=tree)
                plain = run_solver("nr", model, target,
                                   start_at(tree.predict(target)),
                                   NewtonConfig(damping=damping),
                                   Budget(max_iterations=15))
                assert full.same_outcome(plain)

    def test_deterministic(self, trained, rng):
        model, _, tree = trained
        from arm7ik import sample_workspace
        target = sample_workspace(model.workspace, rng)
        a = run_solver("dtnr", model, target, None, tree=tree)
        b = run_solver("dtnr", model, target, None, tree=tree)
        assert a.same_outcome(b)

    def test_trace_is_monotone_and_starts_with_the_seed(self, trained, rng):
        model, _, tree = trained
        from arm7ik import sample_workspace
        target = sample_workspace(model.workspace, rng)
        result = run_solver("dtnr", model, target, None, tree=tree)
        fits = [s[1] for s in result.trace]
        assert result.trace[0][0] == 0
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_unreachable_target_not_converged(self, trained):
        model, _, tree = trained
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])
        result = run_solver("dtnr", model, target, None, tree=tree)
        assert not result.converged
        assert result.final_fitness >= 1.0 - 1e-9


def test_final_fitness_cannot_beat_the_shoulder_sphere():
    # At refine_joint_count=3 dtnr moves only joints 1-3, which all turn
    # about one point s, the origin of joint 2's axis: (0, 0, d1) under
    # the standard convention, (0, d1, ~0) under the modified one. With
    # joints 4-7 at the tree seed the tool point stays on the sphere of
    # radius |p(seed) - s| about s, so no solve gets closer to the target
    # t than | |t - s| - |p(seed) - s| |. Only this lower bound is a
    # property: the gap above it is what the Newton loop has not closed.
    from arm7ik import (KinematicModel, end_effector_position, joint_axes,
                        tool_point)
    rng = np.random.default_rng(11)
    config = DtnrConfig(refine_joint_count=3)
    for i in range(12):
        lengths = tuple(10.0 ** rng.uniform(-2.0, 2.0, 4))
        model = KinematicModel(lengths=lengths,
                               convention=("standard", "modified")[i % 2])
        tree = fit_tree(generate_dataset(model, 3000, seed=i))
        s = np.array(joint_axes(model, np.zeros(7))[2][1])
        for _ in range(40):
            t = end_effector_position(model, model.random_joints(rng))
            p = np.array(tool_point(model, tree.predict(t)))
            reach, radius = np.linalg.norm(t - s), np.linalg.norm(p - s)
            result = run_solver("dtnr", model, t, None, config, tree=tree)
            gap = result.final_fitness - abs(reach - radius)
            assert gap / (1.0 + reach + radius) >= -1e-12
