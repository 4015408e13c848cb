import numpy as np
import pytest

from arm7ik import (Budget, DtnrConfig, NewtonConfig, default_budget,
                    solve_dtnr, solve_newton_raphson)
from arm7ik.ml import fit_tree, generate_dataset


@pytest.fixture(scope="module")
def trained():
    from arm7ik import KinematicModel
    model = KinematicModel()
    ds = generate_dataset(model, 3000, rng=np.random.default_rng(3))
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
        assert config.newton == NewtonConfig()
        assert default_budget("dtnr").max_iterations == 15


class TestDtnrSolver:
    def test_distal_joints_stay_bitwise_at_the_tree_seed(self, trained, rng):
        model, _, tree = trained
        for _ in range(20):
            from arm7ik import sample_workspace
            target = sample_workspace(model.workspace, rng)
            result = solve_dtnr(tree, model, target)
            seed = tree.predict(target)
            assert np.array_equal(result.joints[3:], seed[3:])

    def test_training_row_targets_resolve_immediately(self, trained):
        # The min_leaf=1 tree memorises its rows, so a target that is the
        # stored position of a training row seeds the exact solution.
        model, ds, tree = trained
        hits = 0
        for target in ds.positions[:50]:
            result = solve_dtnr(tree, model, target)
            if result.final_fitness < 1e-6:
                hits += 1
        assert hits >= 45

    def test_full_refinement_matches_tree_seeded_newton(self, trained, rng):
        # dtnr on all seven joints runs nr's own loop from the tree seed;
        # the damped case takes the pseudo-inverse's other branch.
        model, _, tree = trained
        from arm7ik import sample_workspace
        for newton in (NewtonConfig(), NewtonConfig(damping=0.05)):
            for _ in range(10):
                target = sample_workspace(model.workspace, rng)
                full = solve_dtnr(tree, model, target,
                                  DtnrConfig(refine_joint_count=7,
                                             newton=newton))
                plain = solve_newton_raphson(model, target, newton,
                                             Budget(max_iterations=15),
                                             start=tree.predict(target))
                assert full.same_outcome(plain)

    def test_deterministic(self, trained, rng):
        model, _, tree = trained
        from arm7ik import sample_workspace
        target = sample_workspace(model.workspace, rng)
        a = solve_dtnr(tree, model, target)
        b = solve_dtnr(tree, model, target)
        assert a.same_outcome(b)

    def test_trace_is_monotone_and_starts_with_the_seed(self, trained, rng):
        model, _, tree = trained
        from arm7ik import sample_workspace
        target = sample_workspace(model.workspace, rng)
        result = solve_dtnr(tree, model, target)
        fits = result.trace.fitness_values()
        assert result.trace.samples[0][0] == 0
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_unreachable_target_not_converged(self, trained):
        model, _, tree = trained
        sphere = model.workspace
        target = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])
        result = solve_dtnr(tree, model, target)
        assert not result.converged
        assert result.final_fitness >= 1.0 - 1e-9
