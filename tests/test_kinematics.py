import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import arm7ik
from arm7ik import (DhRow, KinematicModel, WorkspaceSphere,
                    batch_end_effector_positions, batch_fitness, dh_transform,
                    end_effector_position, finite_difference_jacobian, fitness,
                    forward_kinematics, joint_axes, point_and_jacobian,
                    position_jacobian, sample_workspace,
                    sample_workspace_batch, tool_point, wrap_angle)
from arm7ik.kinematics import (BASE_FRAME, batch_evaluator, frame_pass,
                               horner_partials, pose_fitness, pose_turns,
                               TWO_PI, wrap_float)
import oracles

NONUNIT = (0.36, 0.42, 0.4, 0.126)
# A SHA-256 over 20,000 workspace rows per law on the unit arm, and one
# campaign batch's target_batch_sha256, as `line`.
SAMPLER_FINGERPRINT = """
import hashlib
import numpy as np
from arm7ik import KinematicModel, sample_workspace_batch
from arm7ik.bench import BenchmarkSpec, batch_hash, generate_target_batch
model = KinematicModel()
digest = hashlib.sha256()
for law in ("ball", "paper"):
    digest.update(sample_workspace_batch(
        model.workspace, np.random.default_rng(5), 20_000, law).tobytes())
spec = BenchmarkSpec(n_targets=200, master_seed=101)
line = f"{digest.hexdigest()} {batch_hash(generate_target_batch(model, spec))}"
"""


class TestWrapAngle:
    def test_stays_in_half_open_interval(self, rng):
        thetas = rng.uniform(-40, 40, size=1000)
        wrapped = wrap_angle(thetas)
        assert np.all(wrapped > -math.pi)
        assert np.all(wrapped <= math.pi)

    def test_boundary_values(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    @given(st.floats(min_value=-50, max_value=50))
    def test_preserves_the_angle_mod_2pi(self, theta):
        w = float(wrap_angle(theta))
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)

    @given(st.floats(-math.pi, math.pi, exclude_min=True))
    @example(math.nextafter(-math.pi, 0.0))
    @example(math.nextafter(math.pi, 0.0))
    @example(math.pi)
    @example(-0.0)
    def test_identity_in_range(self, theta):
        assert wrap_angle(theta) == theta
        assert wrap_angle(np.array([theta]))[0] == theta

    @given(st.floats(-1e3, 1e3))
    @example(math.nextafter(math.pi, 4.0))
    @example(-math.pi)
    @example(3 * math.pi)
    @example(-3 * math.pi)
    @example(math.nextafter(-math.pi, -4.0))
    def test_lands_in_range_idempotent_and_bit_equal(self, theta):
        w = wrap_angle(np.array([theta]))[0]
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w
        assert np.float64(wrap_float(theta)).tobytes() == w.tobytes()

    def test_float_wrap_is_bit_equal(self, rng):
        values = [math.pi, -math.pi, 0.0, -0.0, 1e6, -1e6, 1e6 + 0.37,
                  -1e6 - 0.37, 3 * math.pi, -3 * math.pi]
        values += rng.uniform(-20, 20, size=10_000).tolist()
        for v in values:
            w = wrap_float(v)
            assert type(w) is float
            assert np.float64(w).tobytes() == wrap_angle(v).tobytes(), v


def _turns(q):
    return [(math.cos(v), math.sin(v)) for v in q]


class TestDhTransform:
    def test_all_zero_row_is_identity(self):
        row = DhRow(alpha=0.0, a=0.0, d=0.0)
        assert np.allclose(dh_transform(row, 0.0), np.eye(4))

    def test_pure_z_offset(self):
        row = DhRow(alpha=0.0, a=0.0, d=5.0)
        t = dh_transform(row, 0.0)
        assert np.allclose(t[:3, :3], np.eye(3))
        assert np.allclose(t[:3, 3], [0.0, 0.0, 5.0])

    def test_first_table_row_matches_primitive_product(self):
        row = DhRow(alpha=-math.pi / 2, a=0.0, d=1.0)
        expected = oracles.dh_matrix(-math.pi / 2, 0.0, 1.0, 0.3)
        assert np.allclose(dh_transform(row, 0.3), expected, atol=1e-12)

    def test_random_rows_match_primitive_product(self, rng):
        for _ in range(50):
            alpha, theta = rng.uniform(-math.pi, math.pi, size=2)
            a, d = rng.uniform(-2, 2, size=2)
            row = DhRow(alpha=alpha, a=a, d=d)
            expected = oracles.dh_matrix(alpha, a, d, theta)
            assert np.allclose(dh_transform(row, theta), expected, atol=1e-12)

    def test_unknown_convention_raises(self):
        with pytest.raises(ValueError):
            dh_transform(DhRow(0.0, 0.0, 0.0), 0.0, convention="bogus")


class TestForwardKinematics:
    def test_zero_pose_matches_matrix_oracle(self, model):
        got = forward_kinematics(model, np.zeros(7))
        assert np.allclose(got, oracles.fk_matrix(np.zeros(7)), atol=1e-12)

    def test_random_poses_match_matrix_oracle(self, model, rng):
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, size=7)
            assert np.allclose(forward_kinematics(model, q),
                               oracles.fk_matrix(q), atol=1e-10)

    def test_nonunit_lengths_match_oracle(self, rng):
        for convention in ("standard", "modified"):
            model = KinematicModel(lengths=NONUNIT, convention=convention)
            qs = rng.uniform(-math.pi, math.pi, size=(1000, 7))
            expected = np.array([oracles.fk_position(q, NONUNIT, convention)
                                 for q in qs])
            single = np.array([end_effector_position(model, q) for q in qs])
            assert np.abs(single - expected).max() < 1e-12
            assert np.abs(batch_end_effector_positions(model, qs)
                          - expected).max() < 1e-12

    def test_rotation_block_is_orthonormal(self, model, rng):
        for _ in range(200):
            q = rng.uniform(-math.pi, math.pi, size=7)
            r = forward_kinematics(model, q)[:3, :3]
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12

    def test_translation_stays_in_workspace(self, model, rng):
        sphere = model.workspace
        for _ in range(300):
            q = rng.uniform(-math.pi, math.pi, size=7)
            assert sphere.contains(end_effector_position(model, q) - 1e-9)

    def test_last_joint_moves_rotation_not_position(self, model, rng):
        q = rng.uniform(-math.pi, math.pi, size=7)
        q2 = q.copy()
        q2[6] += 0.8
        t1, t2 = forward_kinematics(model, q), forward_kinematics(model, q2)
        assert np.allclose(t1[:3, 3], t2[:3, 3], atol=1e-12)
        assert not np.allclose(t1[:3, :3], t2[:3, :3], atol=1e-6)

    def test_position_is_translation_column(self, model, rng):
        for _ in range(1000):
            q = rng.uniform(-math.pi, math.pi, size=7)
            assert np.array_equal(end_effector_position(model, q),
                                  forward_kinematics(model, q)[:3, 3])

    @pytest.mark.parametrize("convention", ["standard", "modified"])
    def test_tool_axis_is_the_kernels_joint_7_axis(self, rng, convention):
        # The rotation block comes from the kernel's frame pass, so its z
        # column is joint 7's axis bit for bit; a 4x4 product rounds apart.
        arm = KinematicModel(lengths=NONUNIT, convention=convention)
        for q in rng.uniform(-math.pi, math.pi, size=(200, 7)):
            assert np.array_equal(forward_kinematics(arm, q)[:3, 2],
                                  joint_axes(arm, q)[1][6])

    def test_batch_positions_match_single(self, model, rng):
        qs = rng.uniform(-math.pi, math.pi, size=(64, 7))
        batch = batch_end_effector_positions(model, qs)
        single = np.array([end_effector_position(model, q) for q in qs])
        assert np.allclose(batch, single, atol=1e-12)

    def test_modified_convention_differs_but_is_valid(self, rng):
        modified = KinematicModel(lengths=NONUNIT, convention="modified")
        q = rng.uniform(-math.pi, math.pi, size=7)
        t = forward_kinematics(modified, q)
        assert np.abs(t[:3, :3] @ t[:3, :3].T - np.eye(3)).max() < 1e-12
        assert np.allclose(t, oracles.fk_matrix(q, NONUNIT, "modified"),
                           atol=1e-12)


class TestFitness:
    def test_zero_at_own_end_effector(self, model, rng):
        q = rng.uniform(-math.pi, math.pi, size=7)
        assert fitness(model, q, end_effector_position(model, q)) == 0.0

    def test_three_four_five_triangle(self, model, rng):
        q = rng.uniform(-math.pi, math.pi, size=7)
        target = end_effector_position(model, q) + np.array([3.0, 4.0, 0.0])
        assert fitness(model, q, target) == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_distance_formula(self, model, rng):
        for _ in range(1000):
            q = rng.uniform(-math.pi, math.pi, size=7)
            target = rng.uniform(-3, 3, size=3)
            p = oracles.fk_position(q)
            direct = math.sqrt(float(np.sum((p - target) ** 2)))
            assert fitness(model, q, target) == pytest.approx(direct, abs=1e-9)

    def test_batch_fitness_matches_loop(self, model, rng):
        qs = rng.uniform(-math.pi, math.pi, size=(32, 7))
        target = rng.uniform(-2, 2, size=3)
        batch = batch_fitness(model, qs, target)
        loop = [fitness(model, q, target) for q in qs]
        assert np.allclose(batch, loop, atol=1e-12)


class TestHornerPartials:
    def test_each_partial_is_the_tool_point_in_its_frame(self, rng):
        for convention in ("standard", "modified"):
            model = KinematicModel(lengths=NONUNIT, convention=convention)
            for _ in range(20):
                q = rng.uniform(-math.pi, math.pi, size=7)
                h = horner_partials(model, _turns(q.tolist()))
                assert h[7] == (0.0, 0.0, 0.0)
                for k in range(7):
                    assert h[k] == tool_point(model, q, frame=k), (convention, k)

    def test_moving_one_joint_reapplies_only_the_joints_below(self, rng):
        for convention in ("standard", "modified"):
            model = KinematicModel(lengths=NONUNIT, convention=convention)
            q = rng.uniform(-math.pi, math.pi, size=7).tolist()
            h = horner_partials(model, _turns(q))
            for j in range(7):
                moved = list(q)
                moved[j] += 0.3
                turns = _turns(moved)
                again = horner_partials(model, turns, h, j)
                assert again == horner_partials(model, turns)
                assert again[j + 1:] == h[j + 1:]
                # A range joint..first leaves the partials below first.
                one = horner_partials(model, turns, h, j, j)
                assert one[j:] == again[j:] and one[:j] == h[:j]


SPECIAL_ANGLES = (0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                  1e-300)


# Both conventions on the default lengths and on NONUNIT, each with its
# own pose seed, so the kernel is checked on 10,000 random poses in all.
KERNEL_ARMS = [((1.0, 1.0, 1.0, 1.0), "standard", 8),
               ((1.0, 1.0, 1.0, 1.0), "modified", 9),
               (NONUNIT, "standard", 10), (NONUNIT, "modified", 11)]


def _kernel_poses(seed, count=2_500):
    """`count` random poses over the joint limit range (-2 pi, 2 pi), then
    poses made of SPECIAL_ANGLES: each angle on every joint, 200 random
    picks of them, and 200 random poses with about half their joints
    replaced by a pick."""
    rng = np.random.default_rng(seed)
    special = np.array(SPECIAL_ANGLES)
    picks = special[rng.integers(0, special.size, size=(400, 7))]
    mixed = rng.uniform(-2 * math.pi, 2 * math.pi, size=(200, 7))
    swap = rng.random((200, 7)) < 0.5
    mixed[swap] = picks[200:][swap]
    return (rng.uniform(-2 * math.pi, 2 * math.pi, size=(count, 7)).tolist()
            + [[v] * 7 for v in SPECIAL_ANGLES] + picks[:200].tolist()
            + mixed.tolist())


class TestAgainstComplexReference:
    """The float kernel against oracles' complex-number kernel, with ==:
    Python's complex product rounds each of its four products and two sums
    as the kernel's float products do. Only the sign of an exact zero can
    differ (the complex form adds +0.0 where the float form does not), and
    == does not see it."""

    def test_turns_are_cmath_rect(self, rng):
        values = list(SPECIAL_ANGLES) + rng.uniform(-7, 7, 100_000).tolist()
        got = np.array(pose_turns(values))
        expected = np.array([(t.real, t.imag)
                             for t in oracles.reference_turns(values)])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lengths, convention, seed", KERNEL_ARMS)
    def test_points_partials_and_fitness(self, lengths, convention, seed):
        model = KinematicModel(lengths=lengths, convention=convention)
        rng = np.random.default_rng(21)
        for q in _kernel_poses(seed):
            h = oracles.reference_partials(model, q)
            assert horner_partials(model, pose_turns(q)) == h, q
            for k in range(7):
                assert tool_point(model, q, k) == h[k], (q, k)
            j = int(rng.integers(7))
            moved = list(q)
            moved[j] = float(rng.uniform(-math.pi, math.pi))
            assert (horner_partials(model, pose_turns(moved), h, j)
                    == oracles.reference_partials(model, moved)), (q, j)
            target = rng.uniform(-3, 3, size=3)
            assert (fitness(model, q, target)
                    == oracles.reference_fitness(model, q, target)), q

    @pytest.mark.parametrize("lengths, convention, seed", KERNEL_ARMS)
    def test_axes_and_jacobian(self, lengths, convention, seed):
        model = KinematicModel(lengths=lengths, convention=convention)
        rng = np.random.default_rng(22)
        for q in _kernel_poses(seed):
            joints = int(rng.integers(1, 8))
            ref = oracles.reference_joint_axes(model, q, joints)
            assert joint_axes(model, q, joints) == ref, (q, joints)
            p, rows = oracles.reference_jacobian(model, q, joints)
            got_p, jac = point_and_jacobian(model, q, joints)
            assert got_p == p and jac == rows, (q, joints)
            tail = tool_point(model, q, joints)
            got_p, jac = point_and_jacobian(model, q[:joints], joints, tail)
            assert got_p == p and jac == rows, (q, joints)


BATCH_LENGTHS = [(1.0, 1.0, 1.0, 1.0), NONUNIT, (1.0, 3.0, 0.5, 0.5)]


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


# A joint angle: any float in the limit range, or an angle whose cosine or
# sine is a signed zero or exactly +-1.
_ANGLE = st.one_of(st.sampled_from((0.0, -0.0, math.pi, -math.pi)),
                   st.floats(-TWO_PI, TWO_PI))


class TestJointSevenMovesNoPoint:
    """Joint 7 turns about the tool axis, so the single-pose kernel starts
    Horner's rule from joint 7's tool point, the same for every pose, and
    never reads joint 7's angle. Only signed zeros may differ from the
    rule applied to the origin (as the oracle does), in coordinates that
    are exactly 0: a zero times a cosine or sine keeps a sign that the
    fixed point need not have. == does not see that sign, and nor does a
    distance, so points and fitness are compared with ==; the frame pass
    reads no Horner point and is compared bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(lengths=st.tuples(*[st.floats(1e-3, 1e3)] * 4),
           convention=st.sampled_from(("standard", "modified")),
           q=st.lists(_ANGLE, min_size=7, max_size=7), q7=_ANGLE,
           target=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_joint_7_moves_no_point(self, lengths, convention, q, q7, target):
        model = KinematicModel(lengths=lengths, convention=convention)
        moved = q[:6] + [q7]
        h = oracles.reference_partials(model, q)
        assert oracles.reference_partials(model, moved) == h
        for pose in (q, moved):
            assert horner_partials(model, pose_turns(pose)) == h
            for k in range(7):
                assert tool_point(model, pose, k) == h[k]
            assert (pose_fitness(model, pose, target)
                    == oracles.reference_fitness(model, q, target))
        turns = pose_turns(moved)
        frames = []
        axes, origins, last = frame_pass(model, turns, frames=frames)
        steps, frame = [], BASE_FRAME
        for j in range(7):
            steps.append(frame_pass(model, turns[j:j + 1], j, frame))
            frame = steps[-1][2]
        for got, want in ((axes, [a for (a,), _, _ in steps]),
                          (origins, [o for _, (o,), _ in steps]),
                          (frames, [f for _, _, f in steps]), (last, frame)):
            assert np.array_equal(_bits(got), _bits(want))


def _assert_batch_matches_reference(model, qs, target):
    """Both batch entry points equal oracles' complex-array kernel as
    uint64 bit patterns, so even the sign of a zero must agree."""
    expected = np.stack(oracles.reference_batch_points(model, qs), axis=1)
    got = batch_end_effector_positions(model, qs)
    assert got.shape == (len(qs), 3)
    assert np.array_equal(_bits(got), _bits(expected))
    want = _bits(oracles.reference_batch_fitness(model, qs, target))
    assert np.array_equal(_bits(batch_fitness(model, qs, target)), want)
    assert np.array_equal(
        _bits(batch_evaluator(model, target, len(qs))(qs)), want)


class TestBatchKernelAgainstReference:
    """The batch kernel on one point buffer against the same Horner rule
    written as complex-array expressions, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.integers(1, 40), st.just(1000)),
           convention=st.sampled_from(["standard", "modified"]),
           lengths=st.sampled_from(BATCH_LENGTHS),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, n, convention, lengths, seed):
        model = KinematicModel(lengths=lengths, convention=convention)
        rng = np.random.default_rng(seed)
        qs = rng.uniform(-2 * math.pi, 2 * math.pi, size=(n, 7))
        _assert_batch_matches_reference(model, qs, rng.uniform(-3, 3, 3))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("convention", ["standard", "modified"])
    @pytest.mark.parametrize("lengths", BATCH_LENGTHS)
    def test_one_and_two_rows(self, n, convention, lengths):
        """n = 1 is where numpy's in-place products round like the float
        products; each random pose and each pose made of SPECIAL_ANGLES
        runs as its own batch of one or two rows."""
        model = KinematicModel(lengths=lengths, convention=convention)
        rng = np.random.default_rng(n)
        poses = np.array(_kernel_poses(seed=30 + n, count=300))
        for start in range(0, len(poses) - n + 1, n):
            _assert_batch_matches_reference(model, poses[start:start + n],
                                            rng.uniform(-3, 3, 3))


class TestBatchEvaluator:
    @pytest.mark.parametrize("n", [1, 2, 20, 30])
    @pytest.mark.parametrize("convention", ["standard", "modified"])
    def test_calls_are_independent_and_bit_identical(self, n, convention):
        """One evaluator, many batches: each call equals the reference on
        its own batch, whatever the calls before it left in the buffers,
        and returns an array of its own."""
        model = KinematicModel(lengths=NONUNIT, convention=convention)
        rng = np.random.default_rng(n)
        target = rng.uniform(-1, 1, 3)
        evaluate = batch_evaluator(model, target, n)
        batches = [rng.uniform(-2 * math.pi, 2 * math.pi, (n, 7))
                   for _ in range(3)]
        batches.append(np.array(_kernel_poses(seed=n, count=0))[-n:])
        batches.append(batches[0])
        outs = [evaluate(qs) for qs in batches]
        for qs, out in zip(batches, outs):
            assert np.array_equal(
                _bits(out),
                _bits(oracles.reference_batch_fitness(model, qs, target)))
        assert np.array_equal(outs[0], outs[-1])
        assert len({id(out) for out in outs}) == len(outs)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(outs) for b in outs[i + 1:])

    def test_target_must_be_a_point(self, model):
        with pytest.raises(ValueError, match=r"\(3,\)"):
            batch_evaluator(model, np.zeros(2), 4)


class TestBatchShapes:
    @pytest.mark.parametrize("shape", [(5, 6), (5, 8), (7,), (1, 5, 7)])
    def test_joint_array_must_be_n_by_7(self, model, shape):
        qs = np.zeros(shape)
        with pytest.raises(ValueError, match=r"\(n, 7\)"):
            batch_end_effector_positions(model, qs)
        with pytest.raises(ValueError, match=r"\(n, 7\)"):
            batch_fitness(model, qs, np.zeros(3))

    @pytest.mark.parametrize("target", [np.zeros(2), np.zeros(1), 0.0,
                                        np.zeros((1, 3)), np.zeros(4)])
    def test_target_must_be_a_point(self, model, target):
        with pytest.raises(ValueError, match=r"\(3,\)"):
            batch_fitness(model, np.zeros((4, 7)), target)

    def test_empty_batch(self, model):
        qs = np.zeros((0, 7))
        assert batch_end_effector_positions(model, qs).shape == (0, 3)
        assert batch_fitness(model, qs, np.zeros(3)).shape == (0,)


class TestFramePass:
    def test_a_pass_in_pieces_equals_one_pass(self, rng):
        for convention in ("standard", "modified"):
            model = KinematicModel(lengths=NONUNIT, convention=convention)
            turns = _turns(rng.uniform(-math.pi, math.pi, size=7).tolist())
            whole = frame_pass(model, turns)
            for j in range(1, 7):
                head = frame_pass(model, turns[:j])
                tail = frame_pass(model, turns[j:], j, head[2])
                assert (head[0] + tail[0], head[1] + tail[1],
                        tail[2]) == whole


class TestJacobian:
    def test_agrees_with_central_differences(self, model, rng):
        for arm in (model, KinematicModel(lengths=NONUNIT),
                    KinematicModel(lengths=NONUNIT, convention="modified")):
            worst = 0.0
            for _ in range(100):
                q = rng.uniform(-math.pi, math.pi, size=7)
                err = np.abs(position_jacobian(arm, q)
                             - finite_difference_jacobian(arm, q)).max()
                worst = max(worst, err)
            assert worst < 1e-5, arm.convention

    def test_point_is_the_tool_point(self, rng):
        for convention in ("standard", "modified"):
            model = KinematicModel(lengths=NONUNIT, convention=convention)
            q = rng.uniform(-math.pi, math.pi, size=7)
            p, rows = point_and_jacobian(model, q)
            jac = np.array(rows)
            assert np.allclose(p, end_effector_position(model, q), atol=1e-15)
            assert np.array_equal(jac, position_jacobian(model, q))
            # The leading joints alone, with the rest as a fixed tool point.
            p3, jac3 = point_and_jacobian(model, q, 3, tool_point(model, q, 3))
            assert np.allclose(p3, p, atol=1e-15)
            assert np.allclose(jac3, jac[:, :3], atol=1e-15)

    def test_last_column_is_zero(self, model, rng):
        # The tool point sits on joint 7's axis, so that joint cannot
        # translate it.
        q = rng.uniform(-math.pi, math.pi, size=7)
        assert np.abs(position_jacobian(model, q)[:, 6]).max() < 1e-12

    def test_rank_at_most_three(self, model, rng):
        for _ in range(20):
            q = rng.uniform(-math.pi, math.pi, size=7)
            assert np.linalg.matrix_rank(position_jacobian(model, q)) <= 3


class TestWorkspaceSphere:
    def test_geometry_from_lengths(self):
        model = KinematicModel(lengths=(2.0, 3.0, 4.0, 5.0))
        sphere = model.workspace
        assert sphere.h == 2.0
        assert sphere.r == 12.0

    def test_membership_edges(self, model):
        sphere = model.workspace
        assert sphere.contains([0.0, 0.0, sphere.h])
        assert sphere.contains([0.0, 0.0, sphere.h + sphere.r])
        assert not sphere.contains([0.0, 0.0, sphere.h + sphere.r + 1e-3])


class TestSampler:
    def test_all_samples_reachable(self, model, rng):
        sphere = model.workspace
        pts = sample_workspace_batch(sphere, rng, 100_000)
        radii = np.linalg.norm(pts - [0.0, 0.0, sphere.h], axis=1)
        assert np.all(radii <= sphere.r + 1e-12)

    def test_single_sample_reachable_and_deterministic(self, model):
        sphere = model.workspace
        a = sample_workspace(sphere, np.random.default_rng(9))
        b = sample_workspace(sphere, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert sphere.contains(a)

    def test_ball_law_half_radius_mass(self, model):
        # Uniform over the ball: P(r <= R/2) = (1/2)^3 = 1/8.
        sphere = model.workspace
        pts = sample_workspace_batch(sphere, np.random.default_rng(1), 200_000)
        radii = np.linalg.norm(pts - [0.0, 0.0, sphere.h], axis=1)
        frac = np.mean(radii <= sphere.r / 2)
        assert abs(frac - 0.125) < 0.01

    def test_paper_law_half_radius_mass(self, model):
        # Square-root radial law: P(r <= R/2) = 1/4.
        sphere = model.workspace
        pts = sample_workspace_batch(sphere, np.random.default_rng(2), 200_000,
                                     law="paper")
        radii = np.linalg.norm(pts - [0.0, 0.0, sphere.h], axis=1)
        assert abs(np.mean(radii <= sphere.r / 2) - 0.25) < 0.01

    def test_ball_law_equal_volume_shells(self, model):
        # Ten shells of equal volume should be equally occupied.
        from scipy import stats
        sphere = model.workspace
        pts = sample_workspace_batch(sphere, np.random.default_rng(3),
                                     1_000_000)
        radii = np.linalg.norm(pts - [0.0, 0.0, sphere.h], axis=1)
        edges = sphere.r * (np.arange(11) / 10.0) ** (1.0 / 3.0)
        counts, _ = np.histogram(radii, bins=edges)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001

    @pytest.mark.parametrize("lengths", [(1.0, 1.0, 1.0, 1.0), NONUNIT])
    def test_batch_reads_the_stream_of_repeated_single_calls(self, lengths):
        # Row i is built from the three uniforms the i-th single call
        # reads, with the same rounding: under both laws the rows equal
        # repeated sample_workspace calls and the scalar reference byte
        # for byte, and the streams end at the same place.
        sphere = KinematicModel(lengths=lengths).workspace
        for seed in range(3):
            for law in ("paper", "ball"):
                rngs = [np.random.default_rng(seed) for _ in range(3)]
                batch = sample_workspace_batch(sphere, rngs[0], 2000, law)
                single = np.array([sample_workspace(sphere, rngs[1], law)
                                   for _ in range(2000)])
                reference = np.array([
                    oracles.reference_workspace_sample(sphere, rngs[2], law)
                    for _ in range(2000)])
                assert batch.tobytes() == single.tobytes()
                assert batch.tobytes() == reference.tobytes()
                assert len({rng.random() for rng in rngs}) == 1

    def test_bits_do_not_depend_on_numpy_dispatch(self):
        # numpy picks some kernels by the SIMD extensions it finds on the
        # CPU; with all of them disabled it runs its baseline kernels, and
        # the sampler's bits must not move.
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
        if not found:
            pytest.skip("numpy found no SIMD extension above its baseline")
        here = {}
        exec(SAMPLER_FINGERPRINT, here)
        src = str(Path(arm7ik.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", SAMPLER_FINGERPRINT + "print(line)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src,
                 "NPY_DISABLE_CPU_FEATURES": " ".join(found)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here["line"]

    def test_unknown_law_raises(self, model, rng):
        with pytest.raises(ValueError):
            sample_workspace(model.workspace, rng, law="gauss")
        with pytest.raises(ValueError):
            sample_workspace_batch(model.workspace, rng, 4, law="gauss")


class TestModelValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            KinematicModel(lengths=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            KinematicModel(lengths=(1.0, -1.0, 1.0, 1.0))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            KinematicModel(joint_limits=[(1.0, -1.0)] * 7)
        with pytest.raises(ValueError):
            KinematicModel(joint_limits=[(0.0, 1.0)] * 6)

    def test_rejects_bad_convention(self):
        with pytest.raises(ValueError):
            KinematicModel(convention="classic")

    def test_clip_to_limits(self):
        limits = [(-1.0, 1.0)] * 7
        model = KinematicModel(joint_limits=limits)
        q = np.array([3.0, -3.0, 0.5, 2.0, -2.0, 0.0, 1.0])
        clipped = model.clip_to_limits(q)
        assert np.all(clipped >= -1.0)
        assert np.all(clipped <= 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_clip_to_limits_is_clip_of_the_wrap(self, seed):
        """In place on the wrapped copy, and skipped for boxes that hold
        [-pi, pi], it still equals np.clip(wrap_angle(q), lower, upper),
        NaN entries included, and leaves q as it was."""
        rng = np.random.default_rng(seed)
        boxes = [rng.uniform(-TWO_PI, TWO_PI, (7, 2)) for _ in range(4)]
        boxes = [np.sort(b, axis=1) for b in boxes]
        boxes += [[(-math.pi, math.pi)] * 7, [(-TWO_PI, TWO_PI)] * 7,
                  [(-math.pi, 3.0)] + [(-4.0, 4.0)] * 6]
        q = rng.uniform(-10, 10, (40, 7))
        q[rng.random(q.shape) < 0.1] = math.nan
        q[0] = [math.pi, -math.pi, 0.0, -0.0, TWO_PI, 3.0, -3.0]
        for box in boxes:
            model = KinematicModel(joint_limits=box)
            before = q.copy()
            got = model.clip_to_limits(q)
            want = np.clip(wrap_angle(q), model.lower, model.upper)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(q, before, equal_nan=True)
            assert not np.shares_memory(got, q)

    def test_limits_are_read_only(self):
        # clip_to_limits decides once, from the limits, whether it clips.
        model = KinematicModel()
        for limit in (model.lower, model.upper):
            with pytest.raises(ValueError, match="read-only"):
                limit[0] = 0.0

    def test_random_joints_within_limits(self, model, rng):
        q = model.random_joints(rng)
        assert q.shape == (7,)
        assert np.all(q >= model.lower)
        assert np.all(q <= model.upper)
