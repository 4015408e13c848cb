import math

import numpy as np
import pytest

from arm7ik import (Budget, KinematicModel, SolveResult, SolverId,
                    average_traces, end_effector_position)
from arm7ik.registry import SOLVERS, make_budget, make_config


def make_trace(values):
    return [(i, v, i * 0.01) for i, v in enumerate(values)]


def fitness_values(trace):
    return [s[1] for s in trace]


class TestBudget:
    def test_defaults(self):
        with pytest.raises(TypeError):
            Budget()  # the iteration cap has no default
        b = Budget(max_iterations=5)
        assert b.tolerance == 1e-9
        assert b.wall_clock_limit is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_iterations=0)
        with pytest.raises(ValueError):
            Budget(max_iterations=1, tolerance=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Budget(max_iterations=1, tolerance=bad)
        for bad in (math.inf, math.nan, 2.5):
            with pytest.raises(ValueError):
                Budget(max_iterations=bad)
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Budget(max_iterations=1, wall_clock_limit=bad)


class TestSolverId:
    def test_ten_solvers(self):
        assert len(SolverId) == 10

    def test_round_trip_from_string(self):
        assert SolverId("dtnr") is SolverId.DTNR


class TestAverageTraces:
    def test_single_trace_is_identity(self):
        t = make_trace([5.0, 2.0])
        assert average_traces([t]) == t

    def test_two_constant_traces_average_to_midpoint(self):
        avg = average_traces([make_trace([2.0, 2.0]), make_trace([4.0, 4.0])])
        assert fitness_values(avg) == [3.0, 3.0]

    def test_unequal_lengths_pad_with_final_value(self):
        traces = [make_trace([4.0, 2.0]), make_trace([8.0, 6.0, 1.0, 0.5])]
        avg = average_traces(traces)

        # Independent naive recomputation with explicit last-value padding.
        padded = []
        length = max(len(t) for t in traces)
        for t in traces:
            vals = fitness_values(t)
            padded.append(vals + [vals[-1]] * (length - len(vals)))
        expected = [sum(col) / len(col) for col in zip(*padded)]
        assert fitness_values(avg) == pytest.approx(expected, abs=0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_traces([])

    def test_takes_a_generator(self):
        traces = [make_trace([4.0, 2.0]), make_trace([8.0])]
        avg = average_traces(t for t in traces)
        assert avg == average_traces(traces)

    # Samples are multiples of 2**-10 below 2**10, so every sum is exact in
    # any order and the mean is one correctly rounded division.
    @pytest.mark.parametrize("lengths", [(1, 2, 60, 303), (303, 1, 60, 2),
                                         (60,), tuple(range(3, 303, 15))])
    def test_ragged_traces_hold_their_last_sample(self, lengths):
        rng = np.random.default_rng(len(lengths))
        traces, padded = [], []
        for length in lengths:
            samples = rng.integers(0, 1 << 20, (length, 2)) / 1024.0
            traces.append([(i, best, elapsed) for i, (best, elapsed)
                           in enumerate(samples.tolist())])
            padded.append(np.concatenate(
                (samples, np.repeat(samples[-1:], max(lengths) - length, 0))))
        got = average_traces(traces)
        want = np.sum(padded, 0) / len(lengths)
        assert [s[0] for s in got] == list(range(max(lengths)))
        assert [s[1:] for s in got] == [tuple(r) for r in want.tolist()]


class TestSolveResult:
    def _result(self, fitness=0.5, iterations=3):
        return SolveResult(joints=np.arange(7.0), final_fitness=fitness,
                           iterations_used=iterations, elapsed=0.123,
                           converged=False, trace=make_trace([1.0, fitness]))

    def test_same_outcome_ignores_wall_clock(self):
        a, b = self._result(), self._result()
        b.elapsed = 99.0
        b.trace = [(i, f, e + 5.0) for i, f, e in b.trace]
        assert a.same_outcome(b)

    def test_same_outcome_detects_differences(self):
        a = self._result()
        assert not a.same_outcome(self._result(fitness=0.6))
        assert not a.same_outcome(self._result(iterations=4))


class TestStepGenerators:
    @pytest.mark.parametrize("solver_id", [s for s in SolverId
                                           if s is not SolverId.DTNR])
    def test_yielded_joints_never_change(self, solver_id):
        """run_steps keeps the joints of the last yield, so a generator
        must not write into an array it has yielded: each of the first 60
        yields holds the same values after 60 more steps (or the end)."""
        model = KinematicModel()
        reach = model.workspace
        targets = [end_effector_position(model, np.full(7, 0.4)),
                   np.array([0.0, 0.0, reach.h + reach.r + 0.5])]
        _, make_steps, _ = SOLVERS[solver_id]
        for seed, target in enumerate(targets):
            steps = make_steps(model, target, make_config(solver_id),
                               make_budget(solver_id),
                               np.random.default_rng(seed + 1))
            yields = []
            for it, (joints, _) in enumerate(steps):
                if it < 60:
                    yields.append((joints, np.array(joints, copy=True)))
                elif it == 120:
                    break
            assert yields
            for joints, copy in yields:
                assert np.array_equal(joints, copy)
