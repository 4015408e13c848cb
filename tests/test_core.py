import math

import numpy as np
import pytest

from arm7ik import Budget, ConvergenceTrace, SolveResult, SolverId, average_traces


def make_trace(values):
    t = ConvergenceTrace()
    for i, v in enumerate(values):
        t.record(i, v, i * 0.01)
    return t


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


class TestConvergenceTrace:
    def test_first_sample_kept_as_is(self):
        t = ConvergenceTrace()
        t.record(1, 5.0, 0.0)
        assert [s[:2] for s in t.samples] == [(1, 5.0)]

    def test_better_candidate_recorded(self):
        t = ConvergenceTrace()
        t.record(1, 5.0, 0.0)
        t.record(2, 3.0, 0.1)
        assert [s[:2] for s in t.samples] == [(1, 5.0), (2, 3.0)]

    def test_best_property(self):
        assert ConvergenceTrace().best == math.inf
        assert make_trace([4.0, 3.0, 1.0]).best == 1.0

    def test_csv_round_trip(self, tmp_path):
        t = make_trace([4.0, 2.0, 1.5])
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (3, 3)
        assert np.allclose(rows[:, 1], [4.0, 2.0, 1.5])


class TestAverageTraces:
    def test_single_trace_is_identity(self):
        t = make_trace([5.0, 2.0])
        avg = average_traces([t])
        assert avg.fitness_values() == t.fitness_values()

    def test_two_constant_traces_average_to_midpoint(self):
        avg = average_traces([make_trace([2.0, 2.0]), make_trace([4.0, 4.0])])
        assert avg.fitness_values() == [3.0, 3.0]

    def test_unequal_lengths_pad_with_final_value(self):
        traces = [make_trace([4.0, 2.0]), make_trace([8.0, 6.0, 1.0, 0.5])]
        avg = average_traces(traces)

        # Independent naive recomputation with explicit last-value padding.
        padded = []
        length = max(len(t) for t in traces)
        for t in traces:
            vals = t.fitness_values()
            padded.append(vals + [vals[-1]] * (length - len(vals)))
        expected = [sum(col) / len(col) for col in zip(*padded)]
        assert avg.fitness_values() == pytest.approx(expected, abs=0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_traces([])


class TestSolveResult:
    def _result(self, fitness=0.5, iterations=3):
        return SolveResult(joints=np.arange(7.0), final_fitness=fitness,
                           iterations_used=iterations, elapsed=0.123,
                           converged=False, trace=make_trace([1.0, fitness]))

    def test_same_outcome_ignores_wall_clock(self):
        a, b = self._result(), self._result()
        b.elapsed = 99.0
        b.trace.samples = [(i, f, e + 5.0) for i, f, e in b.trace.samples]
        assert a.same_outcome(b)

    def test_same_outcome_detects_differences(self):
        a = self._result()
        assert not a.same_outcome(self._result(fitness=0.6))
        assert not a.same_outcome(self._result(iterations=4))
