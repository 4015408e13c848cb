"""Shared solver contract: budgets, convergence traces, results and the
one loop that drives every solver."""
from __future__ import annotations

import csv
import enum
import math
import time
from dataclasses import dataclass

import numpy as np


class SolverId(str, enum.Enum):
    DTNR = "dtnr"
    NR = "nr"
    NM = "nm"
    SA = "sa"
    PSO = "pso"
    QPSO = "qpso"
    CCD = "ccd"
    AFSA = "afsa"
    GA = "ga"
    DE = "de"


@dataclass(frozen=True)
class Budget:
    """Stop conditions common to all solvers.

    ``tolerance`` is the solver's own stop criterion in mm; the benchmark
    success threshold (1 mm) is a separate, looser knob.
    """
    max_iterations: int = 1000
    tolerance: float = 1e-9
    wall_clock_limit: float | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


# Each solver's iteration cap when no budget is given: Newton steps, simplex
# moves, CCD cycles, temperature levels or generations.
DEFAULT_ITERATIONS = {
    SolverId.DTNR: 15,
    SolverId.NR: 30,
    SolverId.NM: 799,
    SolverId.SA: 400,
    SolverId.PSO: 200,
    SolverId.QPSO: 302,
    SolverId.CCD: 300,
    SolverId.AFSA: 200,
    SolverId.GA: 100,
    SolverId.DE: 100,
}


def default_budget(solver_id):
    return Budget(max_iterations=DEFAULT_ITERATIONS[SolverId(solver_id)])


class ConvergenceTrace:
    """Running-minimum fitness history: (iteration, best_so_far, elapsed)."""

    def __init__(self):
        self.samples: list[tuple[int, float, float]] = []

    def record(self, iteration: int, candidate_fitness: float, elapsed: float):
        """Append one sample, clipping to the running minimum."""
        if self.samples:
            last_it, last_best, _ = self.samples[-1]
            if iteration <= last_it:
                raise ValueError(
                    f"iteration {iteration} not after last recorded {last_it}")
            best = min(candidate_fitness, last_best)
        else:
            best = candidate_fitness
        self.samples.append((iteration, best, elapsed))

    @property
    def best(self) -> float:
        return self.samples[-1][1] if self.samples else math.inf

    def __len__(self):
        return len(self.samples)

    def fitness_values(self):
        return [s[1] for s in self.samples]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "fitness_mm", "elapsed_s"])
            writer.writerows(self.samples)


def average_traces(traces) -> ConvergenceTrace:
    """Pointwise mean of best-fitness curves.

    Traces are aligned by sample position; shorter traces are padded by
    holding their final value (a converged run's best stays put).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("cannot average an empty list of traces")
    length = max(len(t) for t in traces)
    out = ConvergenceTrace()
    for i in range(length):
        fit_sum = 0.0
        time_sum = 0.0
        for t in traces:
            it, f, e = t.samples[min(i, len(t) - 1)]
            fit_sum += f
            time_sum += e
        n = len(traces)
        out.samples.append((i, fit_sum / n, time_sum / n))
    return out


@dataclass
class SolveResult:
    """One solver run: best joints found, bookkeeping, and the trace."""
    joints: object
    final_fitness: float
    iterations_used: int
    elapsed: float
    converged: bool
    trace: ConvergenceTrace

    def same_outcome(self, other: "SolveResult") -> bool:
        """Equality modulo wall-clock fields (the determinism check)."""
        return (np.array_equal(self.joints, other.joints)
                and self.final_fitness == other.final_fitness
                and self.iterations_used == other.iterations_used
                and self.converged == other.converged
                and [s[:2] for s in self.trace.samples]
                == [s[:2] for s in other.trace.samples])


def population_best(points, values):
    """The fittest of a population as a step: (point, fitness, fitness)."""
    i = int(np.argmin(values))
    f = float(values[i])
    return points[i], f, f


def run_steps(steps, budget: Budget, finish) -> SolveResult:
    """Drive a solver's step generator under `budget`.

    `steps` yields (best_joints, best_fitness, recorded_fitness) for its
    start point and then once per iteration, and returns to stop early.
    The trace logs each recorded_fitness. The solve stops once best_fitness
    is under the tolerance, at the iteration cap, or past the wall-clock
    limit (checked from iteration 1 on). The result holds the last yield,
    its joints passed through `finish`; a generator must not change an
    array it has yielded.
    """
    start = time.perf_counter()
    trace = ConvergenceTrace()
    for it, (joints, best, recorded) in enumerate(steps):
        elapsed = time.perf_counter() - start
        trace.record(it, recorded, elapsed)
        if best < budget.tolerance or it >= budget.max_iterations:
            break
        if it and budget.wall_clock_limit and elapsed > budget.wall_clock_limit:
            break
    return SolveResult(
        joints=finish(joints),
        final_fitness=best,
        iterations_used=it,
        elapsed=time.perf_counter() - start,
        converged=best < budget.tolerance,
        trace=trace,
    )
