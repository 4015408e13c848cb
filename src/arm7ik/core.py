"""Shared solver contract: the settings check, budgets, convergence
traces, results and the one loop that drives every solver."""
from __future__ import annotations

import csv
import enum
import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, fields
from sys import float_info

import numpy as np

from .kinematics import wrap_angle


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


def setting(default=MISSING, low=None, high=None, *, above=False,
            below=False):
    """A settings dataclass field: its default and the bounds that
    check_settings holds it to, low <= value <= high. `above` and `below`
    make the low and high bound strict; a bound left None is open."""
    return field(default=default,
                 metadata={"bounds": (low, high, above, below)})


# Annotation, as written (the modules postpone annotations) -> the type a
# field's value must have, and how an error names it.
_KINDS = {"bool": (bool, "true or false"),
          "int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a finite number"),
          "float | None": (numbers.Real, "a finite number")}


def check_settings(obj, error=ValueError):
    """Raise `error` naming the first field of the dataclass `obj` whose
    value does not fit its annotation: a bool field holds a bool, an int
    field an integer, a float field a finite real number that fits a float,
    and only a bool field a bool; a float | None field may also hold None.
    The value must also lie inside the bounds setting() declared. Fields
    of any other type are left alone. Used as __post_init__."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type not in _KINDS or value is None and f.type == "float | None":
            continue
        base, kind = _KINDS[f.type]
        if (not isinstance(value, base)
                or isinstance(value, bool) is not (base is bool)
                or base is numbers.Real and not abs(value) <= float_info.max):
            raise error(f"{f.name} must be {kind}, got {value!r}")
        low, high, above, below = f.metadata.get("bounds", (None,) * 4)
        if low is not None and not (value > low if above else value >= low):
            raise error(f"{f.name} must be {'>' if above else '>='} {low}, "
                        f"got {value!r}")
        if high is not None and not (value < high if below else value <= high):
            raise error(f"{f.name} must be {'<' if below else '<='} {high}, "
                        f"got {value!r}")


@dataclass(frozen=True)
class Budget:
    """Stop conditions common to all solvers.

    ``tolerance`` is the solver's own stop criterion in mm; the benchmark
    success threshold (1 mm) is a separate, looser knob.
    """
    max_iterations: int = setting(low=1)
    tolerance: float = setting(1e-9, 0, above=True)
    wall_clock_limit: float | None = setting(None, 0, above=True)

    __post_init__ = check_settings


class ConvergenceTrace:
    """Best-fitness history: (iteration, best_so_far, elapsed)."""

    def __init__(self):
        self.samples: list[tuple[int, float, float]] = []

    def record(self, iteration: int, best: float, elapsed: float):
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
    """The fittest of a population as a step: (a copy of its point,
    fitness), so the population can change after the yield."""
    i = int(values.argmin())
    return points[i].copy(), float(values[i])


def keep_better(points, values, candidates, candidate_values):
    """Where candidate i is fitter than member i (candidate_values[i] <
    values[i]), replace the member and its value by the candidate's, in
    place. fmin, not minimum, so a NaN candidate loses as it does under <."""
    np.copyto(points, candidates, where=(candidate_values < values)[:, None])
    np.fmin(values, candidate_values, out=values)


def run_steps(steps, budget: Budget) -> SolveResult:
    """Drive a solver's step generator under `budget`.

    `steps` yields (best_joints, best_fitness) for its start point and
    then once per iteration, and returns to stop early; best_fitness never
    rises. The trace logs each best_fitness. The solve stops once it is
    under the tolerance, at the iteration cap, or past the wall-clock
    limit (checked from iteration 1 on). The result holds the last yield,
    its joints wrapped (a joint in (-pi, pi] keeps every bit); a generator
    must not change an array it has yielded.
    """
    start = time.perf_counter()
    trace = ConvergenceTrace()
    for it, (joints, best) in enumerate(steps):
        elapsed = time.perf_counter() - start
        trace.record(it, best, elapsed)
        if best < budget.tolerance or it >= budget.max_iterations:
            break
        if it and budget.wall_clock_limit and elapsed > budget.wall_clock_limit:
            break
    return SolveResult(
        joints=wrap_angle(joints),
        final_fitness=best,
        iterations_used=it,
        elapsed=time.perf_counter() - start,
        converged=best < budget.tolerance,
        trace=trace,
    )
