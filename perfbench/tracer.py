"""Timing wrappers around the calls into arm7ik's layers.

Each wrapper replaces a public function under the name its caller module
binds it to (``arm7ik.heuristics.fitness``, not ``arm7ik.kinematics.
fitness``), so only calls that cross a layer boundary are seen and
nothing inside the kinematics module is counted twice. No file of the
package changes.

``SolveClock`` times each call of ``arm7ik.bench.run_solver``: it is the
unit clock of the untraced passes and costs two clock reads per solve,
plus the ``HostSpeed`` samples it takes between solves.
``Tracer`` adds spans at every layer boundary, with self time (a span's
duration minus the spans it encloses) and counts attributed to the solver
whose solve is open.
"""
from __future__ import annotations

import bisect
import importlib
import statistics
import time
from collections import defaultdict

# group -> caller-module bindings. A fk_single or frames call works on one
# pose, a fk_batch call on one pose per row of its argument 1, a dh call
# on one joint.
LAYER_BINDINGS = {
    "fk_single": ["numeric.fitness", "numeric.end_effector_position",
                  "heuristics.fitness", "swarm.fitness"],
    "fk_batch": ["swarm.batch_fitness", "evolution.batch_fitness",
                 "ml.batch_end_effector_positions"],
    "frames": ["numeric.joint_frames", "numeric.position_jacobian",
               "heuristics.joint_frames"],
    # dtnr builds its own chain from single-joint transforms.
    "dh": ["dtnr.dh_transform"],
    "pinv": ["numeric.pseudo_inverse", "dtnr.pseudo_inverse"],
}
KINEMATICS_GROUPS = ("fk_single", "fk_batch", "frames", "dh")
SOLVE_BINDING = "bench.run_solver"
CALLS, ROWS, TOTAL, SELF = range(4)


def _patch(binding, make_wrapper):
    """Replace ``arm7ik.<module>.<name>``; returns the undo callable."""
    mod_name, attr = binding.split(".")
    module = importlib.import_module(f"arm7ik.{mod_name}")
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    return lambda: setattr(module, attr, original)


def _solver_name(solver_id):
    return str(getattr(solver_id, "value", solver_id))


class HostSpeed:
    """Samples of the host's speed, taken between timed units with a fixed
    pure-Python loop, so each unit can be costed at one reference speed.

    The host's CPUs swing by 1.5x to 2x in speed for seconds to minutes
    at a time, enough to move a whole run. A unit measured in `raw`
    seconds between `start` and `end` costs ``raw * NOMINAL_S / loop``,
    where loop is the median of the NEAR samples before the unit and the
    NEAR after it: seconds on a host that runs the loop in NOMINAL_S.
    A single sample is a few ms of a host that also varies from one ms
    to the next, so units that last seconds are bracketed by a burst.
    """

    ITERATIONS = 20_000
    NOMINAL_S = 1.0e-3
    EVERY_S = 0.02      # at most one sample per this many seconds of work
    NEAR = 4

    def __init__(self):
        self.at = []        # perf_counter when each sample ended
        self.loop_s = []    # the loop's time in that sample, best of two
        self.spent = 0.0    # seconds spent sampling

    @classmethod
    def _loop(cls):
        start = time.perf_counter()
        acc = 0
        for i in range(cls.ITERATIONS):
            acc += i * i
        return time.perf_counter() - start

    def sample(self):
        start = time.perf_counter()
        self.loop_s.append(min(self._loop(), self._loop()))
        self.at.append(time.perf_counter())
        self.spent += self.at[-1] - start

    def sample_if_due(self):
        if not self.at or time.perf_counter() - self.at[-1] > self.EVERY_S:
            self.sample()

    def burst(self):
        for _ in range(self.NEAR):
            self.sample()

    def cost(self, start, end, raw):
        """`raw` seconds measured from `start` to `end`, at NOMINAL_S.
        Needs a sample taken before `start` and one after `end`."""
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        near = (self.loop_s[max(0, before - self.NEAR):before]
                + self.loop_s[after:after + self.NEAR])
        return raw * self.NOMINAL_S / statistics.median(near)


class SolveClock:
    """Start and end of every solve the harness runs, in call order. Before
    a solve, outside its span, `host` may take a speed sample."""

    def __init__(self, host=None):
        self.solves = []   # (solver id, start, end) per call, this pass
        self.failed = 0
        self.host = host
        self._undo = None

    def install(self):
        def make(original):
            def timed_run_solver(solver_id, *args, **kwargs):
                if self.host is not None:
                    self.host.sample_if_due()
                start = time.perf_counter()
                try:
                    result = original(solver_id, *args, **kwargs)
                except Exception:
                    self.failed += 1
                    raise
                self.solves.append((_solver_name(solver_id), start,
                                    time.perf_counter()))
                return result
            return timed_run_solver
        self._undo = _patch(SOLVE_BINDING, make)

    def uninstall(self):
        if self._undo:
            self._undo()
            self._undo = None


class Tracer:
    """Spans and counts at the layer boundaries for one traced pass.

    ``stats[solver, group]`` holds [calls, rows, seconds, self seconds];
    solver is None outside any solve.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.solves = defaultdict(int)
        self._stack = []      # child seconds accumulated per open span
        self._solver = None
        self._undo = []

    def _span(self, group, original, rows_arg=None):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                s = self.stats[self._solver, group]
                s[CALLS] += 1
                s[ROWS] += len(args[rows_arg]) if rows_arg is not None else 0
                s[TOTAL] += elapsed
                s[SELF] += elapsed - children
        return wrapper

    def _solve_span(self, original):
        span = self._span("solve", original)

        def traced_run_solver(solver_id, *args, **kwargs):
            self._solver = _solver_name(solver_id)
            self.solves[self._solver] += 1
            try:
                return span(solver_id, *args, **kwargs)
            finally:
                self._solver = None
        return traced_run_solver

    def install(self):
        for group, bindings in LAYER_BINDINGS.items():
            rows_arg = 1 if group == "fk_batch" else None
            for b in bindings:
                self._undo.append(_patch(
                    b, lambda orig, g=group, r=rows_arg: self._span(g, orig, r)))
        self._undo.append(_patch(SOLVE_BINDING, self._solve_span))

    def wrap_method(self, obj, name, group, rows_arg=None):
        """Trace a bound method of one object (e.g. a loaded tree)."""
        setattr(obj, name, self._span(group, getattr(obj, name), rows_arg))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def total(self, group, field, solver=...):
        """Sum of one field over all solvers, or for one (None = outside
        any solve)."""
        return sum(v[field] for (s, g), v in self.stats.items()
                   if g == group and (solver is ... or s == solver))

    def poses(self, solver):
        """Poses evaluated inside the solves of `solver`."""
        single = (self.total("fk_single", CALLS, solver)
                  + self.total("frames", CALLS, solver))
        # A dtnr solve multiplies the 7 - k fixed distal transforms once,
        # then k proximal ones per pose (k = refine_joint_count = 3).
        dh = self.total("dh", CALLS, solver)
        dh_poses = (dh - 4 * self.solves[solver]) // 3 if dh else 0
        return single + self.total("fk_batch", ROWS, solver) + dh_poses
