"""Greedy and annealing IK solvers: cyclic coordinate descent and
simulated annealing."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SolverId, default_budget, run_steps
# perfbench/tracer.py wraps joint_frames under this module's name for it,
# so it stays imported here.
from .kinematics import (KinematicModel, fitness, joint_axes, joint_frames,
                         wrap_angle)


@dataclass(frozen=True)
class CcdConfig:
    per_joint_tolerance: float = 1e-12
    loop_guard: int = 30
    sweep_order: str = "tip_to_base"  # or "base_to_tip"

    def __post_init__(self):
        if self.sweep_order not in ("tip_to_base", "base_to_tip"):
            raise ValueError("sweep_order must be tip_to_base or base_to_tip")


@dataclass(frozen=True)
class SaConfig:
    t_max: float = 100.0
    t_min: float = 1e-50
    cooling_rate: float = 0.7
    max_stay_counter: int = 20
    neighborhood_scale: float = 0.5
    step_decay: float = 0.2  # proposal width ~ (T / t_max) ** step_decay
    paper_literal_acceptance: bool = False

    def __post_init__(self):
        if not self.t_max > self.t_min > 0:
            raise ValueError("need t_max > t_min > 0")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")


def ccd_joint_update(model: KinematicModel, q, joint, target):
    """Closed-form best angle for one joint with the rest frozen.

    Rotating the tool about the joint axis traces a circle; the distance
    to the target is minimised when the projections of (tool - origin)
    and (target - origin) onto the plane normal to the axis align.
    Returns the signed rotation to apply.
    """
    p_e, axes, origins = joint_axes(model, q, joint + 1)
    axis, origin = axes[joint], origins[joint]
    cx, cy, cz = _normal_part(p_e, origin, axis)
    tx, ty, tz = _normal_part(np.asarray(target, dtype=float).tolist(),
                              origin, axis)
    if math.hypot(cx, cy, cz) < 1e-12 or math.hypot(tx, ty, tz) < 1e-12:
        return 0.0
    ax, ay, az = axis
    return math.atan2(ax * (cy * tz - cz * ty) + ay * (cz * tx - cx * tz)
                      + az * (cx * ty - cy * tx),   # axis . (cur x tgt)
                      cx * tx + cy * ty + cz * tz)


def _normal_part(point, origin, axis):
    """(point - origin) minus its projection onto the unit vector axis."""
    v = [point[i] - origin[i] for i in range(3)]
    k = v[0] * axis[0] + v[1] * axis[1] + v[2] * axis[2]
    return [v[i] - k * axis[i] for i in range(3)]


def solve_ccd(model: KinematicModel, target, seed, config=None, budget=None):
    """Cyclic coordinate descent: optimise one joint at a time, cycling
    through the chain. The recorded trace keeps running minima, so the
    jittery raw curve comes out clipped."""
    config = config or CcdConfig()
    target = np.asarray(target, dtype=float)
    return run_steps(_ccd_steps(model, target, seed, config),
                     budget or default_budget(SolverId.CCD), wrap_angle)


def _ccd_steps(model, target, seed, config):
    q = wrap_angle(np.asarray(seed, dtype=float))
    best_q = q.copy()
    best_f = fitness(model, q, target)
    yield best_q, best_f, best_f

    order = range(6, -1, -1) if config.sweep_order == "tip_to_base" else range(7)
    stalled = 0
    while True:
        for j in order:
            delta = ccd_joint_update(model, q, j, target)
            if abs(delta) > config.per_joint_tolerance:
                q[j] = wrap_angle(q[j] + delta)
        f = fitness(model, q, target)
        if f < best_f - 1e-15:
            best_f, best_q = f, q.copy()
            stalled = 0
        else:
            stalled += 1
        yield best_q, best_f, f
        if stalled >= config.loop_guard:
            return  # oscillating cycle; bail out as non-converged


def temperature_schedule(config: SaConfig):
    """Yield the geometric cooling sequence t_max, t_max*r, ... while it
    stays above t_min."""
    t = config.t_max
    while t > config.t_min:
        yield t
        t *= config.cooling_rate


def acceptance_probability(delta_e, temperature, literal=False):
    """Probability of accepting a candidate with fitness change delta_e.

    Standard Metropolis: 1 for improvements, exp(-dE/T) otherwise. The
    literal variant keeps the printed rule exp(+dE/T), which accepts
    every worsening move.
    """
    if delta_e < 0:
        return 1.0
    exponent = delta_e / temperature if literal else -delta_e / temperature
    try:
        return min(1.0, math.exp(exponent))
    except OverflowError:
        return 1.0


def solve_sa(model: KinematicModel, target, config=None, budget=None,
             rng=None, seed=None):
    """Simulated annealing over the seven joint angles.

    Per temperature level, joints are swept one at a time with uniform
    proposals whose width shrinks with the temperature; the level ends
    after max_stay_counter consecutive proposals without a new best.
    Cooling is geometric. The best configuration ever seen is returned.
    """
    config = config or SaConfig()
    budget = budget or default_budget(SolverId.SA)
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_sa_steps(model, target, config, budget.tolerance, rng,
                               seed), budget, wrap_angle)


def _sa_steps(model, target, config, tolerance, rng, seed):
    q = np.asarray(seed, dtype=float).copy() if seed is not None \
        else model.random_joints(rng)
    e_now = fitness(model, q, target)
    best_q, best_f = q.copy(), e_now
    yield best_q, best_f, best_f

    for temperature in temperature_schedule(config):
        # Width cools slower than the temperature so a greedy refinement
        # phase survives after acceptance becomes selective.
        scale = config.neighborhood_scale * (
            temperature / config.t_max) ** config.step_decay
        stay = 0
        while stay < config.max_stay_counter:
            for j in range(7):
                q_new = q.copy()
                q_new[j] = wrap_angle(q_new[j] + rng.uniform(-scale, scale))
                e_new = fitness(model, q_new, target)
                delta = e_new - e_now
                if (delta < 0 or rng.random() < acceptance_probability(
                        delta, temperature, config.paper_literal_acceptance)):
                    q, e_now = q_new, e_new
                if e_new < best_f:
                    best_q, best_f = q_new.copy(), e_new
                    stay = 0
                else:
                    stay += 1
            if best_f < tolerance:
                break
        yield best_q, best_f, best_f
