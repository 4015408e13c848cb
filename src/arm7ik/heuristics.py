"""Greedy and annealing IK solvers: cyclic coordinate descent and
simulated annealing."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import SolverId, default_budget, run_steps
# perfbench/tracer.py wraps fitness and joint_frames under this module's
# names for it, so both stay imported here, though the solvers below
# evaluate poses through the Horner partials and the frame pass instead.
from .kinematics import (BASE_FRAME, KinematicModel, fitness, frame_pass,
                         frame_point, horner_partials, joint_axes,
                         joint_frames, wrap_angle, wrap_float)


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
    return _ccd_rotation(p_e, axes[joint], origins[joint],
                         np.asarray(target, dtype=float).tolist())


def _ccd_rotation(p_e, axis, origin, target):
    """ccd_joint_update from the tool point p_e and the joint's axis and
    origin, all float triples in the base frame."""
    cx, cy, cz = _normal_part(p_e, origin, axis)
    tx, ty, tz = _normal_part(target, origin, axis)
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
    # The pose is a list of floats with its turns e^(i theta) and Horner
    # partials h (see horner_partials). Joint j's update needs the frame
    # after it, which takes the tool point h[j + 1] into the base frame.
    # Tip to base, every joint's frame comes from one pass up the chain
    # before the sweep (the joints before the one updated have not moved
    # yet), and h is refreshed one joint at a time behind the sweep. Base
    # to tip, every h[j + 1] comes from one Horner pass per cycle (the
    # joints after the one updated have not moved yet), and the frame
    # grows one joint at a time ahead of the sweep.
    q = wrap_angle(np.asarray(seed, dtype=float)).tolist()
    turns = [cmath.rect(1.0, v) for v in q]
    h = horner_partials(model, turns)
    target = target.tolist()
    best_q, best_f = q[:], math.dist(h[0], target)
    yield best_q, best_f, best_f

    tolerance = config.per_joint_tolerance
    stalled = 0
    while True:
        if config.sweep_order == "tip_to_base":
            passes, frame = [], BASE_FRAME
            for j in range(7):
                passes.append(frame_pass(model, turns[j:j + 1], j, frame))
                frame = passes[j][2]
            for j in range(6, -1, -1):
                _ccd_move(q, turns, j, passes[j], h[j + 1], target, tolerance)
                h = horner_partials(model, turns, h, j, j)
        else:
            frame = BASE_FRAME
            for j in range(7):
                step = frame_pass(model, turns[j:j + 1], j, frame)
                if _ccd_move(q, turns, j, step, h[j + 1], target, tolerance):
                    step = frame_pass(model, turns[j:j + 1], j, frame)
                frame = step[2]
            h = horner_partials(model, turns)
        f = math.dist(h[0], target)
        if f < best_f - 1e-15:
            best_f, best_q = f, q[:]
            stalled = 0
        else:
            stalled += 1
        yield best_q, best_f, f
        if stalled >= config.loop_guard:
            return  # oscillating cycle; bail out as non-converged


def _ccd_move(q, turns, joint, step, tail, target, tolerance):
    """Turn one joint of the pose (q, turns) by its ccd_joint_update, from
    `step`, the frame pass over that joint alone, and `tail`, the tool
    point in the frame after it; returns whether the joint moved."""
    (axis,), (origin,), frame = step
    delta = _ccd_rotation(frame_point(frame, tail), axis, origin, target)
    if abs(delta) > tolerance:
        q[joint] = wrap_float(q[joint] + delta)
        turns[joint] = cmath.rect(1.0, q[joint])
        return True
    return False


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
    # The pose is a list of floats with its turns e^(i theta) and Horner
    # partials h (see horner_partials). A proposal for joint j re-turns
    # only that joint and re-applies joints j..0 from h[j + 1]; turns and h
    # keep the proposal only when it is accepted. A uniform draw is taken
    # as numpy's rng.uniform(low, high) makes it, low + (high - low) *
    # rng.random(), so the random stream is the one that call would use.
    q = (np.asarray(seed, dtype=float) if seed is not None
         else model.random_joints(rng)).tolist()
    turns = [cmath.rect(1.0, v) for v in q]
    h = horner_partials(model, turns)
    target = target.tolist()
    e_now = math.dist(h[0], target)
    best_q, best_f = q[:], e_now
    yield best_q, best_f, best_f

    for temperature in temperature_schedule(config):
        # Width cools slower than the temperature so a greedy refinement
        # phase survives after acceptance becomes selective.
        scale = config.neighborhood_scale * (
            temperature / config.t_max) ** config.step_decay
        width = scale - -scale
        stay = 0
        while stay < config.max_stay_counter:
            for j in range(7):
                theta = wrap_float(q[j] + (-scale + width * rng.random()))
                turn, turns[j] = turns[j], cmath.rect(1.0, theta)
                trial = horner_partials(model, turns, h, j)
                e_new = math.dist(trial[0], target)
                delta = e_new - e_now
                if (delta < 0 or rng.random() < acceptance_probability(
                        delta, temperature, config.paper_literal_acceptance)):
                    q[j], h, e_now = theta, trial, e_new
                else:
                    turns[j] = turn
                if e_new < best_f:  # below e_now too, so q holds it
                    best_q, best_f = q[:], e_new
                    stay = 0
                else:
                    stay += 1
            if best_f < tolerance:
                break
        yield best_q, best_f, best_f
