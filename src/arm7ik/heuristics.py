"""Greedy and annealing IK solvers: cyclic coordinate descent and
simulated annealing."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import check_settings, setting
# perfbench/tracer.py wraps fitness and joint_frames under this module's
# names, so both stay imported here only for it: the solvers below
# evaluate poses through the Horner partials and the frame pass.
from .kinematics import (KinematicModel, fitness, frame_pass,
                         frame_point, horner_partials, joint_frames,
                         pose_turns, wrap_angle, wrap_float)


@dataclass(frozen=True)
class CcdConfig:
    per_joint_tolerance: float = setting(1e-12, 0)
    loop_guard: int = setting(30, 1)

    __post_init__ = check_settings


@dataclass(frozen=True)
class SaConfig:
    t_max: float = setting(100.0, 0, above=True)
    t_min: float = setting(1e-50, 0, above=True)
    cooling_rate: float = setting(0.7, 0, 1, above=True, below=True)
    max_stay_counter: int = setting(20, 1)
    neighborhood_scale: float = setting(0.5, 0, above=True)
    step_decay: float = setting(0.2, 0)  # width ~ (T / t_max) ** step_decay
    paper_literal_acceptance: bool = setting(False)

    def __post_init__(self):
        check_settings(self)
        if not self.t_max > self.t_min:
            raise ValueError("t_max must be > t_min")


def _ccd_rotation(p_e, axis, origin, target):
    """Closed-form best angle for one joint with the rest frozen, from the
    tool point p_e, the joint's unit axis and a point on it, and the
    target, all float triples in the base frame.

    Rotating the tool about the joint axis traces a circle; the distance
    to the target is minimised when the projections of (tool - origin)
    and (target - origin) onto the plane normal to the axis align.
    Returns the signed rotation to apply.
    """
    (ax, ay, az), (ox, oy, oz) = axis, origin
    # c and t: (p_e - origin) and (target - origin), each less its
    # projection onto the axis.
    px, py, pz = p_e
    cx, cy, cz = px - ox, py - oy, pz - oz
    k = cx * ax + cy * ay + cz * az
    cx, cy, cz = cx - k * ax, cy - k * ay, cz - k * az
    px, py, pz = target
    tx, ty, tz = px - ox, py - oy, pz - oz
    k = tx * ax + ty * ay + tz * az
    tx, ty, tz = tx - k * ax, ty - k * ay, tz - k * az
    if math.hypot(cx, cy, cz) < 1e-12 or math.hypot(tx, ty, tz) < 1e-12:
        return 0.0
    return math.atan2(ax * (cy * tz - cz * ty) + ay * (cz * tx - cx * tz)
                      + az * (cx * ty - cy * tx),   # axis . (cur x tgt)
                      cx * tx + cy * ty + cz * tz)


def ccd_steps(model: KinematicModel, target, config, budget, rng):
    """Cyclic coordinate descent from a start drawn from `rng`: each cycle
    turns one joint at a time by its _ccd_rotation, tip to base. A
    cycle's fitness jitters; the best pose so far is the one yielded. Ends
    as non-converged after loop_guard cycles without a new best."""
    # The pose is a list of floats with its turns (see pose_turns) and Horner
    # partials h (see horner_partials). Joint j's update needs its axis and
    # the frame after it, which takes the tool point h[j + 1] into the base
    # frame. One frame pass up the chain before the sweep gives every
    # joint's axis and frame (the joints before the one updated have not
    # moved yet), and h is refreshed one joint at a time behind the sweep.
    q = wrap_angle(model.random_joints(rng)).tolist()
    turns = pose_turns(q)
    h = horner_partials(model, turns)
    target = target.tolist()
    best_q, best_f = q[:], math.dist(h[0], target)
    yield best_q, best_f

    tolerance = config.per_joint_tolerance
    stalled = 0
    while True:
        frames = []
        axes, origins, _ = frame_pass(model, turns, frames=frames)
        for j in range(6, -1, -1):
            delta = _ccd_rotation(frame_point(frames[j], h[j + 1]), axes[j],
                                  origins[j], target)
            if abs(delta) > tolerance:
                q[j] = wrap_float(q[j] + delta)
                turns[j] = (math.cos(q[j]), math.sin(q[j]))
            h = horner_partials(model, turns, h, j, j)
        f = math.dist(h[0], target)
        if f < best_f - 1e-15:
            best_f, best_q = f, q[:]
            stalled = 0
        else:
            stalled += 1
        yield best_q, best_f
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


def sa_steps(model: KinematicModel, target, config, budget, rng):
    """Simulated annealing over the seven joint angles.

    Per temperature level, joints are swept one at a time with uniform
    proposals whose width shrinks with the temperature; the level ends
    after max_stay_counter consecutive proposals without a new best, or
    once the best is under the budget's tolerance. Cooling is geometric.
    The best configuration ever seen is kept.

    Joint 7 turns about the tool axis and moves no point, so its proposal
    leaves the fitness as it is (a delta of 0): it is accepted without an
    evaluation and is never a new best. It still draws both uniforms, the
    proposal's and the acceptance draw's.

    `rng` belongs to the solve: after the start, its uniforms are read
    ahead in blocks, so its state after the solve is not the one scalar
    draws would leave.
    """
    # The pose is a list of floats with its turns (see pose_turns) and Horner
    # partials h (see horner_partials). A proposal for joint j re-turns
    # only that joint and re-applies joints j..0 from h[j + 1]; turns and h
    # keep the proposal only when it is accepted. A proposal is taken as
    # numpy's rng.uniform(low, high) makes it, low + (high - low) * u, and
    # the standard rule accepts a worse one when u < exp(-delta / T), which
    # is u < acceptance_probability for u in [0, 1). Each u is the next
    # double of rng.random(1024) blocks, the doubles that scalar
    # rng.random() calls give, so the proposals and the acceptance draws
    # are those of scalar rng.uniform and rng.random calls. The rule never
    # reads joint 7's turn, so turns[6] is left as the start's.
    q = model.random_joints(rng).tolist()
    draw = _uniforms(rng).__next__
    turns = pose_turns(q)
    h = horner_partials(model, turns)
    target = target.tolist()
    e_now = math.dist(h[0], target)
    best_q, best_f = q[:], e_now
    yield best_q, best_f

    literal = config.paper_literal_acceptance
    for temperature in temperature_schedule(config):
        # Width cools slower than the temperature so a greedy refinement
        # phase survives after acceptance becomes selective.
        scale = config.neighborhood_scale * (
            temperature / config.t_max) ** config.step_decay
        width = scale - -scale
        stay = 0
        while stay < config.max_stay_counter:
            for j in range(6):
                theta = wrap_float(q[j] + (-scale + width * draw()))
                turn, turns[j] = turns[j], (math.cos(theta), math.sin(theta))
                trial = horner_partials(model, turns, h, j)
                e_new = math.dist(trial[0], target)
                delta = e_new - e_now
                if delta < 0 or draw() < (
                        acceptance_probability(delta, temperature, True)
                        if literal else math.exp(-delta / temperature)):
                    q[j], h, e_now = theta, trial, e_new
                else:
                    turns[j] = turn
                if e_new < best_f:  # below e_now too, so q holds it
                    best_q, best_f = q[:], e_new
                    stay = 0
                else:
                    stay += 1
            # Joint 7 moves no point: a delta of 0, which u < 1 accepts.
            q[6] = wrap_float(q[6] + (-scale + width * draw()))
            draw()
            stay += 1
            if best_f < budget.tolerance:
                break
        yield best_q, best_f


def _uniforms(rng):
    """The doubles of rng.random(), read ahead 1,024 at a time."""
    while True:
        yield from rng.random(1024).tolist()
