"""Tree-seeded Newton-Raphson hybrid: a regression tree supplies the
initial joint guess, then Newton-Raphson refines only the first three
joints against the position target."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SolverId, default_budget, run_steps
# perfbench/tracer.py wraps dh_transform under this module's name for it,
# so it stays imported here.
from .kinematics import (KinematicModel, dh_transform, point_and_jacobian,
                         tool_point, wrap_angle)
from .ml import RegressionTree
from .numeric import (DIVERGENCE_GUARD, STALL_STEP_NORM, NewtonConfig,
                      pseudo_inverse, pseudo_inverse_step3)


@dataclass(frozen=True)
class DtnrConfig:
    refine_joint_count: int = 3
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not 1 <= self.refine_joint_count <= 7:
            raise ValueError("refine_joint_count must be in [1, 7]")


def solve_dtnr(tree: RegressionTree, model: KinematicModel, target,
               config=None, budget=None):
    """Predict joints with the tree, then iterate Newton-Raphson on the
    leading refine_joint_count joints using the corresponding columns
    of the position Jacobian. The distal joints stay at the tree seed,
    bit for bit."""
    config = config or DtnrConfig()
    target = np.asarray(target, dtype=float)
    k = config.refine_joint_count
    return run_steps(_dtnr_steps(tree, model, target, config),
                     budget or default_budget(SolverId.DTNR),
                     lambda q: np.concatenate([wrap_angle(q[:k]), q[k:]]))


def _dtnr_steps(tree, model, target, config):
    k = config.refine_joint_count
    q = np.asarray(tree.predict(target), dtype=float).copy()
    t = target.tolist()

    tail = tool_point(model, q, k)  # the distal joints never move
    p, jac = point_and_jacobian(model, q, k, tail)
    best_q = q.copy()
    best_f = math.dist(p, t)
    yield best_q, best_f, best_f  # tree stage

    # The k moving joints and the Newton step run in plain floats. Only a
    # damped step, or a Jacobian that is not 3x3 or is near rank 1, goes
    # through the numpy pseudo-inverse.
    head = q[:k].tolist()
    damping = config.newton.damping
    scale = config.newton.step_scale
    prev_f = best_f
    rises = 0
    while True:
        e = (p[0] - t[0], p[1] - t[1], p[2] - t[2])
        step = None
        if k == 3 and not damping:
            step = pseudo_inverse_step3(jac, e)
        if step is None:
            step = [a * e[0] + b * e[1] + c * e[2]
                    for a, b, c in pseudo_inverse(jac, damping).tolist()]
        head = [h - scale * s for h, s in zip(head, step)]
        p, jac = point_and_jacobian(model, head, k, tail)
        f = math.dist(p, t)
        if f < best_f:
            best_f, best_q = f, np.concatenate((head, q[k:]))
        rises = rises + 1 if f > prev_f else 0
        prev_f = f
        yield best_q, best_f, f
        if rises >= DIVERGENCE_GUARD or not math.isfinite(f):
            return
        if math.hypot(*step) < STALL_STEP_NORM:
            return  # at the constrained optimum of the proximal joints
