"""Tree-seeded Newton-Raphson hybrid: a regression tree supplies the
initial joint guess, then Newton-Raphson refines only the first three
joints against the position target."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SolverId, default_budget, run_steps
from .kinematics import KinematicModel, dh_transform, wrap_angle
from .ml import RegressionTree
from .numeric import (DIVERGENCE_GUARD, STALL_STEP_NORM, NewtonConfig,
                      pseudo_inverse)


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
    leading refine_joint_count joints using the corresponding sub-block
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

    # The distal joints never move, so their chain collapses to one fixed
    # transform; each iteration then only rebuilds the first k frames.
    tail = np.eye(4)
    for j in range(6, k - 1, -1):
        tail = dh_transform(model.rows[j], q[j], model.convention) @ tail

    def proximal_state(joints):
        frames = [np.eye(4)]
        t = np.eye(4)
        for j in range(k):
            t = t @ dh_transform(model.rows[j], joints[j], model.convention)
            frames.append(t)
        p_e = (t @ tail)[:3, 3]
        jac = np.empty((3, k))
        for j in range(k):
            jac[:, j] = np.cross(frames[j][:3, 2], p_e - frames[j][:3, 3])
        return p_e, jac

    p, sub_jac = proximal_state(q)
    best_q = q.copy()
    best_f = float(np.linalg.norm(p - target))
    yield best_q, best_f, best_f  # tree stage

    prev_f = best_f
    rises = 0
    while True:
        step = pseudo_inverse(sub_jac, config.newton.damping) @ (p - target)
        q = q.copy()
        q[:k] = q[:k] - config.newton.step_scale * step
        p, sub_jac = proximal_state(q)
        f = float(np.linalg.norm(p - target))
        if f < best_f:
            best_f, best_q = f, q.copy()
        rises = rises + 1 if f > prev_f else 0
        prev_f = f
        yield best_q, best_f, f
        if rises >= DIVERGENCE_GUARD or not np.all(np.isfinite(q)):
            return
        if np.linalg.norm(step) < STALL_STEP_NORM:
            return  # at the constrained optimum of the proximal joints
