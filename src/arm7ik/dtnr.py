"""Tree-seeded Newton-Raphson hybrid: a regression tree supplies the
initial joint guess, then Newton-Raphson refines only the first three
joints against the position target."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SolverId, default_budget, run_steps
# perfbench/tracer.py wraps dh_transform and pseudo_inverse under this
# module's names, so both stay importable from here; dtnr calls neither.
from .kinematics import KinematicModel, dh_transform, wrap_angle
from .ml import RegressionTree
from .numeric import NewtonConfig, newton_steps, pseudo_inverse


@dataclass(frozen=True)
class DtnrConfig:
    refine_joint_count: int = 3
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not 1 <= self.refine_joint_count <= 7:
            raise ValueError("refine_joint_count must be in [1, 7]")


def solve_dtnr(tree: RegressionTree, model: KinematicModel, target,
               config=None, budget=None):
    """Predict joints with the tree, then run nr's Newton loop on the
    leading refine_joint_count joints. The distal joints stay at the tree
    seed, bit for bit."""
    config = config or DtnrConfig()
    k = config.refine_joint_count

    def steps():  # the tree's guess is timed as part of the solve
        yield from newton_steps(model, target, tree.predict(target),
                                config.newton, k)
    return run_steps(steps(), budget or default_budget(SolverId.DTNR),
                     lambda q: np.concatenate([wrap_angle(q[:k]), q[k:]]))
