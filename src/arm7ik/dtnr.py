"""Tree-seeded Newton-Raphson hybrid: a regression tree supplies the
initial joint guess, then Newton-Raphson refines only the first three
joints against the position target."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_settings, setting
# perfbench/tracer.py wraps dh_transform and pseudo_inverse under this
# module's names, so both stay importable from here; dtnr calls neither.
from .kinematics import KinematicModel, dh_transform, wrap_angle
from .ml import RegressionTree
from .numeric import NewtonConfig, newton_steps, pseudo_inverse


@dataclass(frozen=True)
class DtnrConfig:
    refine_joint_count: int = setting(3, 1, 7)
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    __post_init__ = check_settings


def dtnr_steps(tree: RegressionTree, model: KinematicModel, target, config):
    """Predict joints with the tree, then run nr's Newton loop on the
    leading refine_joint_count joints. The distal joints stay at the tree
    seed, bit for bit. The tree's guess is timed as part of the solve."""
    yield from newton_steps(model, target, tree.predict(target),
                            config.newton, config.refine_joint_count)


def wrap_refined(q, config):
    """q with the joints dtnr refines wrapped and the rest as the tree
    predicted them."""
    k = config.refine_joint_count
    return np.concatenate([wrap_angle(q[:k]), q[k:]])
