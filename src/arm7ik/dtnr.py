"""Tree-seeded Newton-Raphson hybrid: a regression tree's joint guess,
then nr's Newton loop on the leading joints (three by default)."""
from __future__ import annotations

from dataclasses import dataclass

from .core import setting
# perfbench/tracer.py wraps dh_transform and pseudo_inverse under this
# module's names, so both stay importable from here; dtnr calls neither.
from .kinematics import KinematicModel, dh_transform
from .ml import RegressionTree
from .numeric import NewtonConfig, newton_steps, pseudo_inverse


@dataclass(frozen=True)
class DtnrConfig(NewtonConfig):
    """nr's settings plus how many leading joints the Newton loop moves."""
    refine_joint_count: int = setting(3, 1, 7)


def dtnr_steps(tree: RegressionTree, model: KinematicModel, target, config):
    """Predict joints with the tree, then run nr's Newton loop on the
    leading refine_joint_count joints. The distal joints stay at the tree
    seed, bit for bit. The tree's guess is timed as part of the solve."""
    yield from newton_steps(model, target, tree.predict(target), config,
                            config.refine_joint_count)
