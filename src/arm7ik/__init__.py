"""IK benchmark suite for a 7-DOF serial manipulator: kinematics, ten
solvers (numerical, heuristic, evolutionary, swarm, tree-seeded hybrid),
data-driven IK models, and a reproducible benchmark harness."""

from .config import BenchmarkSpec, ConfigError, default_model, load_robot
from .core import Budget, SolveResult, SolverId, average_traces
from .dtnr import DtnrConfig
from .evolution import DeConfig, GaConfig, ga_offspring
from .heuristics import (CcdConfig, SaConfig, acceptance_probability,
                         temperature_schedule)
from .kinematics import (DhRow, KinematicModel, WorkspaceSphere, dh_transform,
                         end_effector_position, batch_end_effector_positions,
                         batch_fitness, finite_difference_jacobian, fitness,
                         forward_kinematics, joint_axes, joint_frames,
                         point_and_jacobian, position_jacobian,
                         sample_workspace, sample_workspace_batch, tool_point,
                         wrap_angle)
from .numeric import NelderMeadConfig, NewtonConfig, pseudo_inverse
from .registry import make_budget, make_config, run_solver
from .swarm import AfsaConfig, PsoConfig, QpsoConfig

__version__ = "0.1.0"
