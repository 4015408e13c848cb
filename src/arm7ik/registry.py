"""The one solve entry over the ten solvers: a table of config classes,
step generators and iteration caps, the config and budget builders, and
run_solver."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import Budget, SolverId, run_steps
from .dtnr import DtnrConfig, dtnr_steps
from .evolution import DeConfig, GaConfig, de_steps, ga_steps
from .heuristics import CcdConfig, SaConfig, ccd_steps, sa_steps
from .numeric import NelderMeadConfig, NewtonConfig, nm_steps, nr_steps
from .swarm import (AfsaConfig, PsoConfig, QpsoConfig, afsa_steps, pso_steps,
                    qpso_steps)

# Solver id -> (config class, step generator, iteration cap). Every
# generator but dtnr's is called as steps(model, target, config, budget,
# rng) and draws its own start from rng; dtnr's as steps(tree, model,
# target, config). The cap, the default budget's max_iterations, counts
# Newton steps, simplex moves, temperature levels, CCD cycles or
# generations.
SOLVERS = {
    SolverId.DTNR: (DtnrConfig, dtnr_steps, 15),
    SolverId.NR: (NewtonConfig, nr_steps, 30),
    SolverId.NM: (NelderMeadConfig, nm_steps, 799),
    SolverId.SA: (SaConfig, sa_steps, 400),
    SolverId.PSO: (PsoConfig, pso_steps, 200),
    SolverId.QPSO: (QpsoConfig, qpso_steps, 302),
    SolverId.CCD: (CcdConfig, ccd_steps, 300),
    SolverId.AFSA: (AfsaConfig, afsa_steps, 200),
    SolverId.GA: (GaConfig, ga_steps, 100),
    SolverId.DE: (DeConfig, de_steps, 100),
}


def make_config(solver_id, overrides=None):
    """Build the solver's config dataclass, applying keyword overrides. An
    unknown key, or a value check_settings rejects, is a ValueError."""
    solver_id = SolverId(solver_id)
    config_cls = SOLVERS[solver_id][0]
    names = {f.name for f in dataclasses.fields(config_cls)}
    unknown = set(overrides or {}) - names
    if unknown:
        raise ValueError(
            f"unknown {solver_id.value} config keys: {sorted(unknown)}")
    return config_cls(**(overrides or {}))


def make_budget(solver_id, overrides=None):
    """The solver's default budget with keyword overrides on top. An
    unknown key is a ValueError."""
    solver_id = SolverId(solver_id)
    try:
        return Budget(**{"max_iterations": SOLVERS[solver_id][2],
                         **(overrides or {})})
    except TypeError as exc:
        raise ValueError(
            f"bad {solver_id.value} budget {overrides}: {exc}") from exc


def run_solver(solver_id, model, target, rng, config=None, budget=None,
               tree=None):
    """One solve. The target must be three finite numbers; a missing
    config or budget is the solver's default. Every solver but dtnr draws
    its start from `rng`; dtnr needs the trained `tree` and starts from
    its guess. `rng` belongs to the solve: sa, pso and qpso read it ahead
    in blocks, so its state afterwards is not the one per-iteration draws
    would leave. Joints come back wrapped (see run_steps)."""
    solver_id = SolverId(solver_id)
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not all(map(math.isfinite, target.tolist())):
        raise ValueError(
            f"target must be three finite numbers, got {target.tolist()}")
    config_cls, make_steps, _ = SOLVERS[solver_id]
    config = config or config_cls()
    budget = budget or make_budget(solver_id)
    if solver_id is SolverId.DTNR:
        if tree is None:
            raise ValueError("DTNR requires a trained regression tree")
        steps = make_steps(tree, model, target, config)
    else:
        steps = make_steps(model, target, config, budget, rng)
    return run_steps(steps, budget)
