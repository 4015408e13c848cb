"""Uniform dispatch table over the ten solvers: config classes and a
common call signature for the benchmark and CLI."""
from __future__ import annotations

import dataclasses

import numpy as np

from .core import SolverId
from .dtnr import DtnrConfig, solve_dtnr
from .evolution import DeConfig, GaConfig, solve_de, solve_ga
from .heuristics import CcdConfig, SaConfig, solve_ccd, solve_sa
from .numeric import (NelderMeadConfig, NewtonConfig, solve_nelder_mead,
                      solve_newton_raphson)
from .swarm import (AfsaConfig, PsoConfig, QpsoConfig, solve_afsa, solve_pso,
                    solve_qpso)

# Solver id -> (config class, solve function). Every solve function but
# dtnr's is called as solve(model, target, config, budget, rng) and draws
# its own start from rng; dtnr's as solve(tree, model, target, config,
# budget).
SOLVERS = {
    SolverId.DTNR: (DtnrConfig, solve_dtnr),
    SolverId.NR: (NewtonConfig, solve_newton_raphson),
    SolverId.NM: (NelderMeadConfig, solve_nelder_mead),
    SolverId.SA: (SaConfig, solve_sa),
    SolverId.PSO: (PsoConfig, solve_pso),
    SolverId.QPSO: (QpsoConfig, solve_qpso),
    SolverId.CCD: (CcdConfig, solve_ccd),
    SolverId.AFSA: (AfsaConfig, solve_afsa),
    SolverId.GA: (GaConfig, solve_ga),
    SolverId.DE: (DeConfig, solve_de),
}


def make_config(solver_id, overrides=None):
    """Build the solver's config dataclass, applying keyword overrides."""
    solver_id = SolverId(solver_id)
    config_cls = SOLVERS[solver_id][0]
    overrides = dict(overrides or {})
    if solver_id is SolverId.DTNR and "newton" in overrides:
        overrides["newton"] = make_config(SolverId.NR, overrides["newton"])
    names = {f.name for f in dataclasses.fields(config_cls)}
    unknown = set(overrides) - names
    if unknown:
        raise ValueError(
            f"unknown {solver_id.value} config keys: {sorted(unknown)}")
    return config_cls(**overrides)


def run_solver(solver_id, model, target, rng, config=None, budget=None,
               tree=None):
    """One solve with a uniform signature: every solver but dtnr draws its
    start point from `rng`; dtnr requires a trained tree. The target must
    be three finite numbers."""
    solver_id = SolverId(solver_id)
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.all(np.isfinite(target)):
        raise ValueError(
            f"target must be three finite numbers, got {target.tolist()}")
    solve = SOLVERS[solver_id][1]
    if solver_id is SolverId.DTNR:
        if tree is None:
            raise ValueError("DTNR requires a trained regression tree")
        return solve(tree, model, target, config, budget)
    return solve(model, target, config, budget, rng)
