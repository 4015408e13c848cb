"""Uniform dispatch table over the ten solvers: config classes and a
common call signature for the benchmark and CLI."""
from __future__ import annotations

import dataclasses

import numpy as np

from .core import SolverId, default_budget
from .dtnr import DtnrConfig, solve_dtnr
from .evolution import DeConfig, GaConfig, solve_de, solve_ga
from .heuristics import CcdConfig, SaConfig, solve_ccd, solve_sa
from .numeric import (NelderMeadConfig, NewtonConfig, solve_nelder_mead,
                      solve_newton_raphson)
from .swarm import (AfsaConfig, PsoConfig, QpsoConfig, solve_afsa, solve_pso,
                    solve_qpso)


_CONFIGS = {
    SolverId.DTNR: DtnrConfig,
    SolverId.NR: NewtonConfig,
    SolverId.NM: NelderMeadConfig,
    SolverId.SA: SaConfig,
    SolverId.PSO: PsoConfig,
    SolverId.QPSO: QpsoConfig,
    SolverId.CCD: CcdConfig,
    SolverId.AFSA: AfsaConfig,
    SolverId.GA: GaConfig,
    SolverId.DE: DeConfig,
}


def all_solver_ids():
    return list(_CONFIGS)


def make_config(solver_id, overrides=None):
    """Build the solver's config dataclass, applying keyword overrides."""
    solver_id = SolverId(solver_id)
    config_cls = _CONFIGS[solver_id]
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
    """One solve with a uniform signature. Seed-requiring solvers draw
    their start point from `rng`; DTNR requires a trained tree. The
    target must be three finite numbers."""
    solver_id = SolverId(solver_id)
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.all(np.isfinite(target)):
        raise ValueError(
            f"target must be three finite numbers, got {target.tolist()}")
    if solver_id is SolverId.DTNR:
        if tree is None:
            raise ValueError("DTNR requires a trained regression tree")
        return solve_dtnr(tree, model, target, config, budget)
    if solver_id is SolverId.NR:
        return solve_newton_raphson(model, target, model.random_joints(rng),
                                    config, budget)
    if solver_id is SolverId.NM:
        return solve_nelder_mead(model, target, model.random_joints(rng),
                                 config, budget, rng)
    if solver_id is SolverId.CCD:
        return solve_ccd(model, target, model.random_joints(rng), config,
                         budget)
    if solver_id is SolverId.SA:
        return solve_sa(model, target, config, budget, rng)
    if solver_id is SolverId.GA:
        return solve_ga(model, target, config, budget, rng)
    if solver_id is SolverId.DE:
        return solve_de(model, target, config, budget, rng)
    if solver_id is SolverId.PSO:
        return solve_pso(model, target, config, budget, rng)
    if solver_id is SolverId.QPSO:
        return solve_qpso(model, target, config, budget, rng)
    if solver_id is SolverId.AFSA:
        return solve_afsa(model, target, config, budget, rng)
    raise ValueError(f"unhandled solver {solver_id}")
