"""Evolutionary IK solvers: genetic algorithm and differential evolution."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_settings, keep_better, population_best, setting
# perfbench/tracer.py wraps batch_fitness under this module's name, so it
# stays imported here only for it: ga and de bind one batch_evaluator per
# solve.
from .kinematics import KinematicModel, batch_evaluator, batch_fitness


@dataclass(frozen=True)
class GaConfig:
    population_size: int = setting(30, 2)
    mutation_probability: float = setting(0.01, 0, 1)
    crossover_probability: float = setting(0.9, 0, 1)

    __post_init__ = check_settings


@dataclass(frozen=True)
class DeConfig:
    population_size: int = setting(20, 4)
    mutation_probability: float = setting(0.001, 0)  # noise sigma (rad)
    differential_weight: float = setting(0.8, 0)
    crossover_rate: float = setting(0.9, 0, 1)

    __post_init__ = check_settings


def tournament_winners(rng, values, shape):
    """Indices of the winners of `shape` independent tournaments of two
    random individuals each: the fitter pick wins, a tie goes to the
    first pick."""
    picks = rng.integers(0, len(values), (*shape, 2))
    fits = values[picks]
    return np.where(fits[..., 0] <= fits[..., 1], picks[..., 0],
                    picks[..., 1])


def ga_offspring(rng, p1, p2, config: GaConfig, model: KinematicModel):
    """Children from parent pairs, one per row of `p1` and `p2` (shape
    (7,) or (n, 7)): per-gene uniform crossover (applied to each child
    with crossover_probability), then per-gene uniform-resample mutation
    within the joint limits."""
    p1 = np.asarray(p1, dtype=float)
    first = p1.reshape(-1, 7)
    n = len(first)
    draws = rng.random(15 * n)  # crossover, take and mutate draws in turn
    take = draws[n:8 * n].reshape(n, 7) < 0.5
    take &= draws[:n, None] < config.crossover_probability
    children = np.where(take, np.asarray(p2, dtype=float).reshape(-1, 7),
                        first)
    mutate = draws[8 * n:].reshape(n, 7) < config.mutation_probability
    joints = np.nonzero(mutate)[1]
    if joints.size:
        # rng.uniform(lower[joints], upper[joints]) as numpy computes it,
        # lower + (upper - lower) * u: the same doubles at a tenth of the
        # per-call cost.
        genes = (model.upper - model.lower)[joints]
        genes *= rng.random(joints.size)
        genes += model.lower[joints]
        children[mutate] = genes
    return children.reshape(p1.shape)


def ga_steps(model: KinematicModel, target, config, budget, rng):
    """Genetic algorithm with tournament-2 selection, per-gene uniform
    crossover and uniform-resample mutation. Replacement merges parents
    and offspring and keeps the best, so worst old individuals are
    displaced by the best new ones and the best fitness never regresses.
    """
    n = config.population_size
    evaluate = batch_evaluator(model, target, n)
    pop = model.random_joints(rng, n)
    values = evaluate(pop)
    yield population_best(pop, values)

    while True:
        p1, p2 = pop[tournament_winners(rng, values, (2, n))]
        children = ga_offspring(rng, p1, p2, config, model)
        merged = np.concatenate((pop, children))
        merged_values = np.concatenate((values, evaluate(children)))
        keep = merged_values.argsort(kind="stable")[:n]
        pop, values = merged[keep], merged_values[keep]
        yield population_best(pop, values)


def de_donors(rng, n):
    """(n, 3) donor indices for DE/rand/1: row k holds three distinct
    indices, none equal to k, drawn uniformly."""
    donors = rng.random((n, n - 1)).argsort(axis=1)[:, :3]
    return donors + (donors >= np.arange(n)[:, None])


def de_trials(rng, pop, config: DeConfig, model: KinematicModel):
    """One trial per row of `pop`: DE/rand/1 mutant plus Gaussian noise,
    binomial crossover with at least one gene taken from the mutant,
    then wrapped and clipped into the joint limits."""
    n = len(pop)
    a, mutants, c = pop[de_donors(rng, n).T]
    mutants -= c
    mutants *= config.differential_weight
    mutants += a
    mutants += rng.normal(0.0, config.mutation_probability, (n, 7))
    cross = rng.random((n, 7)) < config.crossover_rate
    cross[np.arange(n), rng.integers(0, 7, n)] = True
    return model.clip_to_limits(np.where(cross, mutants, pop))


def de_steps(model: KinematicModel, target, config, budget, rng):
    """DE/rand/1/bin with a small Gaussian noise term on the mutant
    vector (sigma = mutation_probability rad per gene) and greedy
    selection."""
    n = config.population_size
    evaluate = batch_evaluator(model, target, n)
    pop = model.random_joints(rng, n)
    values = evaluate(pop)
    yield population_best(pop, values)

    while True:
        trials = de_trials(rng, pop, config, model)
        keep_better(pop, values, trials, evaluate(trials))
        yield population_best(pop, values)
