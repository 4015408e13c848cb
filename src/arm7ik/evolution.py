"""Evolutionary IK solvers: genetic algorithm and differential evolution."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SolverId, default_budget, population_best, run_steps
from .kinematics import KinematicModel, batch_fitness, wrap_angle


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 30
    mutation_probability: float = 0.01
    crossover_probability: float = 0.9
    elitism_count: int = 2

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for p in (self.mutation_probability, self.crossover_probability):
            if not 0 <= p <= 1:
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class DeConfig:
    population_size: int = 20
    mutation_probability: float = 0.001  # doubles as the noise sigma (rad)
    differential_weight: float = 0.8
    crossover_rate: float = 0.9

    def __post_init__(self):
        if self.differential_weight < 0:
            raise ValueError("differential_weight must be >= 0")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must lie in [0, 1]")


def _tournament(rng, values, size=2):
    """Index of the fitter of `size` random individuals."""
    picks = rng.integers(0, len(values), size=size)
    return picks[np.argmin(values[picks])]


def ga_offspring(rng, p1, p2, config: GaConfig, model: KinematicModel):
    """One child from two parents: per-gene uniform crossover (applied
    with crossover_probability), then per-gene uniform-resample mutation."""
    child = np.asarray(p1, dtype=float).copy()
    if rng.random() < config.crossover_probability:
        take = rng.random(7) < 0.5
        child[take] = np.asarray(p2, dtype=float)[take]
    mutate = rng.random(7) < config.mutation_probability
    if mutate.any():
        child[mutate] = rng.uniform(model.lower[mutate], model.upper[mutate])
    return child


def solve_ga(model: KinematicModel, target, config=None, budget=None,
             rng=None, seed=None):
    """Genetic algorithm with tournament-2 selection, per-gene uniform
    crossover and uniform-resample mutation. Replacement merges parents
    and offspring and keeps the best, so worst old individuals are
    displaced by the best new ones and the best fitness never regresses.
    """
    config = config or GaConfig()
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_ga_steps(model, target, config, rng, seed),
                     budget or default_budget(SolverId.GA), wrap_angle)


def _ga_steps(model, target, config, rng, seed):
    n = config.population_size
    pop = rng.uniform(model.lower, model.upper, size=(n, 7))
    if seed is not None:
        pop[0] = np.asarray(seed, dtype=float)
    values = batch_fitness(model, pop, target)
    yield population_best(pop, values)

    while True:
        children = np.empty((n, 7))
        for k in range(n):
            p1 = pop[_tournament(rng, values)]
            p2 = pop[_tournament(rng, values)]
            children[k] = ga_offspring(rng, p1, p2, config, model)
        child_values = batch_fitness(model, children, target)
        merged = np.vstack([pop, children])
        merged_values = np.concatenate([values, child_values])
        keep = np.argsort(merged_values, kind="stable")[:n]
        pop, values = merged[keep], merged_values[keep]
        yield population_best(pop, values)


def solve_de(model: KinematicModel, target, config=None, budget=None,
             rng=None, seed=None):
    """DE/rand/1/bin with a small Gaussian noise term on the mutant
    vector (sigma = mutation_probability rad per gene) and greedy
    selection."""
    config = config or DeConfig()
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_de_steps(model, target, config, rng, seed),
                     budget or default_budget(SolverId.DE), wrap_angle)


def _de_steps(model, target, config, rng, seed):
    n = config.population_size
    if n < 4:
        raise ValueError("DE needs a population of at least 4")
    pop = rng.uniform(model.lower, model.upper, size=(n, 7))
    if seed is not None:
        pop[0] = np.asarray(seed, dtype=float)
    values = batch_fitness(model, pop, target)
    yield population_best(pop, values)

    while True:
        trials = np.empty((n, 7))
        for k in range(n):
            choices = [i for i in range(n) if i != k]
            a, b, c = rng.choice(choices, size=3, replace=False)
            mutant = pop[a] + config.differential_weight * (pop[b] - pop[c])
            if config.mutation_probability > 0:
                mutant = mutant + rng.normal(
                    0.0, config.mutation_probability, size=7)
            cross = rng.random(7) < config.crossover_rate
            cross[rng.integers(0, 7)] = True
            trial = np.where(cross, mutant, pop[k])
            trials[k] = np.clip(wrap_angle(trial), model.lower, model.upper)
        trial_values = batch_fitness(model, trials, target)
        better = trial_values < values
        pop[better] = trials[better]
        values[better] = trial_values[better]
        yield population_best(pop, values)
