"""Swarm IK solvers: PSO, quantum-behaved PSO and the artificial fish
swarm algorithm."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SolverId, default_budget, run_steps
from .kinematics import KinematicModel, batch_fitness, fitness, wrap_angle


@dataclass(frozen=True)
class PsoConfig:
    num_particles: int = 20
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618

    def __post_init__(self):
        if self.num_particles < 1:
            raise ValueError("need at least one particle")
        for c in (self.inertia, self.cognitive, self.social):
            if c < 0:
                raise ValueError("w, c1 and c2 must be nonnegative")


@dataclass(frozen=True)
class QpsoConfig:
    num_particles: int = 20
    beta_start: float = 1.0
    beta_end: float = 0.5

    def __post_init__(self):
        if self.beta_start <= 0 or self.beta_end <= 0:
            raise ValueError("beta must stay positive over the schedule")


@dataclass(frozen=True)
class AfsaConfig:
    population_size: int = 1
    exploration_q: float = 0.971
    max_attempt_size: int = 4
    visual_range: float = 0.6
    crowding_factor: float = 0.618

    def __post_init__(self):
        if not 0 < self.exploration_q < 1:
            raise ValueError("exploration_q must lie in (0, 1)")
        if self.visual_range <= 0:
            raise ValueError("visual_range must be positive")


def pso_velocity_update(v, x, pbest, gbest, w, c1, c2, r1, r2):
    """v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), elementwise."""
    return w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x)


def solve_pso(model: KinematicModel, target, config=None, budget=None,
              rng=None, seed=None):
    """Canonical gbest PSO with per-dimension random coefficients;
    positions are wrapped back into the joint limits every step."""
    config = config or PsoConfig()
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_pso_steps(model, target, config, rng, seed),
                     budget or default_budget(SolverId.PSO), wrap_angle)


def _pso_steps(model, target, config, rng, seed):
    n = config.num_particles
    span = model.upper - model.lower
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    if seed is not None:
        x[0] = np.asarray(seed, dtype=float)
    v = rng.uniform(-span, span, size=(n, 7)) * 0.1
    values = batch_fitness(model, x, target)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value, gbest_value

    v_max = 0.5 * span
    while True:
        r1 = rng.random((n, 7))
        r2 = rng.random((n, 7))
        v = pso_velocity_update(v, x, pbest, gbest, config.inertia,
                                config.cognitive, config.social, r1, r2)
        v = np.clip(v, -v_max, v_max)
        x = np.clip(wrap_angle(x + v), model.lower, model.upper)
        values = batch_fitness(model, x, target)
        improved = values < pbest_values
        pbest[improved] = x[improved]
        pbest_values[improved] = values[improved]
        g = int(np.argmin(pbest_values))
        if pbest_values[g] < gbest_value:
            gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
        yield gbest, gbest_value, gbest_value


def qpso_attractor(pbest, gbest, rng):
    """Per-dimension convex combination of pbest and gbest."""
    phi = rng.random(pbest.shape)
    return phi * pbest + (1.0 - phi) * gbest


def solve_qpso(model: KinematicModel, target, config=None, budget=None,
               rng=None, seed=None):
    """Quantum-behaved PSO: no velocity state; each particle is resampled
    around an attractor with spread beta*|mbest - x|*ln(1/u), beta
    annealed linearly from beta_start to beta_end."""
    config = config or QpsoConfig()
    budget = budget or default_budget(SolverId.QPSO)
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_qpso_steps(model, target, config, budget.max_iterations,
                                 rng, seed), budget, wrap_angle)


def _qpso_steps(model, target, config, max_iter, rng, seed):
    n = config.num_particles
    if n < 2:
        raise ValueError("QPSO needs at least two particles")
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    if seed is not None:
        x[0] = np.asarray(seed, dtype=float)
    values = batch_fitness(model, x, target)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value, gbest_value

    for it in range(max_iter):
        frac = it / max(1, max_iter - 1)
        beta = config.beta_start + frac * (config.beta_end - config.beta_start)
        mbest = pbest.mean(axis=0)
        p = qpso_attractor(pbest, gbest, rng)
        u = rng.random((n, 7))
        sign = np.where(rng.random((n, 7)) < 0.5, 1.0, -1.0)
        x = p + sign * beta * np.abs(mbest - x) * np.log(1.0 / u)
        x = np.clip(wrap_angle(x), model.lower, model.upper)
        values = batch_fitness(model, x, target)
        improved = values < pbest_values
        pbest[improved] = x[improved]
        pbest_values[improved] = values[improved]
        g = int(np.argmin(pbest_values))
        if pbest_values[g] < gbest_value:
            gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
        yield gbest, gbest_value, gbest_value


def afsa_prey_step(rng, visual_range):
    """Random step with norm at most visual_range; the cubed radius
    factor makes short steps common so late refinement still succeeds."""
    direction = rng.normal(size=7)
    norm = np.linalg.norm(direction)
    if norm < 1e-300:
        return np.zeros(7)
    return direction / norm * visual_range * rng.random() ** 3


def solve_afsa(model: KinematicModel, target, config=None, budget=None,
               rng=None, seed=None):
    """Artificial fish swarm with prey, swarm and follow behaviours.

    With the tuned population of 1, swarming and following have no
    neighbours to act on and the method degenerates to bounded
    random-step hill climbing with an occasional exploratory move gated
    by exploration_q.
    """
    config = config or AfsaConfig()
    rng = rng or np.random.default_rng(0)
    target = np.asarray(target, dtype=float)
    return run_steps(_afsa_steps(model, target, config, rng, seed),
                     budget or default_budget(SolverId.AFSA), wrap_angle)


def _afsa_steps(model, target, config, rng, seed):
    n = config.population_size
    fish = rng.uniform(model.lower, model.upper, size=(n, 7))
    if seed is not None:
        fish[0] = np.asarray(seed, dtype=float)
    values = batch_fitness(model, fish, target)
    g = int(np.argmin(values))
    best_q, best_f = fish[g].copy(), float(values[g])
    yield best_q, best_f, best_f

    def move_toward(x, goal):
        diff = goal - x
        dist = np.linalg.norm(diff)
        if dist < 1e-12:
            return x.copy()
        step = min(dist, config.visual_range * rng.random())
        return np.clip(wrap_angle(x + diff / dist * step),
                       model.lower, model.upper)

    while True:
        for i in range(n):
            x, f = fish[i], values[i]
            moved = False

            if n > 1:
                dists = np.linalg.norm(fish - x, axis=1)
                neighbors = np.flatnonzero(
                    (dists > 0) & (dists <= config.visual_range))
                if neighbors.size:
                    # Swarm: head for the neighbourhood centroid if it is
                    # fitter and not crowded.
                    centroid = fish[neighbors].mean(axis=0)
                    fc = fitness(model, centroid, target)
                    if (fc < f and neighbors.size / n < config.crowding_factor):
                        cand = move_toward(x, centroid)
                        f_cand = fitness(model, cand, target)
                        if f_cand < f:
                            x, f, moved = cand, f_cand, True
                    # Follow: head for the best visible neighbour.
                    if not moved:
                        b = neighbors[np.argmin(values[neighbors])]
                        if values[b] < f:
                            cand = move_toward(x, fish[b])
                            f_cand = fitness(model, cand, target)
                            if f_cand < f:
                                x, f, moved = cand, f_cand, True

            if not moved:
                # Prey: bounded random steps, keep the first improvement.
                for _ in range(config.max_attempt_size):
                    cand = np.clip(wrap_angle(x + afsa_prey_step(
                        rng, config.visual_range)), model.lower, model.upper)
                    f_cand = fitness(model, cand, target)
                    if f_cand < f:
                        x, f, moved = cand, f_cand, True
                        break
                if not moved and rng.random() > config.exploration_q:
                    # Rare exploratory random walk, accepted regardless.
                    x = np.clip(wrap_angle(x + afsa_prey_step(
                        rng, config.visual_range)), model.lower, model.upper)
                    f = fitness(model, x, target)

            fish[i], values[i] = x, f
            if f < best_f:
                best_q, best_f = x.copy(), float(f)
        yield best_q, best_f, best_f
