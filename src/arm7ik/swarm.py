"""Swarm IK solvers: PSO, quantum-behaved PSO and the artificial fish
swarm algorithm."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_settings, keep_better, setting
from .kinematics import (KinematicModel, batch_evaluator, batch_fitness,
                         fitness, pose_fitness, wrap_float)


@dataclass(frozen=True)
class PsoConfig:
    num_particles: int = setting(20, 1)
    inertia: float = setting(0.7298, 0)
    cognitive: float = setting(1.49618, 0)
    social: float = setting(1.49618, 0)

    __post_init__ = check_settings


@dataclass(frozen=True)
class QpsoConfig:
    num_particles: int = setting(20, 2)
    beta_start: float = setting(1.0, 0, above=True)
    beta_end: float = setting(0.5, 0, above=True)

    __post_init__ = check_settings


@dataclass(frozen=True)
class AfsaConfig:
    population_size: int = setting(1, 1)
    exploration_q: float = setting(0.971, 0, 1, above=True, below=True)
    max_attempt_size: int = setting(4, 1)
    visual_range: float = setting(0.6, 0, above=True)
    crowding_factor: float = setting(0.618, 0, 1, above=True)

    __post_init__ = check_settings


def pso_velocity_update(v, x, pbest, gbest, w, c1, c2, r1, r2):
    """v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), elementwise, as a
    new array, summed in that order."""
    out = w * v
    term = c1 * r1
    diff = np.subtract(pbest, x)
    term *= diff
    out += term
    np.multiply(c2, r2, term)
    np.subtract(gbest, x, diff)
    term *= diff
    out += term
    return out


def pso_steps(model: KinematicModel, target, config, budget, rng):
    """Canonical gbest PSO with per-dimension random coefficients;
    positions are wrapped back into the joint limits every step."""
    n = config.num_particles
    evaluate = batch_evaluator(model, target, n)
    span = model.upper - model.lower
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    v = rng.uniform(-span, span, size=(n, 7)) * 0.1
    values = evaluate(x)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value

    v_max = 0.5 * span
    v_min = -v_max
    while True:
        r1, r2 = rng.random((2, n, 7))
        v = pso_velocity_update(v, x, pbest, gbest, config.inertia,
                                config.cognitive, config.social, r1, r2)
        np.maximum(v, v_min, out=v)
        np.minimum(v, v_max, out=v)
        x = model.clip_to_limits(x + v)
        values = evaluate(x)
        keep_better(pbest, pbest_values, x, values)
        g = int(pbest_values.argmin())
        if pbest_values[g] < gbest_value:
            gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
        yield gbest, gbest_value


def qpso_attractor(pbest, gbest, phi):
    """Per-dimension convex combination of pbest and gbest, phi*pbest +
    (1 - phi)*gbest, for uniform draws phi shaped like pbest."""
    return phi * pbest + (1.0 - phi) * gbest


def qpso_steps(model: KinematicModel, target, config, budget, rng):
    """Quantum-behaved PSO: no velocity state; each particle is resampled
    around an attractor with spread beta*|mbest - x|*ln(1/u), beta
    annealed linearly from beta_start to beta_end, on the side a fair
    coin picks."""
    n = config.num_particles
    evaluate = batch_evaluator(model, target, n)
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = evaluate(x)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value

    max_iter = budget.max_iterations
    for it in range(max_iter):
        frac = it / max(1, max_iter - 1)
        beta = config.beta_start + frac * (config.beta_end - config.beta_start)
        mbest = np.add.reduce(pbest, 0) / n  # pbest.mean(axis=0)
        phi, u, coin = rng.random((3, n, 7))
        # x = p + s*beta*|mbest - x|*ln(1/u) for the coin's sign s = +-1;
        # the sign is applied last, which rounds the same.
        np.subtract(mbest, x, x)
        np.abs(x, x)
        x *= beta
        np.divide(1.0, u, u)
        x *= np.log(u, u)
        np.negative(x, x, where=coin >= 0.5)
        x += qpso_attractor(pbest, gbest, phi)
        x = model.clip_to_limits(x)
        values = evaluate(x)
        keep_better(pbest, pbest_values, x, values)
        g = int(pbest_values.argmin())
        if pbest_values[g] < gbest_value:
            gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
        yield gbest, gbest_value


def afsa_prey_step(rng, visual_range):
    """Random step with norm at most visual_range, as seven floats; the
    cubed radius factor makes short steps common so late refinement still
    succeeds. The norm is np.linalg.norm's, the root of the dot product."""
    direction = rng.normal(size=7)
    norm = math.sqrt(direction.dot(direction))
    if norm < 1e-300:
        return [0.0] * 7
    radius = rng.random() ** 3
    return [d / norm * visual_range * radius for d in direction.tolist()]


def afsa_steps(model: KinematicModel, target, config, budget, rng):
    """Artificial fish swarm with prey, swarm and follow behaviours.

    With the tuned population of 1, swarming and following have no
    neighbours to act on and the method degenerates to bounded
    random-step hill climbing with an occasional exploratory move gated
    by exploration_q.
    """
    # A prey move runs in plain floats: per joint, the step, the sum, the
    # wrap and the clip of clip_to_limits in its order, then pose_fitness,
    # so it is bit-equal to clip_to_limits(x + step) and fitness.
    n = config.population_size
    fish = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = batch_fitness(model, fish, target)
    g = int(np.argmin(values))
    best_q, best_f = fish[g].copy(), float(values[g])
    yield best_q, best_f

    box = list(zip(model.lower.tolist(), model.upper.tolist()))
    t = np.asarray(target, dtype=float).tolist()

    def prey_move(x):  # x plus a prey step in the limits, and its fitness
        cand = []
        for a, s, (lo, hi) in zip(x, afsa_prey_step(rng, config.visual_range),
                                  box):
            v = wrap_float(a + s)
            v = v if v > lo else lo
            cand.append(v if v < hi else hi)
        return cand, pose_fitness(model, cand, t)

    def move_toward(x, goal):
        diff = goal - x
        dist = np.linalg.norm(diff)
        if dist < 1e-12:
            return x.copy()
        step = min(dist, config.visual_range * rng.random())
        return model.clip_to_limits(x + diff / dist * step)

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
                here = x.tolist()
                for _ in range(config.max_attempt_size):
                    cand, f_cand = prey_move(here)
                    if f_cand < f:
                        x, f, moved = cand, f_cand, True
                        break
                if not moved and rng.random() > config.exploration_q:
                    # Rare exploratory random walk, accepted regardless.
                    x, f = prey_move(here)

            fish[i], values[i] = x, f
            if f < best_f:
                best_q, best_f = np.array(x), float(f)
        yield best_q, best_f
