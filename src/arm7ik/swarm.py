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


DRAW_BLOCK = 32  # iterations of pso's and qpso's uniforms per draw
DRAW_DOUBLES = 1 << 14  # and doubles per draw (128 KB), unless one
                        # iteration takes more


def draw_blocks(rng, budget, shape):
    """Each iteration's uniforms of shape `shape`, as (k, *shape) blocks of
    up to DRAW_BLOCK iterations and DRAW_DOUBLES doubles (at least one
    iteration), never past budget.max_iterations: the doubles of one
    rng.random(shape) call per iteration."""
    cap = budget.max_iterations
    k = max(1, min(DRAW_BLOCK, DRAW_DOUBLES // math.prod(shape)))
    for done in range(0, cap, k):
        yield rng.random((min(k, cap - done), *shape))


def pso_velocity_update(v, x, pull, w, coeffs):
    """v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), elementwise, as a
    new array, summed in that order: `pull` holds pbest and gbest, and
    `coeffs` c1*r1 and c2*r2, as the two rows of (2, ...) arrays."""
    terms = np.subtract(pull, x)
    terms *= coeffs
    out = w * v
    out += terms[0]
    out += terms[1]
    return out


def pso_steps(model: KinematicModel, target, config, budget, rng):
    """Canonical gbest PSO with per-dimension random coefficients;
    positions are wrapped back into the joint limits every step. (r1, r2)
    come in blocks (draw_blocks) scaled by (c1, c2); pbest and gbest, tiled,
    are the two rows of one pull buffer."""
    n = config.num_particles
    evaluate = batch_evaluator(model, target, n)
    span = model.upper - model.lower
    x = model.random_joints(rng, n)
    v = rng.uniform(-span, span, size=(n, 7)) * 0.1
    values = evaluate(x)
    pull = np.stack((x, x))
    pbest = pull[0]
    pbest_values = values.copy()
    g = int(values.argmin())
    gbest, gbest_value = x[g].copy(), float(values[g])
    pull[1] = gbest
    yield gbest, gbest_value

    v_max = np.tile(0.5 * span, (n, 1))
    v_min = -v_max
    scale = np.array([config.cognitive, config.social])[:, None, None]
    for block in draw_blocks(rng, budget, (2, n, 7)):
        block *= scale
        for coeffs in block:
            v = pso_velocity_update(v, x, pull, config.inertia, coeffs)
            np.maximum(v, v_min, out=v)
            np.minimum(v, v_max, out=v)
            x = model.clip_to_limits(x + v)
            values = evaluate(x)
            keep_better(pbest, pbest_values, x, values)
            g = int(pbest_values.argmin())
            if pbest_values[g] < gbest_value:
                gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
                pull[1] = gbest
            yield gbest, gbest_value


def qpso_attractor(pbest, gbest, phi, rest):
    """Per-dimension convex combination of pbest and gbest, phi*pbest +
    (1 - phi)*gbest, for uniform draws phi shaped like pbest and rest =
    1 - phi; rest is overwritten."""
    out = phi * pbest
    out += np.multiply(rest, gbest, rest)
    return out


def qpso_steps(model: KinematicModel, target, config, budget, rng):
    """Quantum-behaved PSO: no velocity state; each particle is resampled
    around an attractor with spread beta*|mbest - x|*ln(1/u), beta
    annealed linearly from beta_start to beta_end, on the side a fair
    coin picks. (phi, u, coin) come in blocks (draw_blocks), whose 1 - phi
    and signed ln(1/u) take one call each; gbest is held tiled."""
    n = config.num_particles
    evaluate = batch_evaluator(model, target, n)
    x = model.random_joints(rng, n)
    values = evaluate(x)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(values.argmin())
    gbest, gbest_value = x[g].copy(), float(values[g])
    gbest_tile = np.tile(gbest, (n, 1))
    yield gbest, gbest_value

    last = max(1, budget.max_iterations - 1)
    betas = iter([config.beta_start
                  + it / last * (config.beta_end - config.beta_start)
                  for it in range(budget.max_iterations)])
    for block in draw_blocks(rng, budget, (3, n, 7)):
        # x = p + s*beta*|mbest - x|*ln(1/u) for the coin's sign s = +-1:
        # ln(1/u) takes the sign, which rounds the same.
        phi, spread, coin = block.swapaxes(0, 1)
        rest = 1.0 - phi
        np.divide(1.0, spread, spread)
        np.log(spread, spread)
        np.negative(spread, spread, where=coin >= 0.5)
        for phi_k, rest_k, spread_k in zip(phi, rest, spread):
            mbest = np.add.reduce(pbest, 0) / n  # pbest.mean(axis=0)
            np.subtract(mbest, x, x)
            np.abs(x, x)
            x *= next(betas)
            x *= spread_k
            x += qpso_attractor(pbest, gbest_tile, phi_k, rest_k)
            x = model.clip_to_limits(x)
            values = evaluate(x)
            keep_better(pbest, pbest_values, x, values)
            g = int(pbest_values.argmin())
            if pbest_values[g] < gbest_value:
                gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
                gbest_tile[...] = gbest
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
    # so it is bit-equal to clip_to_limits(x + step) and fitness. A sum in
    # (-pi, pi] wraps to itself plus 0.0, and the clip runs only when
    # clip_to_limits would clip. The school is a list of fish, each a list
    # of seven floats, with their fitness values; swarm and follow moves,
    # which only a population above 1 makes, read it as arrays.
    n = config.population_size
    fish = model.random_joints(rng, n)
    values = batch_fitness(model, fish, target)
    g = int(np.argmin(values))
    best_q, best_f = fish[g].copy(), float(values[g])
    yield best_q, best_f
    fish, values = fish.tolist(), values.tolist()

    box = list(zip(model.lower.tolist(), model.upper.tolist()))
    clips = model._clips
    t = np.asarray(target, dtype=float).tolist()
    pi = math.pi

    def prey_move(x):  # x plus a prey step in the limits, and its fitness
        cand = []
        for a, s, (lo, hi) in zip(x, afsa_prey_step(rng, config.visual_range),
                                  box):
            v = a + s
            v = v + 0.0 if -pi < v <= pi else wrap_float(v)
            if clips:
                v = v if v > lo else lo
                v = v if v < hi else hi
            cand.append(v)
        return cand, pose_fitness(model, cand, t)

    def move_toward(x, goal):  # as a list, for x a list and goal an array
        diff = goal - x
        dist = np.linalg.norm(diff)
        if dist < 1e-12:
            return x[:]
        step = min(dist, config.visual_range * rng.random())
        return model.clip_to_limits(x + diff / dist * step).tolist()

    while True:
        for i in range(n):
            x, f = fish[i], values[i]
            moved = False

            if n > 1:
                school, scores = np.array(fish), np.array(values)
                dists = np.linalg.norm(school - x, axis=1)
                neighbors = np.flatnonzero(
                    (dists > 0) & (dists <= config.visual_range))
                if neighbors.size:
                    # Swarm: head for the neighbourhood centroid if it is
                    # fitter and not crowded.
                    centroid = school[neighbors].mean(axis=0)
                    fc = fitness(model, centroid, target)
                    if (fc < f and neighbors.size / n < config.crowding_factor):
                        cand = move_toward(x, centroid)
                        f_cand = fitness(model, cand, target)
                        if f_cand < f:
                            x, f, moved = cand, f_cand, True
                    # Follow: head for the best visible neighbour.
                    if not moved:
                        b = neighbors[np.argmin(scores[neighbors])]
                        if scores[b] < f:
                            cand = move_toward(x, school[b])
                            f_cand = fitness(model, cand, target)
                            if f_cand < f:
                                x, f, moved = cand, f_cand, True

            if not moved:
                # Prey: bounded random steps, keep the first improvement.
                for _ in range(config.max_attempt_size):
                    cand, f_cand = prey_move(x)
                    if f_cand < f:
                        x, f, moved = cand, f_cand, True
                        break
                if not moved and rng.random() > config.exploration_q:
                    # Rare exploratory random walk, accepted regardless.
                    x, f = prey_move(x)

            fish[i], values[i] = x, f
            if f < best_f:
                best_q, best_f = np.array(x), f
        yield best_q, best_f
