"""Numerical IK solvers: Newton-Raphson with a pseudo-inverse Jacobian,
and the Nelder-Mead downhill simplex."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SolverId, default_budget, population_best, run_steps
# perfbench/tracer.py wraps the kinematics functions under the names this
# module binds, so every one of them stays imported here.
from .kinematics import (KinematicModel, end_effector_position, fitness,
                         joint_frames, point_and_jacobian, position_jacobian,
                         wrap_angle)

DIVERGENCE_GUARD = 5   # consecutive fitness increases before aborting
STALL_STEP_NORM = 1e-8  # joint-space step below which Newton has stalled


@dataclass(frozen=True)
class NewtonConfig:
    damping: float = 0.0
    step_scale: float = 1.0

    def __post_init__(self):
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")
        if not 0 < self.step_scale <= 1:
            raise ValueError("step_scale must be in (0, 1]")


@dataclass(frozen=True)
class NelderMeadConfig:
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    initial_simplex_scale: float = 0.35

    def __post_init__(self):
        if self.reflection <= 0 or self.expansion <= 1:
            raise ValueError("need reflection > 0 and expansion > 1")
        if not (0 < self.contraction < 1 and 0 < self.shrink < 1):
            raise ValueError("contraction and shrink must be in (0, 1)")


def pseudo_inverse(jac, damping=0.0):
    """Moore-Penrose pseudo-inverse (SVD, singular values below 1e-12
    zeroed) or, with damping > 0, damped least squares J^T (J J^T + l^2 I)^-1."""
    jac = np.asarray(jac, dtype=float)
    if damping > 0.0:
        m = jac.shape[0]
        return jac.T @ np.linalg.inv(jac @ jac.T + damping ** 2 * np.eye(m))
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    s_inv = np.array([1.0 / v if v > 1e-12 else 0.0 for v in s.tolist()])
    return vt.T @ (u * s_inv).T


def pseudo_inverse_step3(rows, e):
    """pseudo_inverse(J) @ e in plain floats for a 3x3 J given as three
    float rows and e an (x, y, z) triple, or None when J's second singular
    value may be below 1e-6 (leave that case to the SVD).

    Like pseudo_inverse, it counts a singular value below 1e-12 as zero.
    Rank 3 is Cramer's rule, J^-1 = adj(J) / det J, where row i of adj(J)
    is the cross product of columns i+1 and i+2. At rank 2 (every dtnr
    Jacobian: joints 1 to 3 turn about one shoulder point, so each column
    is normal to the tool point's offset from it) adj(J) = k m n^T, where
    the unit vectors n and m span the left and right null spaces. Then
    B = J + n m^T is invertible, J+ e = B^-1 e - (n.e) m, and expanding
    adj(B) collapses that to J+ e = m x J^T (e x n) / k.
    """
    (a, b, c), (d, f, g), (h, i, j) = rows
    ex, ey, ez = e
    adj = ((f * j - i * g, i * c - b * j, b * g - f * c),
           (g * h - j * d, j * a - c * h, c * d - g * a),
           (d * i - h * f, h * b - a * i, a * f - d * b))
    # The sum of J's squared 2x2 minors is s1^2 s2^2 + s1^2 s3^2 +
    # s2^2 s3^2, and the sum of its squared entries s1^2 + s2^2 + s3^2.
    # Once s2 is known to be large, det^2 / minors ~ s3^2.
    squares = [x * x + y * y + z * z for x, y, z in adj]
    minors = squares[0] + squares[1] + squares[2]
    if minors <= 1e-12 * (a * a + b * b + c * c + d * d + f * f + g * g
                          + h * h + i * i + j * j):
        return None
    det = a * adj[0][0] + d * adj[0][1] + h * adj[0][2]
    if det * det > 1e-24 * minors:
        return [(x * ex + y * ey + z * ez) / det for x, y, z in adj]
    # With n' the longest row of adj, a multiple of n, u = adj n' is a
    # multiple of k m, and the scale factors cancel in u x h / |u|^2,
    # h = J^T (e x n').
    nx, ny, nz = adj[squares.index(max(squares))]
    gx, gy, gz = ey * nz - ez * ny, ez * nx - ex * nz, ex * ny - ey * nx
    hx, hy, hz = (a * gx + d * gy + h * gz, b * gx + f * gy + i * gz,
                  c * gx + g * gy + j * gz)
    ux, uy, uz = [x * nx + y * ny + z * nz for x, y, z in adj]
    uu = ux * ux + uy * uy + uz * uz
    return [(uy * hz - uz * hy) / uu, (uz * hx - ux * hz) / uu,
            (ux * hy - uy * hx) / uu]


def solve_newton_raphson(model: KinematicModel, target, config=None,
                         budget=None, rng=None, *, start=None):
    """Iterate q <- q - step * J+ (p(q) - target) from `start` (by default
    drawn from `rng`) until the tolerance or the budget is hit. Divergence
    (five consecutive fitness increases) is reported as a non-converged
    result."""
    config = config or NewtonConfig()
    if start is None:
        start = model.random_joints(rng or np.random.default_rng(0))
    target = np.asarray(target, dtype=float)
    return run_steps(_newton_steps(model, target, start, config),
                     budget or default_budget(SolverId.NR), wrap_angle)


def _newton_steps(model, target, start, config):
    q = np.asarray(start, dtype=float).copy()
    best_q = q.copy()
    best_f = fitness(model, q, target)
    yield best_q, best_f, best_f

    prev_f = best_f
    rises = 0
    while True:
        p, jac = point_and_jacobian(model, q)
        step = config.step_scale * (pseudo_inverse(jac, config.damping)
                                    @ (p - target))
        q = q - step
        f = fitness(model, q, target)
        if f < best_f:
            best_f, best_q = f, q.copy()
        rises = rises + 1 if f > prev_f else 0
        prev_f = f
        yield best_q, best_f, f
        if rises >= DIVERGENCE_GUARD or not math.isfinite(f):
            return
        if math.hypot(*step) < STALL_STEP_NORM:
            return  # pinned at a constrained optimum; no progress possible


def nelder_mead_minimize(obj, x0, config=None, budget=None,
                         restart_sampler=None):
    """Reflect/expand/contract/shrink simplex minimisation of an
    arbitrary objective over R^n. Returns (best_x, best_value, iterations).

    A degenerate simplex triggers a restart from restart_sampler() when
    one is supplied (otherwise the search just stops); restarts count
    against the budget.
    """
    result = run_steps(
        _nelder_mead_steps(obj, x0, config or NelderMeadConfig(),
                           restart_sampler),
        budget or default_budget(SolverId.NM), lambda x: x)
    return result.joints, result.final_fitness, result.iterations_used


def _nelder_mead_steps(obj, x0, config, restart_sampler):
    x0 = np.asarray(x0, dtype=float)
    dims = x0.size

    def build_simplex(center):
        pts = [np.asarray(center, dtype=float).copy()]
        for j in range(dims):
            v = pts[0].copy()
            v[j] += config.initial_simplex_scale
            pts.append(v)
        return np.array(pts)

    simplex = build_simplex(x0)
    values = np.array([obj(v) for v in simplex])
    yield population_best(simplex, values)

    while True:
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]

        # Restart on simplex collapse.
        if np.ptp(simplex, axis=0).max() < 1e-15:
            if restart_sampler is None:
                return
            simplex = build_simplex(restart_sampler())
            values = np.array([obj(v) for v in simplex])
            yield population_best(simplex, values)
            continue

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + config.reflection * (centroid - worst)
        f_r = obj(reflected)
        if f_r < values[0]:
            expanded = centroid + config.expansion * (reflected - centroid)
            f_e = obj(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + config.contraction * (worst - centroid)
            f_c = obj(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                best_x = simplex[0]
                for k in range(1, len(simplex)):
                    simplex[k] = best_x + config.shrink * (simplex[k] - best_x)
                    values[k] = obj(simplex[k])
        yield population_best(simplex, values)


def solve_nelder_mead(model: KinematicModel, target, config=None,
                      budget=None, rng=None, *, start=None):
    """Downhill simplex over the seven joint angles from `start` (by
    default drawn from `rng`), minimising the Euclidean distance to the
    target position. A collapsed simplex restarts from a point drawn from
    `rng`."""
    config = config or NelderMeadConfig()
    rng = rng or np.random.default_rng(0)
    if start is None:
        start = model.random_joints(rng)
    target = np.asarray(target, dtype=float)
    return run_steps(
        _nelder_mead_steps(lambda q: fitness(model, q, target), start, config,
                           lambda: model.random_joints(rng)),
        budget or default_budget(SolverId.NM), wrap_angle)
