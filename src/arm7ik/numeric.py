"""Numerical IK solvers: Newton-Raphson with a pseudo-inverse Jacobian,
and the Nelder-Mead downhill simplex."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import check_settings, setting
# perfbench/tracer.py wraps end_effector_position, fitness, joint_frames
# and position_jacobian under this module's names, so all four stay
# imported here, though no solver below calls them: nm evaluates poses
# through pose_fitness, and Newton through point_and_jacobian.
from .kinematics import (KinematicModel, end_effector_position, fitness,
                         joint_frames, point_and_jacobian, pose_fitness,
                         position_jacobian, tool_point)

DIVERGENCE_GUARD = 5   # consecutive fitness increases before aborting
STALL_STEP_NORM = 1e-8  # joint-space step below which Newton has stalled


@dataclass(frozen=True)
class NewtonConfig:
    damping: float = setting(0.0, 0)
    step_scale: float = setting(1.0, 0, 1, above=True)

    __post_init__ = check_settings


@dataclass(frozen=True)
class NelderMeadConfig:
    reflection: float = setting(1.0, 0, above=True)
    expansion: float = setting(2.0, 1, above=True)
    contraction: float = setting(0.5, 0, 1, above=True, below=True)
    shrink: float = setting(0.5, 0, 1, above=True, below=True)
    initial_simplex_scale: float = setting(0.35, 0, above=True)

    __post_init__ = check_settings


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


def nr_steps(model: KinematicModel, target, config, budget, rng):
    """Newton-Raphson from a start drawn from `rng`: newton_steps on all
    seven joints. Divergence (five consecutive fitness increases) ends
    the solve as non-converged."""
    yield from newton_steps(model, target, model.random_joints(rng), config)


def newton_steps(model, target, start, config, joints=7):
    """run_steps generator of Newton-Raphson on the leading `joints`
    joints of `start`, the pseudo-inverse update of Buss (2004). The
    joints from `joints` on stay at `start` bit for bit, and enter only
    through their Horner tail tool_point(model, start, joints). The
    moving joints, the error and the step are plain floats: an undamped
    3x3 Jacobian takes the closed form pseudo_inverse_step3, and any
    other Jacobian, or one near rank 1, goes through pseudo_inverse.
    Stops after DIVERGENCE_GUARD consecutive fitness increases, at a
    non-finite fitness, or once a step is shorter than STALL_STEP_NORM.
    It yields its joints as lists of floats."""
    q = np.asarray(start, dtype=float).tolist()
    t = np.asarray(target, dtype=float).tolist()
    tail = tool_point(model, q, joints)
    p, jac = point_and_jacobian(model, q, joints, tail)
    best_q = q
    best_f = math.dist(p, t)
    yield best_q, best_f

    head, rest = q[:joints], q[joints:]
    damping = config.damping
    scale = config.step_scale
    prev_f = best_f
    rises = 0
    while True:
        e = (p[0] - t[0], p[1] - t[1], p[2] - t[2])
        step = None
        if joints == 3 and not damping:
            step = pseudo_inverse_step3(jac, e)
        if step is None:
            step = [a * e[0] + b * e[1] + c * e[2]
                    for a, b, c in pseudo_inverse(jac, damping).tolist()]
        head = [h - scale * s for h, s in zip(head, step)]
        p, jac = point_and_jacobian(model, head, joints, tail)
        f = math.dist(p, t)
        if f < best_f:
            best_f, best_q = f, head + rest
        rises = rises + 1 if f > prev_f else 0
        prev_f = f
        yield best_q, best_f
        if rises >= DIVERGENCE_GUARD or not math.isfinite(f):
            return
        if math.hypot(*step) < STALL_STEP_NORM:
            return  # pinned at a constrained optimum; no progress possible


def nm_steps(model: KinematicModel, target, config, budget, rng):
    """Downhill simplex (reflect, expand, contract, shrink) over the seven
    joint angles from a start drawn from `rng`, minimising the distance
    to the target. A collapsed simplex restarts around a point drawn from
    `rng`; restarts count against the budget, and the best point of the
    simplices before a restart is kept until a later one beats it."""
    # The simplex is eight lists of seven floats. Vertices are sorted
    # stably by value, so tied vertices keep their order on any host
    # (numpy's argsort orders ties by the CPU's SIMD level). When a step
    # replaced only the worst vertex, the other seven are still sorted, and
    # the new one goes after those with a value <= its own, where the
    # stable sort would put it. The centroid sums rows 0-6 in order, as
    # numpy's mean over axis 0 does. A vertex list is replaced, never
    # changed in place, so the best one is yielded as it is.
    t = np.asarray(target, dtype=float).tolist()
    reflection, expansion = config.reflection, config.expansion
    contraction, shrink = config.contraction, config.shrink

    def build_simplex(center):
        center = center.tolist()
        pts = [center]
        for j in range(7):
            v = center[:]
            v[j] += config.initial_simplex_scale
            pts.append(v)
        return pts, [pose_fitness(model, v, t) for v in pts]

    def step():  # the simplex's best, unless the one kept is better
        f = min(values)
        if kept[1] < f:
            return kept
        return simplex[values.index(f)], f

    kept = (None, math.inf)  # the best before the last restart
    simplex, values = build_simplex(model.random_joints(rng))
    best = step()
    yield best

    resort = True
    while True:
        if resort:
            order = sorted(range(8), key=values.__getitem__)
            simplex = [simplex[k] for k in order]
            values = [values[k] for k in order]
        else:  # only the last vertex is new: where a stable sort puts it
            k = bisect_right(values, values[7], 0, 7)
            simplex.insert(k, simplex.pop())
            values.insert(k, values.pop())
        resort = False

        if all(max(col) - min(col) < 1e-15 for col in zip(*simplex)):
            kept = best  # collapsed: restart
            simplex, values = build_simplex(model.random_joints(rng))
            resort = True
            best = step()
            yield best
            continue

        centroid = [(a + b + c + d + e + f + g) / 7
                    for a, b, c, d, e, f, g in zip(*simplex[:7])]
        worst = simplex[7]
        reflected = [c + reflection * (c - w)
                     for c, w in zip(centroid, worst)]
        f_r = pose_fitness(model, reflected, t)
        if f_r < values[0]:
            expanded = [c + expansion * (r - c)
                        for c, r in zip(centroid, reflected)]
            f_e = pose_fitness(model, expanded, t)
            if f_e < f_r:
                simplex[7], values[7] = expanded, f_e
            else:
                simplex[7], values[7] = reflected, f_r
        elif f_r < values[6]:
            simplex[7], values[7] = reflected, f_r
        else:
            contracted = [c + contraction * (w - c)
                          for c, w in zip(centroid, worst)]
            f_c = pose_fitness(model, contracted, t)
            if f_c < values[7]:
                simplex[7], values[7] = contracted, f_c
            else:
                best_x = simplex[0]
                for k in range(1, 8):
                    simplex[k] = [b + shrink * (v - b)
                                  for b, v in zip(best_x, simplex[k])]
                    values[k] = pose_fitness(model, simplex[k], t)
                resort = True
        best = step()
        yield best
