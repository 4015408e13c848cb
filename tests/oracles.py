"""Independent cross-check implementations used as test oracles.

The kinematics oracles are deliberately written from primitive operations
(elementary rotation/translation matrices, explicit loops) rather than
reusing the library's own composition code. The single-pose kernel in
complex numbers, the batch kernel on complex arrays, the reference tree
fit and the solver loops are the straightforward versions of code the
library runs in a faster form; tests require the two to agree bit for
bit.
"""
import cmath
import collections
import math
from functools import reduce

import numpy as np

from arm7ik import Budget, KinematicModel, run_solver
from arm7ik.core import run_steps
from arm7ik.evolution import de_donors, tournament_winners
from arm7ik.heuristics import acceptance_probability, temperature_schedule
from arm7ik.kinematics import (batch_end_effector_positions, batch_fitness,
                               end_effector_position, fitness, joint_axes,
                               wrap_angle)

NONUNIT = (0.36, 0.42, 0.4, 0.126)
# The arms the solver loops are checked against their references on: both
# conventions, and a joint limit box other than (-pi, pi).
ARMS = {
    "unit": KinematicModel(),
    "standard": KinematicModel(lengths=NONUNIT),
    "modified": KinematicModel(lengths=NONUNIT, convention="modified"),
    "limits": KinematicModel(joint_limits=[(-1.0, 1.0)] * 7),
}
# ARMS plus a box wider than (-pi, pi], which clip_to_limits leaves to the
# wrap alone, as it does the unit arm's (-pi, pi).
POPULATION_ARMS = {
    **ARMS,
    "wide": KinematicModel(joint_limits=[(-2 * math.pi, 2 * math.pi)] * 7),
}


def solver_targets(arm, rng, count):
    """FK targets of `count` random poses of `arm`, plus one past the
    workspace that no solve reaches."""
    targets = [end_effector_position(arm, arm.random_joints(rng))
               for _ in range(count)]
    sphere = arm.workspace
    return targets + [np.array([0.0, 0.0, sphere.h + sphere.r + 0.5])]


def reference_workspace_sample(sphere, rng, law="ball"):
    """One workspace target from three scalar draws in Python floats: the
    radius R*u^(1/3) (ball) or R*sqrt(u) (paper), then the azimuth and the
    polar cosine."""
    u = rng.random()
    r = sphere.r * (u ** (1.0 / 3.0) if law == "ball" else math.sqrt(u))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    cos_t = rng.uniform(-1.0, 1.0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    return [r * sin_t * math.cos(phi), r * sin_t * math.sin(phi),
            sphere.h + r * cos_t]


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0, 0],
                     [s, c, 0, 0],
                     [0, 0, 1, 0],
                     [0, 0, 0, 1]], dtype=float)


def rot_x(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[1, 0, 0, 0],
                     [0, c, -s, 0],
                     [0, s, c, 0],
                     [0, 0, 0, 1]], dtype=float)


def trans_z(d):
    m = np.eye(4)
    m[2, 3] = d
    return m


def trans_x(a):
    m = np.eye(4)
    m[0, 3] = a
    return m


def dh_matrix(alpha, a, d, theta, convention="standard"):
    """Link transform as an explicit primitive product: distal (standard)
    or proximal (modified) convention."""
    if convention == "modified":
        return rot_x(alpha) @ trans_x(a) @ rot_z(theta) @ trans_z(d)
    return rot_z(theta) @ trans_z(d) @ trans_x(a) @ rot_x(alpha)


# The canonical seven-row table: (alpha, a, d) with unit link offsets
# substituted where the chain carries one.
def arm_rows(lengths=(1.0, 1.0, 1.0, 1.0)):
    d1, d3, d5, d7 = lengths
    return [(-math.pi / 2, 0.0, d1),
            (-math.pi / 2, 0.0, 0.0),
            (-math.pi / 2, 0.0, d3),
            (math.pi / 2, 0.0, 0.0),
            (-math.pi / 2, 0.0, d5),
            (math.pi / 2, 0.0, 0.0),
            (0.0, 0.0, d7)]


def fk_matrix(q, lengths=(1.0, 1.0, 1.0, 1.0), convention="standard"):
    """Forward kinematics by a plain left-to-right matrix product."""
    mats = [dh_matrix(alpha, a, d, theta, convention)
            for (alpha, a, d), theta in zip(arm_rows(lengths), q)]
    return reduce(np.matmul, mats, np.eye(4))


def fk_position(q, lengths=(1.0, 1.0, 1.0, 1.0), convention="standard"):
    return fk_matrix(q, lengths, convention)[:3, 3]


# The single-pose kernel in Python complex numbers: the rule Rx(tilt)
# Rz(theta) Tz(d) per joint, each plane rotation a product with e^(i phi)
# from cmath.rect, the tilts taken from arm_rows' alphas (under the
# standard convention each alpha tilts the next joint). The library runs
# the same rule as float products, which round alike, so the two must
# agree with ==.

def reference_turns(q):
    """e^(i theta) per joint of one pose."""
    return [cmath.rect(1.0, v) for v in np.asarray(q, dtype=float).tolist()]


def _reference_links(model):
    alphas = [alpha for alpha, _, _ in arm_rows(model.lengths)]
    if model.convention == "standard":
        alphas = [0.0] + alphas[:-1]
    return [(cmath.rect(1.0, alpha), d)
            for alpha, (_, _, d) in zip(alphas, arm_rows(model.lengths))]


def _reference_joint(turn, tilt, d, x, y, z):
    xy = (x + 1j * y) * turn
    yz = (xy.imag + 1j * (z + d)) * tilt
    return xy.real, yz.real, yz.imag


def reference_partials(model, q):
    """h[k], the tool point in the frame before joint k, k = 0..7, by
    Horner's rule from the tip."""
    turns, links = reference_turns(q), _reference_links(model)
    h = [None] * 7 + [(0.0, 0.0, 0.0)]
    for k in range(6, -1, -1):
        h[k] = _reference_joint(turns[k], *links[k], *h[k + 1])
    return h


def reference_joint_axes(model, q, joints=7):
    """(tool point, axes, origins) of the leading `joints` joints by a
    frame pass from the base over complex turns and tilts, with the
    Horner partial of the joints after them as the tail."""
    turns, links = reference_turns(q), _reference_links(model)
    xx, xy, xz, yx, yy, yz, zx, zy, zz, px, py, pz = (
        1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    axes, origins = [], []
    for (tilt, d), turn in zip(links[:joints], turns):
        c, s = tilt.real, tilt.imag
        yx, yy, yz, zx, zy, zz = (c * yx + s * zx, c * yy + s * zy,
                                  c * yz + s * zz, c * zx - s * yx,
                                  c * zy - s * yy, c * zz - s * yz)
        axes.append((zx, zy, zz))
        origins.append((px, py, pz))
        px, py, pz = px + d * zx, py + d * zy, pz + d * zz
        c, s = turn.real, turn.imag
        xx, xy, xz, yx, yy, yz = (c * xx + s * yx, c * xy + s * yy,
                                  c * xz + s * yz, c * yx - s * xx,
                                  c * yy - s * xy, c * yz - s * xz)
    x, y, z = reference_partials(model, q)[joints]
    point = (px + x * xx + y * yx + z * zx, py + x * xy + y * yy + z * zy,
             pz + x * xz + y * yz + z * zz)
    return point, axes, origins


def reference_jacobian(model, q, joints=7):
    """(tool point, 3 x joints Jacobian rows as lists): column j is
    axis_j x (p_e - origin_j)."""
    (px, py, pz), axes, origins = reference_joint_axes(model, q, joints)
    rows = [[], [], []]
    for (ax, ay, az), (ox, oy, oz) in zip(axes, origins):
        vx, vy, vz = px - ox, py - oy, pz - oz
        rows[0].append(ay * vz - az * vy)
        rows[1].append(az * vx - ax * vz)
        rows[2].append(ax * vy - ay * vx)
    return (px, py, pz), rows


def reference_fitness(model, q, target):
    x, y, z = reference_partials(model, q)[0]
    tx, ty, tz = np.asarray(target, dtype=float).tolist()
    return math.hypot(x - tx, y - ty, z - tz)


# The batch kernel as plain complex-array expressions: each joint builds
# x + iy and y + iz afresh from real arrays, the turn a row of one complex
# array of cos + i sin. The library runs the same products in place on
# views of one point buffer; tests require the two to agree bit for bit.

def reference_batch_points(model, qs):
    """Tool points of an (n, 7) array as (n,) x, y and z arrays."""
    th = np.asarray(qs, dtype=float).T
    turns = np.empty(th.shape, dtype=complex)
    turns.real = np.cos(th)
    turns.imag = np.sin(th)
    x = y = z = 0.0
    for turn, (c, s, d) in zip(turns[::-1], model._links[::-1]):
        xy = (x + 1j * y) * turn
        yz = (xy.imag + 1j * (z + d)) * complex(c, s)
        x, y, z = xy.real, yz.real, yz.imag
    return x, y, z


def reference_batch_fitness(model, qs, target):
    x, y, z = reference_batch_points(model, qs)
    tx, ty, tz = np.asarray(target, dtype=float).tolist()
    return np.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2)


def _reference_best_split(x, y, y_sq, min_leaf):
    """Best (feature, threshold, sse_gain) for one node, by exhaustive
    scan of every candidate split on each of the three features."""
    n = x.shape[0]
    total_sum = y.sum(axis=0)
    total_sq = y_sq.sum()
    parent_sse = total_sq - (total_sum @ total_sum) / n
    best = None
    for f in range(3):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        cum_sum = np.cumsum(ys, axis=0)
        cum_sq = np.cumsum(y_sq[order])
        # split after position i: left = [0..i], right = [i+1..]
        idx = np.arange(min_leaf - 1, n - min_leaf)
        if idx.size == 0:
            continue
        valid = xs[idx] < xs[idx + 1]
        idx = idx[valid]
        if idx.size == 0:
            continue
        n_left = idx + 1.0
        n_right = n - n_left
        left_sum = cum_sum[idx]
        right_sum = total_sum - left_sum
        sse = (cum_sq[idx] - np.einsum("ij,ij->i", left_sum, left_sum) / n_left
               + (total_sq - cum_sq[idx])
               - np.einsum("ij,ij->i", right_sum, right_sum) / n_right)
        k = int(np.argmin(sse))
        gain = parent_sse - sse[k]
        if best is None or gain > best[2]:
            thresh = 0.5 * (xs[idx[k]] + xs[idx[k] + 1])
            best = (f, float(thresh), float(gain))
    return best


def reference_tree(positions, joints, max_depth=84, min_leaf=1):
    """Per-node CART, one node at a time from a first-in, first-out queue:
    the node tables (feature, threshold, left, right, value) as arrays,
    plus the deepest depth reached. A node's children take the next two
    ids when it is taken from the queue, left then right, so ids run in
    level order. Leaves hold the mean joint vector of their rows, wrapped
    into (-pi, pi]; internal nodes a zero row."""
    x = np.asarray(positions, dtype=float)
    y = np.asarray(joints, dtype=float)
    y_sq = np.einsum("ij,ij->i", y, y)
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [None]
    deepest = 0
    queue = collections.deque([(0, np.arange(x.shape[0]), 0)])
    while queue:
        node, idx, depth = queue.popleft()
        deepest = max(deepest, depth)
        rows_x, rows_y = x[idx], y[idx]
        split = None
        if depth < max_depth and idx.size >= 2 * min_leaf:
            split = _reference_best_split(rows_x, rows_y, y_sq[idx], min_leaf)
            if split is not None and split[2] <= 1e-12:
                split = None
        if split is None:
            value[node] = wrap_angle(rows_y.mean(axis=0))
            continue
        f, thresh, _ = split
        go_left = rows_x[:, f] <= thresh
        feature[node], threshold[node] = f, thresh
        left[node], right[node] = len(feature), len(feature) + 1
        for _ in range(2):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(None)
        queue.append((left[node], idx[go_left], depth + 1))
        queue.append((right[node], idx[~go_left], depth + 1))
    value = np.array([np.zeros(7) if v is None else v for v in value])
    return (np.array(feature), np.array(threshold), np.array(left),
            np.array(right), value), deepest


def reference_dataset(model, count, noise_amplitude, rng):
    """generate_dataset's grid rows by the full-grid formula: the k^7 grid
    built by meshgrid, noise added to every row, then `count` rows chosen
    without replacement, in index order. Counts below 2^7 draw random
    joints instead. Returns (joints, positions, grid_per_axis)."""
    if count < 2 ** 7:
        joints = model.random_joints(rng, count)
        return joints, batch_end_effector_positions(model, joints), None
    k = math.ceil(count ** (1.0 / 7.0))
    if (k - 1) ** 7 >= count:
        k -= 1
    axes = [np.linspace(model.lower[j], model.upper[j], k) for j in range(7)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    joints = grid.reshape(-1, 7)
    if noise_amplitude > 0:
        joints = joints + rng.uniform(-noise_amplitude, noise_amplitude,
                                      size=joints.shape)
    if joints.shape[0] > count:
        idx = np.sort(rng.choice(joints.shape[0], size=count, replace=False))
        joints = joints[idx]
    return joints, batch_end_effector_positions(model, joints), k


def reference_ccd_steps(model, target, start, config):
    """cyclic coordinate descent, tip to base, as a step generator (see
    core.run_steps), with a full frame pass and Horner tail per joint
    update (through joint_axes) and a full fitness per cycle, on numpy
    joint vectors."""
    q = wrap_angle(np.asarray(start, dtype=float))
    best_q = q.copy()
    best_f = fitness(model, q, target)
    yield best_q, best_f

    stalled = 0
    while True:
        for j in range(6, -1, -1):
            delta = _reference_ccd_update(model, q, j, target)
            if abs(delta) > config.per_joint_tolerance:
                q[j] = wrap_angle(q[j] + delta)
        f = fitness(model, q, target)
        if f < best_f - 1e-15:
            best_f, best_q = f, q.copy()
            stalled = 0
        else:
            stalled += 1
        yield best_q, best_f
        if stalled >= config.loop_guard:
            return


def _reference_ccd_update(model, q, joint, target):
    """The closed-form rotation of one joint that aligns the projections
    of (tool - origin) and (target - origin) normal to its axis."""
    def normal_part(point, origin, axis):
        v = [point[i] - origin[i] for i in range(3)]
        k = v[0] * axis[0] + v[1] * axis[1] + v[2] * axis[2]
        return [v[i] - k * axis[i] for i in range(3)]

    p_e, axes, origins = joint_axes(model, q, joint + 1)
    axis, origin = axes[joint], origins[joint]
    cx, cy, cz = normal_part(p_e, origin, axis)
    tx, ty, tz = normal_part(np.asarray(target, dtype=float).tolist(),
                             origin, axis)
    if math.hypot(cx, cy, cz) < 1e-12 or math.hypot(tx, ty, tz) < 1e-12:
        return 0.0
    ax, ay, az = axis
    return math.atan2(ax * (cy * tz - cz * ty) + ay * (cz * tx - cx * tz)
                      + az * (cx * ty - cy * tx),
                      cx * tx + cy * ty + cz * tz)


def reference_sa_steps(model, target, config, tolerance, rng):
    """Simulated annealing as a step generator (see core.run_steps), with a
    full fitness per proposal on numpy joint vectors and numpy's
    wrap_angle and rng.uniform."""
    q = model.random_joints(rng)
    e_now = fitness(model, q, target)
    best_q, best_f = q.copy(), e_now
    yield best_q, best_f

    for temperature in temperature_schedule(config):
        scale = config.neighborhood_scale * (
            temperature / config.t_max) ** config.step_decay
        stay = 0
        while stay < config.max_stay_counter:
            for j in range(7):
                q_new = q.copy()
                q_new[j] = wrap_angle(q_new[j] + rng.uniform(-scale, scale))
                e_new = fitness(model, q_new, target)
                delta = e_new - e_now
                if (delta < 0 or rng.random() < acceptance_probability(
                        delta, temperature, config.paper_literal_acceptance)):
                    q, e_now = q_new, e_new
                if e_new < best_f:
                    best_q, best_f = q_new.copy(), e_new
                    stay = 0
                else:
                    stay += 1
            if best_f < tolerance:
                break
        yield best_q, best_f


def reference_nm_steps(model, target, config, rng):
    """Nelder-Mead as a step generator (see core.run_steps) on a numpy
    simplex, with a full fitness per vertex and a stable argsort, so tied
    vertices keep their order."""
    def build_simplex(center):
        pts = [np.asarray(center, dtype=float).copy()]
        for j in range(7):
            v = pts[0].copy()
            v[j] += config.initial_simplex_scale
            pts.append(v)
        return np.array(pts)

    def step():
        i = int(np.argmin(values))
        current = simplex[i], float(values[i])
        return kept if kept[1] < current[1] else current

    kept = (None, math.inf)
    simplex = build_simplex(model.random_joints(rng))
    values = np.array([fitness(model, v, target) for v in simplex])
    best = step()
    yield best

    while True:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        if np.ptp(simplex, axis=0).max() < 1e-15:
            kept = best
            simplex = build_simplex(model.random_joints(rng))
            values = np.array([fitness(model, v, target) for v in simplex])
            best = step()
            yield best
            continue

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + config.reflection * (centroid - worst)
        f_r = fitness(model, reflected, target)
        if f_r < values[0]:
            expanded = centroid + config.expansion * (reflected - centroid)
            f_e = fitness(model, expanded, target)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + config.contraction * (worst - centroid)
            f_c = fitness(model, contracted, target)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                best_x = simplex[0]
                for k in range(1, len(simplex)):
                    simplex[k] = best_x + config.shrink * (simplex[k] - best_x)
                    values[k] = fitness(model, simplex[k], target)
        best = step()
        yield best


def _reference_prey_step(rng, visual_range):
    """A random step of norm at most visual_range, as a numpy vector."""
    direction = rng.normal(size=7)
    norm = np.linalg.norm(direction)
    if norm < 1e-300:
        return np.zeros(7)
    return direction / norm * visual_range * rng.random() ** 3


def reference_afsa_steps(model, target, config, rng):
    """The artificial fish swarm as a step generator (see core.run_steps)
    on numpy joint vectors: each prey move through clip_to_limits and a
    full fitness."""
    n = config.population_size
    fish = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = batch_fitness(model, fish, target)
    g = int(np.argmin(values))
    best_q, best_f = fish[g].copy(), float(values[g])
    yield best_q, best_f

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
                    centroid = fish[neighbors].mean(axis=0)
                    fc = fitness(model, centroid, target)
                    if (fc < f and neighbors.size / n < config.crowding_factor):
                        cand = move_toward(x, centroid)
                        f_cand = fitness(model, cand, target)
                        if f_cand < f:
                            x, f, moved = cand, f_cand, True
                    if not moved:
                        b = neighbors[np.argmin(values[neighbors])]
                        if values[b] < f:
                            cand = move_toward(x, fish[b])
                            f_cand = fitness(model, cand, target)
                            if f_cand < f:
                                x, f, moved = cand, f_cand, True

            if not moved:
                for _ in range(config.max_attempt_size):
                    cand = model.clip_to_limits(
                        x + _reference_prey_step(rng, config.visual_range))
                    f_cand = fitness(model, cand, target)
                    if f_cand < f:
                        x, f, moved = cand, f_cand, True
                        break
                if not moved and rng.random() > config.exploration_q:
                    x = model.clip_to_limits(
                        x + _reference_prey_step(rng, config.visual_range))
                    f = fitness(model, x, target)

            fish[i], values[i] = x, f
            if f < best_f:
                best_q, best_f = x.copy(), float(f)
        yield best_q, best_f


def assert_solver_matches(algo, reference_steps, arm, config,
                          max_iterations=60):
    """The solver and its numpy reference give the same joints, fitness
    and trace, bit for bit, on three FK targets of `arm` and one past its
    workspace, under a budget of `max_iterations`."""
    budget = Budget(max_iterations=max_iterations)
    rng = np.random.default_rng(37)
    for i, target in enumerate(solver_targets(arm, rng, 3)):
        got = run_solver(algo, arm, target, np.random.default_rng((i, 5)),
                         config, budget)
        want = run_steps(reference_steps(arm, target, config, budget,
                                         np.random.default_rng((i, 5))),
                         budget)
        assert got.same_outcome(want)


# The population solvers as plain numpy expressions, each step allocating
# its arrays: fitness through reference_batch_fitness, the wrap and clip
# through np.clip, and the yielded joints copied.

def _reference_clip(model, q):
    return np.clip(wrap_angle(q), model.lower, model.upper)


def _reference_best(points, values):
    i = int(np.argmin(values))
    return points[i].copy(), float(values[i])


def _reference_bests(pbest, pbest_values, gbest, gbest_value, x, values):
    improved = values < pbest_values
    pbest[improved] = x[improved]
    pbest_values[improved] = values[improved]
    g = int(np.argmin(pbest_values))
    if pbest_values[g] < gbest_value:
        gbest, gbest_value = pbest[g].copy(), float(pbest_values[g])
    return gbest, gbest_value


def reference_pso_steps(model, target, config, budget, rng):
    """gbest PSO as a step generator (see core.run_steps)."""
    n = config.num_particles
    span = model.upper - model.lower
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    v = rng.uniform(-span, span, size=(n, 7)) * 0.1
    values = reference_batch_fitness(model, x, target)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value

    v_max = 0.5 * span
    while True:
        r1 = rng.random((n, 7))
        r2 = rng.random((n, 7))
        v = (config.inertia * v + config.cognitive * r1 * (pbest - x)
             + config.social * r2 * (gbest - x))
        v = np.clip(v, -v_max, v_max)
        x = _reference_clip(model, x + v)
        values = reference_batch_fitness(model, x, target)
        gbest, gbest_value = _reference_bests(pbest, pbest_values, gbest,
                                              gbest_value, x, values)
        yield gbest, gbest_value


def reference_qpso_steps(model, target, config, budget, rng):
    """Quantum-behaved PSO as a step generator (see core.run_steps), with
    its attractor, spread and sign drawn one (n, 7) array at a time."""
    n = config.num_particles
    x = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = reference_batch_fitness(model, x, target)
    pbest = x.copy()
    pbest_values = values.copy()
    g = int(np.argmin(values))
    gbest, gbest_value = x[g].copy(), float(values[g])
    yield gbest, gbest_value

    max_iter = budget.max_iterations
    for it in range(max_iter):
        frac = it / max(1, max_iter - 1)
        beta = config.beta_start + frac * (config.beta_end - config.beta_start)
        mbest = pbest.mean(axis=0)
        phi = rng.random(pbest.shape)
        p = phi * pbest + (1.0 - phi) * gbest
        u = rng.random((n, 7))
        sign = np.where(rng.random((n, 7)) < 0.5, 1.0, -1.0)
        x = p + sign * beta * np.abs(mbest - x) * np.log(1.0 / u)
        x = _reference_clip(model, x)
        values = reference_batch_fitness(model, x, target)
        gbest, gbest_value = _reference_bests(pbest, pbest_values, gbest,
                                              gbest_value, x, values)
        yield gbest, gbest_value


def reference_ga_steps(model, target, config, budget, rng):
    """The genetic algorithm as a step generator (see core.run_steps),
    each draw of a generation its own call: tournaments, crossover coins,
    gene picks, mutation coins, then rng.uniform for the mutated genes."""
    n = config.population_size
    pop = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = reference_batch_fitness(model, pop, target)
    yield _reference_best(pop, values)

    while True:
        parents = tournament_winners(rng, values, (2, n))
        p1, p2 = pop[parents[0]], pop[parents[1]]
        crossed = rng.random((n, 1)) < config.crossover_probability
        take = crossed & (rng.random((n, 7)) < 0.5)
        children = np.where(take, p2, p1)
        mutate = rng.random((n, 7)) < config.mutation_probability
        joints = np.nonzero(mutate)[1]
        children[mutate] = rng.uniform(model.lower[joints],
                                       model.upper[joints])
        child_values = reference_batch_fitness(model, children, target)
        merged = np.vstack([pop, children])
        merged_values = np.concatenate([values, child_values])
        keep = np.argsort(merged_values, kind="stable")[:n]
        pop, values = merged[keep], merged_values[keep]
        yield _reference_best(pop, values)


def reference_de_steps(model, target, config, budget, rng):
    """DE/rand/1/bin with Gaussian noise as a step generator (see
    core.run_steps), selecting into the population by boolean masks."""
    n = config.population_size
    pop = rng.uniform(model.lower, model.upper, size=(n, 7))
    values = reference_batch_fitness(model, pop, target)
    yield _reference_best(pop, values)

    while True:
        a, b, c = de_donors(rng, n).T
        mutants = (pop[a] + config.differential_weight * (pop[b] - pop[c])
                   + rng.normal(0.0, config.mutation_probability, (n, 7)))
        cross = rng.random((n, 7)) < config.crossover_rate
        cross[np.arange(n), rng.integers(0, 7, n)] = True
        trials = _reference_clip(model, np.where(cross, mutants, pop))
        trial_values = reference_batch_fitness(model, trials, target)
        better = trial_values < values
        pop[better] = trials[better]
        values[better] = trial_values[better]
        yield _reference_best(pop, values)
