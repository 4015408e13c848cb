"""Independent cross-check implementations used as test oracles.

The kinematics oracles are deliberately written from primitive operations
(elementary rotation/translation matrices, explicit loops) rather than
reusing the library's own composition code. The reference tree fit and
solver loops are the straightforward versions of code the library runs
in a faster form; tests require the two to agree bit for bit.
"""
import math
from functools import reduce

import numpy as np

from arm7ik.heuristics import acceptance_probability, temperature_schedule
from arm7ik.kinematics import fitness, joint_axes, wrap_angle


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
    """Per-node CART, one node at a time from an explicit stack: the node
    tables (feature, threshold, left, right, value) as arrays, plus the
    deepest depth reached. A node's children take the next two ids when
    it is popped, and the right child is popped first. Leaves hold the
    mean joint vector of their rows; internal nodes a zero row."""
    x = np.asarray(positions, dtype=float)
    y = np.asarray(joints, dtype=float)
    y_sq = np.einsum("ij,ij->i", y, y)
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [None]
    deepest = 0
    stack = [(0, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        deepest = max(deepest, depth)
        rows_x, rows_y = x[idx], y[idx]
        split = None
        if depth < max_depth and idx.size >= 2 * min_leaf:
            split = _reference_best_split(rows_x, rows_y, y_sq[idx], min_leaf)
            if split is not None and split[2] <= 1e-12:
                split = None
        if split is None:
            value[node] = rows_y.mean(axis=0)
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
        stack.append((left[node], idx[go_left], depth + 1))
        stack.append((right[node], idx[~go_left], depth + 1))
    value = np.array([np.zeros(7) if v is None else v for v in value])
    return (np.array(feature), np.array(threshold), np.array(left),
            np.array(right), value), deepest


def reference_ccd_steps(model, target, seed, config):
    """cyclic coordinate descent as a step generator (see core.run_steps),
    with a full frame pass and Horner tail per joint update (through
    joint_axes) and a full fitness per cycle, on numpy joint vectors."""
    q = wrap_angle(np.asarray(seed, dtype=float))
    best_q = q.copy()
    best_f = fitness(model, q, target)
    yield best_q, best_f, best_f

    order = range(6, -1, -1) if config.sweep_order == "tip_to_base" else range(7)
    stalled = 0
    while True:
        for j in order:
            delta = _reference_ccd_update(model, q, j, target)
            if abs(delta) > config.per_joint_tolerance:
                q[j] = wrap_angle(q[j] + delta)
        f = fitness(model, q, target)
        if f < best_f - 1e-15:
            best_f, best_q = f, q.copy()
            stalled = 0
        else:
            stalled += 1
        yield best_q, best_f, f
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


def reference_sa_steps(model, target, config, tolerance, rng, seed):
    """Simulated annealing as a step generator (see core.run_steps), with a
    full fitness per proposal on numpy joint vectors and numpy's
    wrap_angle and rng.uniform."""
    q = np.asarray(seed, dtype=float).copy() if seed is not None \
        else model.random_joints(rng)
    e_now = fitness(model, q, target)
    best_q, best_f = q.copy(), e_now
    yield best_q, best_f, best_f

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
        yield best_q, best_f, best_f
