"""Independent cross-check implementations used as test oracles.

Everything here is deliberately written from primitive operations
(elementary rotation/translation matrices, explicit loops) rather than
reusing the library's own composition code.
"""
import math
from functools import reduce

import numpy as np


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
