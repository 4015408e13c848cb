"""Data-driven IK: dataset generation over a joint-angle grid,
polynomial regression (linear regression is degree 1), a multi-output
CART regression tree, and the evaluation metrics used to compare them."""
from __future__ import annotations

import base64
import csv
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (KinematicModel, batch_end_effector_positions,
                         wrap_angle)

MODEL_FORMAT = "arm7ik-model"
MODEL_VERSION = 1  # polynomial files, and linear files (degree 1)
TREE_VERSION = 2   # flat node tables; version 1 trees must be re-trained
# The tree file's node tables and their little-endian types; the leaves'
# values follow as "leaf_value", "<f8", 7 per leaf in node order.
_TREE_TABLES = (("feature", "<i4"), ("threshold", "<f8"), ("left", "<i4"),
                ("right", "<i4"))


@dataclass
class Dataset:
    """Rows of (joint angles, tool position) plus the metadata needed to
    regenerate the set bit-identically."""
    joints: np.ndarray     # (n, 7)
    positions: np.ndarray  # (n, 3)
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return self.joints.shape[0]

    def subset(self, idx):
        return Dataset(self.joints[idx], self.positions[idx],
                       dict(self.metadata))

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"theta{i}" for i in range(1, 8)]
                            + ["x", "y", "z"])
            for q, p in zip(self.joints, self.positions):
                writer.writerow([repr(float(v)) for v in q]
                                + [repr(float(v)) for v in p])
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2)

    @classmethod
    def load_csv(cls, path):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape[1] != 10:
            raise ValueError("dataset CSV must have 10 columns")
        try:
            with open(str(path) + ".meta.json") as fh:
                metadata = json.load(fh)
        except FileNotFoundError:
            metadata = {}
        return cls(rows[:, :7], rows[:, 7:], metadata)


def generate_dataset(model: KinematicModel, count, noise_amplitude=0.1,
                     rng=None, seed=None):
    """Sweep a regular grid over the joint ranges, perturb each angle by
    uniform +/- noise_amplitude, and store the true FK of the noisy
    angles.

    The per-axis resolution is ceil(count^(1/7)); when the full grid
    exceeds `count` it is subsampled back down to exactly `count` rows.
    Counts below 2^7 cannot form a grid and fall back to random joint
    sampling, flagged in the metadata.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if noise_amplitude < 0:
        raise ValueError("noise_amplitude must be >= 0")
    if rng is None:
        rng = np.random.default_rng(seed or 0)

    meta = {"count": int(count), "noise_amplitude": float(noise_amplitude),
            "seed": seed, "fallback_random": False}
    if count < 2 ** 7:
        joints = rng.uniform(model.lower, model.upper, size=(count, 7))
        meta["fallback_random"] = True
        meta["grid_per_axis"] = None
    else:
        k = math.ceil(count ** (1.0 / 7.0))
        if (k - 1) ** 7 >= count:  # guard against ceil() float fuzz
            k -= 1
        meta["grid_per_axis"] = k
        axes = [np.linspace(model.lower[j], model.upper[j], k)
                for j in range(7)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        joints = grid.reshape(-1, 7)
        if noise_amplitude > 0:
            joints = joints + rng.uniform(-noise_amplitude, noise_amplitude,
                                          size=joints.shape)
        if joints.shape[0] > count:
            idx = np.sort(rng.choice(joints.shape[0], size=count,
                                     replace=False))
            joints = joints[idx]
    positions = batch_end_effector_positions(model, joints)
    return Dataset(joints, positions, meta)


def split_dataset(ds: Dataset, test_fraction=0.25, rng=None, seed=None):
    """Random disjoint train/test partition."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(seed or 0)
    n = len(ds)
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def polynomial_exponents(degree):
    """All (i, j, k) with i + j + k <= degree, excluding the constant."""
    return [(i, j, k)
            for total in range(1, degree + 1)
            for i in range(total, -1, -1)
            for j in range(total - i, -1, -1)
            for k in (total - i - j,)]


def polynomial_features(positions, degree):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    cols = [positions[:, 0] ** i * positions[:, 1] ** j * positions[:, 2] ** k
            for i, j, k in polynomial_exponents(degree)]
    return np.stack(cols, axis=1)


class PolynomialModel:
    """Total-degree multivariate polynomial map over (x, y, z)."""

    kind = "polynomial"

    def __init__(self, degree, weights, intercepts):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.weights = np.asarray(weights, dtype=float)
        self.intercepts = np.asarray(intercepts, dtype=float)

    def predict_batch(self, positions):
        feats = polynomial_features(positions, self.degree)
        return wrap_angle(feats @ self.weights + self.intercepts)

    def predict(self, position):
        return self.predict_batch(position)[0]

    def to_dict(self):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                "kind": self.kind, "degree": self.degree,
                "weights": self.weights.tolist(),
                "intercepts": self.intercepts.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["degree"], d["weights"], d["intercepts"])


def fit_polynomial(train: Dataset, degree=8) -> PolynomialModel:
    """Least-squares fit of every joint on the total-degree `degree`
    monomials of the position and a constant; degree 1 is linear
    regression."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    feats = polynomial_features(train.positions, degree)
    if len(train) < feats.shape[1] + 1:
        raise ValueError(f"a degree-{degree} fit needs at least "
                         f"{feats.shape[1] + 1} rows")
    x = np.hstack([np.ones((feats.shape[0], 1)), feats])
    beta, *_ = np.linalg.lstsq(x, train.joints, rcond=None)
    return PolynomialModel(degree, beta[1:], beta[0])


class RegressionTree:
    """Multi-output CART over (x, y, z) with mean joint vectors at the
    leaves, stored as flat parallel node tables: `feature`, `threshold`,
    `left` and `right` as `array.array`s, `value` as an (n_nodes, 7)
    array. feature < 0 marks a leaf, whose row of `value` holds its mean
    joint vector; internal nodes have all-zero rows. Every child index is
    larger than its parent's, so a walk from the root always ends.

    Arrays hold no Python objects, so the garbage collector has nothing to
    scan in them. As lists, a 100k-row tree's ~150k-entry tables stalled
    the first collection after a fit by about 10 ms, and added as much to
    every full collection after it."""

    kind = "tree"

    def __init__(self, feature, threshold, left, right, value,
                 max_depth_used=0):
        self.feature = _table("q", feature, np.int64)
        self.threshold = _table("d", threshold, np.float64)
        self.left = _table("q", left, np.int64)
        self.right = _table("q", right, np.int64)
        self.value = np.array(value, dtype=float).reshape(-1, 7)
        self.max_depth_used = int(max_depth_used)

    @property
    def n_nodes(self):
        return len(self.feature)

    def predict(self, position):
        # Plain indexing of the array tables: for one pose this beats any
        # numpy walk, and dtnr calls it once per solve.
        x = np.asarray(position, dtype=float).tolist()
        feature, threshold = self.feature, self.threshold
        left, right = self.left, self.right
        node = 0
        while (f := feature[node]) >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
        return wrap_angle(self.value[node])

    def predict_batch(self, positions):
        """Walk all rows down the tree together, one level per step,
        advancing only the rows that still sit at an internal node."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        feature = np.frombuffer(self.feature, dtype=np.int64)
        threshold = np.frombuffer(self.threshold, dtype=np.float64)
        # child[2 * node + go_left]: the right child, then the left.
        child = np.stack([np.frombuffer(self.right, dtype=np.int64),
                          np.frombuffer(self.left, dtype=np.int64)],
                         axis=1).ravel()
        n, width = positions.shape
        flat = positions.ravel()
        leaf_of = np.zeros(n, dtype=np.int64)
        at = np.arange(0, n * width, width)  # active rows' offsets in flat
        node = leaf_of.copy()
        while at.size:
            f = feature[node]
            inner = f >= 0
            if not inner.all():
                leaf_of[at[~inner] // width] = node[~inner]
                at, node, f = at[inner], node[inner], f[inner]
            go_left = flat[at + f] <= threshold[node]
            node = child[2 * node + go_left]
        return wrap_angle(self.value[leaf_of])

    def to_dict(self):
        """Model format v2: the node tables as base64 little-endian arrays,
        and the leaves' values only, in node order."""
        leaf = np.frombuffer(self.feature, dtype=np.int64) < 0
        d = {"format": MODEL_FORMAT, "version": TREE_VERSION,
             "kind": self.kind, "max_depth_used": self.max_depth_used}
        for name, dtype in _TREE_TABLES:
            d[name] = _pack(getattr(self, name), dtype)
        d["leaf_value"] = _pack(self.value[leaf], "<f8")
        return d

    @classmethod
    def from_dict(cls, d):
        version = d.get("version")
        if version != TREE_VERSION:
            raise ValueError(
                f"tree model version {version!r} is not supported (this "
                f"release reads version {TREE_VERSION}); re-train it with "
                f"`arm7ik train --model tree`")
        feature, threshold, left, right = (
            _unpack(d, name, dtype) for name, dtype in _TREE_TABLES)
        n = feature.size
        if n == 0 or not n == threshold.size == left.size == right.size:
            raise ValueError("tree node tables are empty or of different "
                             "lengths")
        leaf = feature < 0
        if np.any(feature > 2):
            raise ValueError("tree node splits on a feature other than "
                             "x, y or z")
        if np.any(left[leaf] != -1) or np.any(right[leaf] != -1):
            raise ValueError("tree leaf has children")
        node = np.flatnonzero(~leaf)
        for child in (left[node], right[node]):
            if np.any(child <= node) or np.any(child >= n):
                raise ValueError("tree child index out of range")
        leaf_value = _unpack(d, "leaf_value", "<f8")
        if leaf_value.size != 7 * int(leaf.sum()):
            raise ValueError("tree leaf-value count is not 7 x the number "
                             "of leaves")
        value = np.zeros((n, 7))
        value[leaf] = leaf_value.reshape(-1, 7)
        return cls(feature, threshold, left, right, value,
                   d.get("max_depth_used", 0))


def _table(typecode, values, dtype):
    table = array(typecode)
    table.frombytes(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return table


def _pack(values, dtype):
    return base64.b64encode(
        np.asarray(values).astype(dtype).tobytes()).decode("ascii")


def _unpack(d, name, dtype):
    try:
        raw = base64.b64decode(d[name], validate=True)
        return np.frombuffer(raw, dtype=dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"tree model field {name!r} is missing or "
                         f"malformed: {exc}") from None


def _best_splits(xt, y, y_sq, orders, starts, n, min_leaf):
    """Best split of each of B nodes that hold n rows apiece: (feature,
    threshold), with feature -1 where no split gains more than 1e-12.

    orders[0] lists each node's rows by row index, orders[1 + f] by
    feature f; a node's rows are orders[:, start:start + n]. Every
    candidate split on all three features of all B nodes is scored with
    one set of (3, B, n, ...) array operations, which reproduce the
    per-node arithmetic of a one-node scan bit for bit: sums along the
    row axis run in the same order, and np.vecdot is the same dot product
    as `a @ a` on a vector.
    """
    pos = starts[:, None] + np.arange(n)
    by_index = orders[0, pos]
    total_sum = y[by_index].sum(axis=1)              # (B, 7)
    total_sq = y_sq[by_index].sum(axis=1)            # (B,)
    parent_sse = total_sq - np.vecdot(total_sum, total_sum) / n
    rows = orders[1:, pos]                           # (3, B, n)
    xs = xt[np.arange(3)[:, None, None], rows]
    cum_sum = np.cumsum(y[rows], axis=2)
    cum_sq = np.cumsum(y_sq[rows], axis=2)
    # split after position i: left = [0..i], right = [i+1..]
    lo, hi = min_leaf - 1, n - min_leaf
    valid = xs[..., lo:hi] < xs[..., lo + 1:hi + 1]
    n_left = np.arange(lo, hi) + 1.0
    n_right = n - n_left
    left_sum = cum_sum[:, :, lo:hi]
    right_sum = total_sum[:, None, :] - left_sum
    left_sq = cum_sq[..., lo:hi]
    sse = (left_sq - np.einsum("fbij,fbij->fbi", left_sum, left_sum) / n_left
           + (total_sq[:, None] - left_sq)
           - np.einsum("fbij,fbij->fbi", right_sum, right_sum) / n_right)
    sse[~valid] = np.inf
    k = sse.argmin(axis=2)                                        # (3, B)
    gain = np.where(valid.any(axis=2), parent_sse - sse.min(axis=2), -np.inf)
    f = gain.argmax(axis=0)        # the first feature wins a tie
    b = np.arange(starts.size)
    split = gain[f, b] > 1e-12
    at = k[f, b] + lo
    threshold = 0.5 * (xs[f, b, at] + xs[f, b, at + 1])
    return np.where(split, f, -1), np.where(split, threshold, 0.0)


def fit_tree(train: Dataset, max_depth=84, min_leaf=1) -> RegressionTree:
    """Greedy CART: at each node pick the (feature, threshold) split that
    most reduces the summed per-joint squared error; leaves store the
    mean joint vector of their rows.

    min_leaf defaults to 1: averaging several rows in a leaf mixes joint
    configurations from different IK solution branches, whose mean is
    kinematic nonsense. Memorising single rows is what makes the tree
    competitive here.

    The fit is level-synchronous (presorted CART, Breiman et al. 1984):
    each feature is argsorted once, and the rows of every node of one
    depth are scored together, one batch per row count. Splitting a
    node partitions its sorted row lists stably, so each child keeps its
    rows in sorted order with ties by row index, as a stable per-node
    argsort would have them. Nodes are numbered at the end in the order a
    depth-first fit that pushes the left child, then the right, creates
    them.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    x = np.asarray(train.positions, dtype=float)
    y = np.asarray(train.joints, dtype=float)
    y_sq = np.einsum("ij,ij->i", y, y)
    xt = np.ascontiguousarray(x.T)
    n_rows = len(train)
    orders = np.empty((4, n_rows), dtype=np.intp)
    orders[0] = np.arange(n_rows)
    for f in range(3):
        orders[1 + f] = np.argsort(x[:, f], kind="stable")

    # One entry per depth; node j of a level owns orders[:, s:s + counts[j]].
    levels = []
    counts = np.array([n_rows])
    while counts.size:
        depth = len(levels)
        starts = np.cumsum(counts) - counts
        feature = np.full(counts.size, -1)
        threshold = np.zeros(counts.size)
        value = np.zeros((counts.size, 7))
        if depth < max_depth:
            splittable = counts >= 2 * min_leaf
            for n in np.unique(counts[splittable]):
                group = np.flatnonzero(splittable & (counts == n))
                feature[group], threshold[group] = _best_splits(
                    xt, y, y_sq, orders, starts[group], int(n), min_leaf)
        leaf = feature < 0
        for n in np.unique(counts[leaf]):
            group = np.flatnonzero(leaf & (counts == n))
            value[group] = y[orders[0, starts[group, None]
                                    + np.arange(n)]].mean(axis=1)
        levels.append((feature, threshold, value))
        orders, counts = _partition(x, orders, counts, feature, threshold)
    return _depth_first(levels)


def _partition(x, orders, counts, feature, threshold):
    """Drop the rows of leaves and move each split node's rows to its
    children, left then right, keeping their order in every list."""
    node_at = np.repeat(np.arange(counts.size), counts)
    keep = feature[node_at] >= 0
    node_at, rows = node_at[keep], orders[:, keep]
    to_right = np.zeros(x.shape[0], dtype=bool)
    to_right[rows[0]] = ~(x[rows[0], feature[node_at]] <= threshold[node_at])
    # Node j's children are 2j and 2j + 1; a stable sort by child keeps
    # each child's rows in the order they had in the parent.
    child = 2 * node_at + to_right[rows]
    moved = np.take_along_axis(rows, np.argsort(child, axis=1, kind="stable"),
                               axis=1)
    children = np.bincount(child[0], minlength=2 * counts.size)
    return moved, children[np.repeat(feature >= 0, 2)]


def _depth_first(levels):
    """Assemble the per-depth node tables into one RegressionTree, numbered
    as a depth-first fit with a stack creates the nodes: each split node,
    when popped, takes the next two ids for its children, and the right
    child is popped first. So the children of the split node that is r-th
    to be popped get ids 2r + 1 and 2r + 2, and a split node's left child
    is popped after every split node under its right sibling."""
    # Level-order ids: the children of the j-th split node of one level
    # are nodes 2j and 2j + 1 of the next.
    first = np.cumsum([0] + [f.size for f, _, _ in levels])
    feature = np.concatenate([f for f, _, _ in levels])
    splits = [np.flatnonzero(f >= 0) + at
              for (f, _, _), at in zip(levels, first)]
    left = np.full(feature.size, -1)
    for d, split in enumerate(splits[:-1]):
        left[split] = first[d + 1] + 2 * np.arange(split.size)
    # Split nodes in each subtree, bottom-up.
    below = (feature >= 0).astype(np.int64)
    for split in reversed(splits):
        below[split] += below[left[split]] + below[left[split] + 1]
    # Pop rank of each split node, top-down, and the ids it gives out.
    popped = np.zeros(feature.size, dtype=np.int64)
    new_id = np.zeros(feature.size, dtype=np.int64)
    for split in splits:
        r, child = popped[split], left[split]
        popped[child + 1] = r + 1
        popped[child] = r + 1 + below[child + 1]
        new_id[child] = 2 * r + 1
        new_id[child + 1] = 2 * r + 2
    old_id = np.empty_like(new_id)
    old_id[new_id] = np.arange(new_id.size)
    feature = feature[old_id]
    internal = feature >= 0
    child = left[old_id]
    return RegressionTree(
        feature, np.concatenate([t for _, t, _ in levels])[old_id],
        np.where(internal, new_id[child], -1),
        np.where(internal, new_id[child + 1], -1),
        np.concatenate([v for _, _, v in levels])[old_id], len(levels) - 1)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path):
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or d.get("format") != MODEL_FORMAT:
        raise ValueError(f"not an arm7ik model file: {path}")
    if d.get("kind") == "linear":  # an affine map: a degree-1 polynomial
        d = {**d, "kind": "polynomial", "degree": 1}
    kinds = {"polynomial": PolynomialModel, "tree": RegressionTree}
    try:
        cls = kinds[d.get("kind")]
    except KeyError:
        raise ValueError(f"unknown model kind {d.get('kind')!r}") from None
    return cls.from_dict(d)


@dataclass(frozen=True)
class ModelMetrics:
    r_squared: float          # absolute value of the mean per-joint r^2
    r_squared_signed: float
    mse: float                # rad^2, over all joints
    average_fitness: float    # mm


def average_fitness_on_positions(predictor, positions, model: KinematicModel):
    """Mean tool-to-target distance when predicted joints are played back
    through forward kinematics."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    pred = predictor.predict_batch(positions)
    reached = batch_end_effector_positions(model, pred)
    return float(np.linalg.norm(reached - positions, axis=1).mean())


def evaluate(predictor, test: Dataset, model: KinematicModel) -> ModelMetrics:
    """Joint-space r^2 (reported as an absolute value) and MSE, plus the
    FK playback fitness against the rows' stored positions."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    pred = predictor.predict_batch(test.positions)
    truth = test.joints
    resid = truth - pred
    mse = float(np.mean(resid ** 2))
    ss_res = np.sum(resid ** 2, axis=0)
    ss_tot = np.sum((truth - truth.mean(axis=0)) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_output = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
    signed = float(per_output.mean())
    avg_fit = average_fitness_on_positions(predictor, test.positions, model)
    return ModelMetrics(r_squared=abs(signed), r_squared_signed=signed,
                        mse=mse, average_fitness=avg_fit)
