"""Data-driven IK: dataset generation over a joint-angle grid, linear and
polynomial regression, a multi-output CART regression tree, and the
evaluation metrics used to compare them."""
from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (KinematicModel, batch_end_effector_positions,
                         wrap_angle)

MODEL_FORMAT = "arm7ik-model"
MODEL_VERSION = 1


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


def _affine_fit(features, targets):
    """Least squares with an intercept column via the normal equations;
    falls back to the pseudo-inverse on rank deficiency."""
    x = np.hstack([np.ones((features.shape[0], 1)), features])
    gram = x.T @ x
    rank_deficient = bool(np.linalg.matrix_rank(gram) < gram.shape[0])
    if rank_deficient:
        beta = np.linalg.pinv(x) @ targets
    else:
        beta = np.linalg.solve(gram, x.T @ targets)
    return beta[0], beta[1:], rank_deficient  # intercepts (7,), weights (f, 7)


class LinearModel:
    """Affine position -> joints map, one output head per joint."""

    kind = "linear"

    def __init__(self, weights, intercepts, rank_deficient=False):
        self.weights = np.asarray(weights, dtype=float)      # (3, 7)
        self.intercepts = np.asarray(intercepts, dtype=float)  # (7,)
        self.rank_deficient = rank_deficient

    def predict_batch(self, positions):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        return wrap_angle(positions @ self.weights + self.intercepts)

    def predict(self, position):
        return self.predict_batch(position)[0]

    def to_dict(self):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                "kind": self.kind,
                "weights": self.weights.tolist(),
                "intercepts": self.intercepts.tolist(),
                "rank_deficient": self.rank_deficient}

    @classmethod
    def from_dict(cls, d):
        return cls(d["weights"], d["intercepts"],
                   d.get("rank_deficient", False))


def fit_linear(train: Dataset) -> LinearModel:
    if len(train) < 4:
        raise ValueError("linear fit needs at least 4 rows")
    intercepts, weights, deficient = _affine_fit(train.positions, train.joints)
    return LinearModel(weights, intercepts, deficient)


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
    feats = polynomial_features(train.positions, degree)
    if len(train) < feats.shape[1] + 1:
        raise ValueError("not enough rows for the polynomial expansion")
    x = np.hstack([np.ones((feats.shape[0], 1)), feats])
    beta, *_ = np.linalg.lstsq(x, train.joints, rcond=None)
    return PolynomialModel(degree, beta[1:], beta[0])


class RegressionTree:
    """Multi-output CART over (x, y, z) with mean joint vectors at the
    leaves. Stored as parallel node tables, lists while the tree is built
    and flat arrays after (see _freeze); feature < 0 marks a leaf."""

    kind = "tree"

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray | None] = []
        self.max_depth_used = 0

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(None)
        return len(self.feature) - 1

    def _freeze(self):
        """Move the node tables into flat arrays once the tree is built.
        Arrays hold no Python objects, so the garbage collector has nothing
        to scan in them. As lists, a 100k-row tree's ~150k-entry tables
        stalled the first collection after a fit by about 10 ms, and added
        as much to every full collection after it."""
        self.feature = array("q", self.feature)
        self.threshold = array("d", self.threshold)
        self.left = array("q", self.left)
        self.right = array("q", self.right)
        value = np.zeros((len(self.value), 7))
        for node, v in enumerate(self.value):
            if v is not None:
                value[node] = v
        self.value = value
        return self

    @property
    def n_nodes(self):
        return len(self.feature)

    def predict(self, position):
        x = np.asarray(position, dtype=float).tolist()
        feature, threshold = self.feature, self.threshold
        left, right = self.left, self.right
        node = 0
        while (f := feature[node]) >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
        return wrap_angle(self.value[node])

    def predict_batch(self, positions):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        out = np.empty((positions.shape[0], 7))
        stack = [(0, np.arange(positions.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = positions[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return wrap_angle(out)

    def _node_dict(self, node):
        if self.feature[node] < 0:
            return {"leaf": [float(v) for v in self.value[node]]}
        return {"feature": int(self.feature[node]),
                "threshold": float(self.threshold[node]),
                "left": self._node_dict(self.left[node]),
                "right": self._node_dict(self.right[node])}

    def to_dict(self):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                "kind": self.kind, "max_depth_used": self.max_depth_used,
                "root": self._node_dict(0)}

    @classmethod
    def from_dict(cls, d):
        tree = cls()
        tree.max_depth_used = d.get("max_depth_used", 0)

        def build(spec):
            node = tree._new_node()
            if "leaf" in spec:
                tree.value[node] = np.asarray(spec["leaf"], dtype=float)
            else:
                tree.feature[node] = spec["feature"]
                tree.threshold[node] = spec["threshold"]
                tree.left[node] = build(spec["left"])
                tree.right[node] = build(spec["right"])
            return node

        import sys
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 10_000))
        try:
            build(d["root"])
        finally:
            sys.setrecursionlimit(old)
        return tree._freeze()


def _best_split(x, y, y_sq, min_leaf):
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


def fit_tree(train: Dataset, max_depth=84, min_leaf=1) -> RegressionTree:
    """Greedy CART: at each node pick the (feature, threshold) split that
    most reduces the summed per-joint squared error; leaves store the
    mean joint vector of their rows.

    min_leaf defaults to 1: averaging several rows in a leaf mixes joint
    configurations from different IK solution branches, whose mean is
    kinematic nonsense. Memorising single rows is what makes the tree
    competitive here.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    x = np.asarray(train.positions, dtype=float)
    y = np.asarray(train.joints, dtype=float)
    y_sq = np.einsum("ij,ij->i", y, y)

    tree = RegressionTree()
    root = tree._new_node()
    stack = [(root, np.arange(len(train)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        tree.max_depth_used = max(tree.max_depth_used, depth)
        rows_x, rows_y = x[idx], y[idx]
        split = None
        if depth < max_depth and idx.size >= 2 * min_leaf:
            split = _best_split(rows_x, rows_y, y_sq[idx], min_leaf)
            if split is not None and split[2] <= 1e-12:
                split = None
        if split is None:
            tree.value[node] = rows_y.mean(axis=0)
            continue
        f, thresh, _ = split
        go_left = rows_x[:, f] <= thresh
        tree.feature[node] = f
        tree.threshold[node] = thresh
        tree.left[node] = tree._new_node()
        tree.right[node] = tree._new_node()
        stack.append((tree.left[node], idx[go_left], depth + 1))
        stack.append((tree.right[node], idx[~go_left], depth + 1))
    return tree._freeze()


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path):
    with open(path) as fh:
        d = json.load(fh)
    if d.get("format") != MODEL_FORMAT:
        raise ValueError(f"not an arm7ik model file: {path}")
    kinds = {"linear": LinearModel, "polynomial": PolynomialModel,
             "tree": RegressionTree}
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
