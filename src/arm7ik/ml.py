"""Data-driven IK: dataset generation over a joint-angle grid,
polynomial regression (linear regression is degree 1), a multi-output
CART regression tree, and the evaluation metrics used to compare them."""
from __future__ import annotations

import base64
import json
import math
import warnings
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
# FK playback's block: the batch pass's buffers take 120 bytes a row, so
# a block's stay near 1 MB however many rows are played back.
PLAYBACK_ROWS = 8192
# Levels a batch walk takes between setting aside the rows at a leaf.
WALK_LEVELS = 4


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
        # The bytes csv.writer writes, one `repr` per cell: no float's
        # repr needs quoting, so the rows are joined here in one pass.
        rows = np.hstack([self.joints, self.positions]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(",".join([f"theta{i}" for i in range(1, 8)]
                              + ["x", "y", "z"]) + "\r\n")
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2)

    @classmethod
    def load_csv(cls, path):
        # np.loadtxt's own open error names no file; open's names it. A
        # file without data rows is told here, not by numpy's warning.
        with open(path) as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        if not rows.size:
            raise ValueError(f"{path} holds no data rows")
        if rows.shape[1] != 10:
            raise ValueError("dataset CSV must have 10 columns")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(f"dataset CSV data row {bad[0] + 1} (line "
                             f"{bad[0] + 2}) holds a non-finite value")
        try:
            with open(str(path) + ".meta.json") as fh:
                metadata = json.load(fh)
        except FileNotFoundError:
            metadata = {}
        return cls(rows[:, :7], rows[:, 7:], metadata)


def _seeded_rng(seed):
    """default_rng(seed) for an integer seed >= 0, the one kind of seed
    that names its draw: None would draw OS entropy."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def generate_dataset(model: KinematicModel, count, noise_amplitude=0.1,
                     seed=0):
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
    if not 0 <= noise_amplitude < math.inf:
        raise ValueError("noise_amplitude must be finite and >= 0")
    rng = _seeded_rng(seed)

    meta = {"count": int(count), "noise_amplitude": float(noise_amplitude),
            "seed": int(seed), "fallback_random": False}
    if count < 2 ** 7:
        joints = model.random_joints(rng, count)
        meta["fallback_random"] = True
        meta["grid_per_axis"] = None
    else:
        k = math.ceil(count ** (1.0 / 7.0))
        if (k - 1) ** 7 >= count:  # guard against ceil() float fuzz
            k -= 1
        meta["grid_per_axis"] = k
        # The noise and the subsample are drawn over the full k^7 grid,
        # but only the kept grid rows are built: row i holds each axis's
        # value at that axis's digit of i in base k (meshgrid "ij" order).
        size = k ** 7
        noise = None
        if noise_amplitude > 0:
            noise = rng.uniform(-noise_amplitude, noise_amplitude,
                                size=(size, 7))
        idx = np.arange(size)
        if size > count:
            idx = np.sort(rng.choice(size, size=count, replace=False))
        joints = np.stack([
            np.linspace(model.lower[j], model.upper[j], k).take(at)
            for j, at in enumerate(np.unravel_index(idx, (k,) * 7))], axis=1)
        if noise is not None:
            joints += noise.take(idx, axis=0)
    positions = batch_end_effector_positions(model, joints)
    return Dataset(joints, positions, meta)


def split_dataset(ds: Dataset, test_fraction=0.25, seed=0):
    """Random disjoint train/test partition; neither part may be empty."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    n = len(ds)
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(f"test_fraction {test_fraction} of {n} rows leaves "
                         f"the {'test' if n_test == 0 else 'train'} set empty")
    perm = _seeded_rng(seed).permutation(n)
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
        feats = polynomial_features(_position_batch(positions), self.degree)
        return wrap_angle(feats @ self.weights + self.intercepts)

    def predict(self, position):
        return self.predict_batch(_position(position))[0]

    def to_dict(self):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                "kind": self.kind, "degree": self.degree,
                "weights": self.weights.tolist(),
                "intercepts": self.intercepts.tolist()}

    @classmethod
    def from_dict(cls, d):
        degree = d.get("degree")
        if type(degree) is not int or degree < 1:
            raise ValueError(f"polynomial model degree must be an int >= 1, "
                             f"got {degree!r}")
        model = cls(degree, d.get("weights"), d.get("intercepts"))
        # len(polynomial_exponents(degree)), without listing them.
        n_terms = math.comb(degree + 3, 3) - 1
        for name, shape in (("weights", (n_terms, 7)), ("intercepts", (7,))):
            if getattr(model, name).shape != shape:
                raise ValueError(f"polynomial model {name} must have shape "
                                 f"{shape}")
        return model


def _position(position):
    """position as three floats; ValueError unless it is a finite (3,)
    array. It checks in plain floats: dtnr calls it once per solve."""
    array = np.asarray(position, dtype=float)
    if array.shape != (3,):
        raise ValueError(f"a position must be a (3,) array, got shape "
                         f"{array.shape}")
    x = array.tolist()
    if not all(map(math.isfinite, x)):
        raise ValueError("positions must be finite")
    return x


def _position_batch(positions):
    """positions as an (n, 3) float array; ValueError unless they are a
    finite (3,) or (n, 3) array."""
    array = np.asarray(positions, dtype=float)
    if array.ndim not in (1, 2) or array.shape[-1] != 3:
        raise ValueError(f"positions must be a (3,) or (n, 3) array, got "
                         f"shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError("positions must be finite")
    return np.atleast_2d(array)


def _check_finite(train: Dataset):
    for name in ("positions", "joints"):
        if not np.isfinite(getattr(train, name)).all():
            raise ValueError(f"training {name} must be finite")


def fit_polynomial(train: Dataset, degree=8) -> PolynomialModel:
    """Least-squares fit of every joint on the total-degree `degree`
    monomials of the position and a constant; degree 1 is linear
    regression."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    _check_finite(train)
    feats = polynomial_features(train.positions, degree)
    if len(train) < feats.shape[1] + 1:
        raise ValueError(f"a degree-{degree} fit needs at least "
                         f"{feats.shape[1] + 1} rows")
    x = np.hstack([np.ones((feats.shape[0], 1)), feats])
    beta, *_ = np.linalg.lstsq(x, train.joints, rcond=None)
    return PolynomialModel(degree, beta[1:], beta[0])


class RegressionTree:
    """Multi-output CART over (x, y, z) with mean joint vectors at the
    leaves, stored as flat parallel node tables: `feature`, `left` and
    `right` as int64 arrays, `threshold` as a float64 array and `value` as
    an (n_nodes, 7) array. feature < 0 marks a leaf, whose row of `value`
    holds its mean joint vector, wrapped into (-pi, pi] once here, so
    predictions return it as it is; internal nodes have all-zero rows.
    Every child index is larger than its parent's, so a walk from the root
    always ends.

    Arrays hold no Python objects, so the garbage collector has nothing to
    scan in them. As lists, a 100k-row tree's ~150k-entry tables stalled
    the first collection after a fit by about 10 ms, and added as much to
    every full collection after it."""

    kind = "tree"

    def __init__(self, feature, threshold, left, right, value,
                 max_depth_used=0):
        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.value = wrap_angle(
            np.asarray(value, dtype=float).reshape(-1, 7))
        self.max_depth_used = int(max_depth_used)
        # predict's walk indexes these: a memoryview item is a plain int
        # or float, read faster than a numpy scalar.
        self._walk = tuple(map(memoryview, (self.feature, self.threshold,
                                            self.left, self.right)))

    def __reduce__(self):
        # A memoryview cannot be copied or pickled; rebuild the views.
        return type(self), (self.feature, self.threshold, self.left,
                            self.right, self.value, self.max_depth_used)

    @property
    def n_nodes(self):
        return len(self.feature)

    def predict(self, position):
        # Plain indexing of the table views: for one pose this beats any
        # numpy walk, and dtnr calls it once per solve.
        x = _position(position)
        feature, threshold, left, right = self._walk
        node = 0
        while (f := feature[node]) >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
        return self.value[node].copy()

    def predict_batch(self, positions):
        return self.value.take(self.leaves(positions), axis=0)

    def leaves(self, positions):
        """The leaf id of each row of positions. All rows walk down the
        tree together, one level per step. In the walk a leaf is its own
        left child, reached by a split on x at +inf, so a row that reaches
        it stays put; every WALK_LEVELS levels the rows at a leaf are put
        aside. Every gather is a `take`, which costs less than fancy or
        mask indexing, and the steps run in place."""
        positions = _position_batch(positions)
        leaf = self.feature < 0
        feature = np.where(leaf, 0, self.feature)
        threshold = np.where(leaf, np.inf, self.threshold)
        # child[2 * node + go_left]: the right child, then the left.
        child = np.stack([self.right, np.where(leaf, np.arange(leaf.size),
                                               self.left)], axis=1).ravel()
        n = positions.shape[0]
        flat = positions.ravel()
        leaf_of = np.zeros(n, dtype=np.int64)
        at = np.arange(0, 3 * n, 3)  # walking rows' offsets in flat
        node = leaf_of.copy()
        while at.size:
            for _ in range(WALK_LEVELS):
                f = feature.take(node)
                f += at
                go_left = flat.take(f) <= threshold.take(node)
                node *= 2
                node += go_left
                node = child.take(node)
            done = leaf.take(node)
            stop = np.flatnonzero(done)
            leaf_of[at.take(stop) // 3] = node.take(stop)
            kept = np.flatnonzero(~done)
            at, node = at.take(kept), node.take(kept)
        return leaf_of

    def to_dict(self):
        """Model format v2: the node tables as base64 little-endian arrays,
        and the leaves' values only, in node order."""
        leaf = self.feature < 0
        d = {"format": MODEL_FORMAT, "version": TREE_VERSION,
             "kind": self.kind, "max_depth_used": self.max_depth_used}
        for name, dtype in _TREE_TABLES:
            d[name] = _pack(getattr(self, name), dtype)
        d["leaf_value"] = _pack(self.value[leaf], "<f8")
        return d

    @classmethod
    def from_dict(cls, d):
        feature, threshold, left, right = (
            _unpack(d, name, dtype) for name, dtype in _TREE_TABLES)
        n = feature.size
        if n == 0 or not n == threshold.size == left.size == right.size:
            raise ValueError("tree node tables are empty or of different "
                             "lengths")
        max_depth_used = d.get("max_depth_used", 0)
        if type(max_depth_used) is not int or max_depth_used < 0:
            raise ValueError(f"tree max_depth_used must be an int >= 0, "
                             f"got {max_depth_used!r}")
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
        for name, table in (("threshold", threshold),
                            ("leaf_value", leaf_value)):
            if not np.isfinite(table).all():
                raise ValueError(f"tree {name} table holds a non-finite "
                                 f"value")
        value = np.zeros((n, 7))
        value[leaf] = leaf_value.reshape(-1, 7)
        return cls(feature, threshold, left, right, value, max_depth_used)


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


def _best_splits(xt, y, y_sq, orders, starts, counts, total_sq, min_leaf):
    """Best split of each of B nodes, node j holding counts[j] rows from
    column starts[j] of orders, whose y_sq sum to total_sq[j]: (feature,
    threshold), with feature -1 where no split gains more than 1e-12.

    orders[0] lists each node's rows by row index, orders[1 + f] by
    feature f. Its last column names the sentinel row, the last of xt, y
    and y_sq, with which each node is padded to the largest count W;
    split positions at or past counts[j] - min_leaf are masked invalid.
    Every candidate split on all three features of all B nodes is then
    scored with one set of (W, 3, B, ...) array operations, which
    reproduce the per-node arithmetic of a one-node scan bit for bit:
    sums and running sums along the position axis add in row order, and
    the padding adds -0.0; each dot product runs over a contiguous 7-axis,
    by einsum as in the scan or by np.vecdot, the same as `a @ a`.
    """
    pos = _positions(orders, starts, counts)                 # (W, B)
    width = pos.shape[0]
    at_pos = np.take(orders, pos, axis=1)                    # (4, W, B)
    total_sum = np.take(y, at_pos[0], axis=0).sum(axis=0)    # (B, 7)
    parent_sse = total_sq - np.vecdot(total_sum, total_sum) / counts
    rows = at_pos[1:].transpose(1, 0, 2)                     # (W, 3, B)
    # xt flat: feature f's values start at f * xt.shape[1].
    xs = np.take(xt, rows + (np.arange(3) * xt.shape[1])[:, None])
    cum_sum = np.take(y, rows, axis=0)
    cum_sq = np.take(y_sq, rows)
    if width < counts.size:
        # np.cumsum runs one inner loop per feature, node and joint; a
        # block of many narrow nodes adds faster a position at a time.
        for i in range(1, width):
            np.add(cum_sum[i - 1], cum_sum[i], out=cum_sum[i])
            np.add(cum_sq[i - 1], cum_sq[i], out=cum_sq[i])
    else:
        np.cumsum(cum_sum, axis=0, out=cum_sum)
        np.cumsum(cum_sq, axis=0, out=cum_sq)
    # split after position i: left = [0..i], right = [i+1..]
    lo, hi = min_leaf - 1, width - min_leaf
    n_left = np.arange(lo, hi)[:, None, None] + 1.0
    invalid = (xs[lo:hi] >= xs[lo + 1:hi + 1]) | (n_left > counts - min_leaf)
    # Past a node's count n_right is <= 0; those positions are invalid.
    n_right = np.maximum(counts - n_left, 1.0)
    left_sum = cum_sum[lo:hi]
    left_sq = cum_sq[lo:hi]
    left_dot = np.einsum("wfbj,wfbj->wfb", left_sum, left_sum)
    right_sum = np.subtract(total_sum, left_sum, out=left_sum)
    sse = (left_sq - left_dot / n_left + (total_sq - left_sq)
           - np.einsum("wfbj,wfbj->wfb", right_sum, right_sum) / n_right)
    np.putmask(sse, invalid, np.inf)
    k = sse.argmin(axis=0)                                   # (3, B)
    # -inf where a feature has no valid split
    gain = parent_sse - np.take_along_axis(sse, k[None], axis=0)[0]
    f = gain.argmax(axis=0)        # the first feature wins a tie
    b = np.arange(counts.size)
    split = gain[f, b] > 1e-12
    at = k[f, b] + lo
    threshold = 0.5 * (xs[at, f, b] + xs[at + 1, f, b])
    return np.where(split, f, -1), np.where(split, threshold, 0.0)


def _positions(orders, starts, counts):
    """(W, B) columns of orders that hold B nodes' rows, W the largest
    count, each node's padded past its count with the last column."""
    at = np.arange(counts.max())[:, None]
    return np.where(at < counts, starts + at, orders.shape[1] - 1)


def _size_classes(counts, nodes):
    """`nodes` in groups of one size class, 2^(e-1) <= count < 2^e."""
    if not nodes.size:
        return []
    keys = np.frexp(counts[nodes])[1]
    order = np.argsort(keys, kind="stable")
    return np.split(nodes[order], np.flatnonzero(np.diff(keys[order])) + 1)


def _row_count_sums(y_sq, rows, starts, counts, nodes):
    """y_sq summed over the rows of each of `nodes`, as a (counts.size,)
    array that is 0 elsewhere. The nodes' rows are gathered once, nodes
    stably sorted by count, so the k nodes of one count form a contiguous
    (k, count) block whose row sums numpy takes pairwise, in the order a
    one-node sum of that length takes."""
    total = np.zeros(counts.size)
    if not nodes.size:
        return total
    nodes = nodes[np.argsort(counts[nodes], kind="stable")]
    n = counts[nodes]
    begin = np.cumsum(n) - n  # each node's first entry in `flat`
    flat = y_sq[rows[np.repeat(starts[nodes] - begin, n)
                     + np.arange(begin[-1] + n[-1])]]
    sums = np.empty(nodes.size)
    bounds = [0, *(np.flatnonzero(np.diff(n)) + 1).tolist(), nodes.size]
    n, begin = n.tolist(), begin.tolist()
    for a, b in zip(bounds, bounds[1:]):
        block = flat[begin[a]:begin[a] + (b - a) * n[a]]
        np.add.reduce(block.reshape(b - a, n[a]), axis=1, out=sums[a:b])
    total[nodes] = sums
    return total


def fit_tree(train: Dataset, max_depth=84, min_leaf=1) -> RegressionTree:
    """Greedy CART: at each node pick the (feature, threshold) split that
    most reduces the summed per-joint squared error; leaves store the
    mean joint vector of their rows.

    min_leaf defaults to 1: averaging several rows in a leaf mixes joint
    configurations from different IK solution branches, whose mean is
    kinematic nonsense. Memorising single rows is what makes the tree
    competitive here.

    The fit is level-synchronous (presorted CART, Breiman et al. 1984):
    each feature is argsorted once, and the nodes of one depth are scored
    together, one batch per size class (2^(e-1) <= rows < 2^e), each node
    padded to the batch's largest count with a sentinel row that adds
    -0.0. A class that would pad to more rows than the root holds is cut
    into batches that do not. Sums, running sums and leaf means add in row
    order, so the padding leaves their bits as they are. Only the sum of
    each node's squared joint norms is taken per exact row count
    (_row_count_sums): numpy sums a contiguous row pairwise, in an order
    set by its length. Splitting a node partitions its sorted row lists
    stably (_partition), so each child keeps its rows in sorted order with
    ties by row index, as a stable per-node argsort would have them. Nodes
    are numbered in level order, as a per-node fit that takes nodes first
    in, first out creates them: the root is node 0, and each split node's
    children take the next two free ids, left then right.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    _check_finite(train)
    x = np.ascontiguousarray(train.positions, dtype=float)
    n_rows = len(train)
    # Row n_rows is the sentinel that padded positions read: y is -0.0,
    # which leaves every sum it joins as it was, bit for bit.
    y = np.full((n_rows + 1, 7), -0.0)
    y[:n_rows] = train.joints
    y_sq = np.einsum("ij,ij->i", y, y)
    xt = np.zeros((3, n_rows + 1))
    xt[:, :n_rows] = x.T
    orders = np.empty((4, n_rows), dtype=np.intp)
    orders[0] = np.arange(n_rows)
    for f in range(3):
        orders[1 + f] = np.argsort(x[:, f], kind="stable")

    # One entry per depth; node j of a level owns orders[:, s:s + counts[j]].
    levels = []
    counts = np.array([n_rows])
    end = 0  # one past the last node id of the levels so far
    while counts.size:
        depth = len(levels)
        end += counts.size
        starts = np.cumsum(counts) - counts
        padded = np.concatenate([orders, np.full((4, 1), n_rows)], axis=1)
        feature = np.full(counts.size, -1)
        threshold = np.zeros(counts.size)
        value = np.zeros((counts.size, 7))
        if depth < max_depth:
            nodes = np.flatnonzero(counts >= 2 * min_leaf)
            total_sq = _row_count_sums(y_sq, orders[0], starts, counts, nodes)
            for group in _size_classes(counts, nodes):
                # No batch pads to more rows than the root holds.
                size = n_rows // counts[group].max()
                for s in range(0, group.size, size):
                    batch = group[s:s + size]
                    feature[batch], threshold[batch] = _best_splits(
                        xt, y, y_sq, padded, starts[batch], counts[batch],
                        total_sq[batch], min_leaf)
        for group in _size_classes(counts, np.flatnonzero(feature < 0)):
            pos = _positions(padded, starts[group], counts[group])
            value[group] = (np.take(y, padded[0, pos], axis=0).sum(axis=0)
                            / counts[group, None])
        # The j-th split node's children are nodes 2j and 2j + 1 of the
        # next level, which starts at node `end`.
        split = feature >= 0
        left = np.where(split, end + 2 * np.cumsum(split) - 2, -1)
        levels.append((feature, threshold, left, value))
        orders, counts = _partition(x, orders, counts, feature, threshold)
    feature, threshold, left, value = map(np.concatenate, zip(*levels))
    return RegressionTree(feature, threshold, left,
                          np.where(left >= 0, left + 1, -1), value,
                          len(levels) - 1)


def _partition(x, orders, counts, feature, threshold):
    """Drop the rows of leaves and move each split node's rows to its
    children, left then right, keeping their order in every list. x is
    the (n, 3) positions; every gather is a flat `take`."""
    # Child ids 2j and 2j + 1 fit this type: up to 32,767 nodes, a
    # 16-bit key, which numpy's stable argsort sorts by radix.
    key = np.min_scalar_type(2 * counts.size)
    node_at = np.repeat(np.arange(counts.size, dtype=key), counts)
    kept = np.flatnonzero(feature.take(node_at) >= 0)
    node_at, rows = node_at.take(kept), orders.take(kept, axis=1)
    to_right = np.zeros(x.shape[0], dtype=bool)
    to_right[rows[0]] = ~(x.ravel().take(3 * rows[0] + feature.take(node_at))
                          <= threshold.take(node_at))
    # Node j's children are 2j and 2j + 1; a stable sort by child keeps
    # each child's rows in the order they had in the parent.
    child = 2 * node_at + to_right.take(rows)
    order = np.argsort(child, axis=1, kind="stable")
    moved = rows.ravel().take(order + (np.arange(4) * rows.shape[1])[:, None])
    children = np.bincount(child[0], minlength=2 * counts.size)
    return moved, children[np.repeat(feature >= 0, 2)]


def save_model(model, path):
    """Write json.dumps(model.to_dict()) to path. A base64 table needs no
    escape, so its string is spliced into the text as it is rather than
    sent through the encoder's escape scan."""
    tables = {name for name, _ in _TREE_TABLES} | {"leaf_value"}
    parts = [f'{json.dumps(key)}: '
             + (f'"{value}"' if key in tables else json.dumps(value))
             for key, value in model.to_dict().items()]
    with open(path, "w") as fh:
        fh.write("{" + ", ".join(parts) + "}")


def load_model(path):
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or d.get("format") != MODEL_FORMAT:
        raise ValueError(f"not an arm7ik model file: {path}")
    if d.get("kind") == "linear":  # an affine map: a degree-1 polynomial
        d = {**d, "kind": "polynomial", "degree": 1}
    kinds = {"polynomial": (PolynomialModel, MODEL_VERSION),
             "tree": (RegressionTree, TREE_VERSION)}
    try:
        cls, expected = kinds[d.get("kind")]
    except KeyError:
        raise ValueError(f"unknown model kind {d.get('kind')!r}") from None
    version = d.get("version")
    if type(version) is not int or version != expected:
        raise ValueError(
            f"{d['kind']} model version {version!r} is not supported (this "
            f"release reads version {expected}); re-train it with "
            f"`arm7ik train`")
    return cls.from_dict(d)


@dataclass(frozen=True)
class ModelMetrics:
    r_squared: float          # absolute value of the mean per-joint r^2
    r_squared_signed: float
    mse: float                # rad^2, over all joints
    average_fitness: float    # mm


def average_fitness_on_positions(predictor, positions, model: KinematicModel):
    """Mean tool-to-target distance when predicted joints are played back
    through forward kinematics (see _playback_fitness); the mean is the
    one a single batch of all predictions gives, bit for bit."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    return _playback_fitness(*_predictions(predictor, positions), positions,
                             model)


def _predictions(predictor, positions):
    """(rows, at): joint rows to play back, and the row of each position
    in them. A tree is piecewise constant, so its rows are the values of
    the distinct leaves the positions reach, in node order; any other
    predictor's row i is position i's prediction."""
    if not isinstance(predictor, RegressionTree):
        return predictor.predict_batch(positions), np.arange(len(positions))
    leaf = predictor.leaves(positions)
    hit = np.zeros(predictor.n_nodes, dtype=bool)
    hit[leaf] = True
    ids = np.flatnonzero(hit)
    slot = np.empty(predictor.n_nodes, dtype=np.intp)
    slot[ids] = np.arange(ids.size)
    return predictor.value.take(ids, axis=0), slot.take(leaf)


def _playback_fitness(rows, at, positions, model):
    """Mean tool-to-target distance, PLAYBACK_ROWS rows at a time, with
    rows and at as _predictions gives them. A row's FK and distance do not
    depend on its block, so one FK per distinct row, gathered per position,
    gives the bits of a dense playback; the mean is taken over all
    positions at once."""
    reached = np.concatenate([
        batch_end_effector_positions(model, rows[lo:lo + PLAYBACK_ROWS])
        for lo in range(0, len(rows), PLAYBACK_ROWS)])
    distance = np.empty(len(positions))
    for lo in range(0, len(positions), PLAYBACK_ROWS):
        block = slice(lo, lo + PLAYBACK_ROWS)
        distance[block] = np.linalg.norm(
            reached.take(at[block], axis=0) - positions[block], axis=1)
    return float(distance.mean())


def evaluate(predictor, test: Dataset, model: KinematicModel) -> ModelMetrics:
    """Joint-space r^2 (reported as an absolute value) and MSE, plus the
    FK playback fitness against the rows' stored positions."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    rows, at = _predictions(predictor, test.positions)
    pred = rows.take(at, axis=0)
    truth = test.joints
    resid = truth - pred
    mse = float(np.mean(resid ** 2))
    ss_res = np.sum(resid ** 2, axis=0)
    ss_tot = np.sum((truth - truth.mean(axis=0)) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_output = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
    signed = float(per_output.mean())
    avg_fit = _playback_fitness(rows, at, test.positions, model)
    return ModelMetrics(r_squared=abs(signed), r_squared_signed=signed,
                        mse=mse, average_fitness=avg_fit)
