import base64
import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arm7ik import KinematicModel, wrap_angle
from arm7ik.ml import (Dataset, PolynomialModel, RegressionTree,
                       evaluate, fit_polynomial, fit_tree,
                       generate_dataset, load_model, polynomial_exponents,
                       polynomial_features, save_model, split_dataset)
import oracles


def synthetic_dataset(rng, n=200, f=None):
    """Dataset with an exactly known positions -> joints map."""
    positions = rng.uniform(-1.0, 1.0, size=(n, 3))
    joints = f(positions)
    return Dataset(joints, positions, {})


class TestGenerateDataset:
    def test_minimal_grid_hits_the_corners(self, model):
        ds = generate_dataset(model, 128, noise_amplitude=0.0,
                              rng=np.random.default_rng(0))
        assert len(ds) == 128
        assert ds.metadata["grid_per_axis"] == 2
        corners = {tuple(np.round(row, 9)) for row in ds.joints}
        expected = {tuple(np.round(c, 9)) for c in
                    itertools.product(*[(model.lower[j], model.upper[j])
                                        for j in range(7)])}
        assert corners == expected

    def test_positions_are_fk_of_the_stored_joints(self, model):
        ds = generate_dataset(model, 128, noise_amplitude=0.1,
                              rng=np.random.default_rng(1))
        for q, p in zip(ds.joints[:40], ds.positions[:40]):
            assert np.allclose(p, oracles.fk_position(q), atol=1e-10)

    def test_noise_stays_within_amplitude(self, model):
        noise = 0.05
        ds = generate_dataset(model, 128, noise_amplitude=noise,
                              rng=np.random.default_rng(2))
        # With two grid points per axis every clean value is a limit
        # endpoint, so each noisy angle must sit near one of the two.
        for j in range(7):
            off = np.minimum(np.abs(ds.joints[:, j] - model.lower[j]),
                             np.abs(ds.joints[:, j] - model.upper[j]))
            assert off.max() <= noise + 1e-12

    def test_oversized_grid_subsamples_to_exact_count(self, model):
        # 150 rows needs 3 points per axis (2^7 = 128 is short), and the
        # 3^7 = 2187 grid rows are subsampled back down to exactly 150.
        ds = generate_dataset(model, 150, rng=np.random.default_rng(3))
        assert len(ds) == 150
        assert ds.metadata["grid_per_axis"] == 3

    def test_small_count_falls_back_to_random(self, model):
        ds = generate_dataset(model, 50, rng=np.random.default_rng(4))
        assert len(ds) == 50
        assert ds.metadata["fallback_random"]

    def test_same_seed_regenerates_bit_identically(self, model):
        a = generate_dataset(model, 200, rng=np.random.default_rng(5))
        b = generate_dataset(model, 200, rng=np.random.default_rng(5))
        assert np.array_equal(a.joints, b.joints)
        assert np.array_equal(a.positions, b.positions)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            generate_dataset(model, 0)
        with pytest.raises(ValueError):
            generate_dataset(model, 10, noise_amplitude=-0.1)

    def test_csv_round_trip_is_exact(self, model, tmp_path):
        ds = generate_dataset(model, 64, rng=np.random.default_rng(6))
        path = tmp_path / "data.csv"
        ds.save_csv(path)
        back = Dataset.load_csv(path)
        assert np.array_equal(back.joints, ds.joints)
        assert np.array_equal(back.positions, ds.positions)
        assert back.metadata == ds.metadata


class TestSplitDataset:
    def test_default_quarter_split(self, model):
        ds = generate_dataset(model, 100, rng=np.random.default_rng(0))
        train, test = split_dataset(ds, 0.25, np.random.default_rng(1))
        assert len(train) == 75
        assert len(test) == 25

    def test_union_is_the_original_multiset(self, model):
        ds = generate_dataset(model, 80, rng=np.random.default_rng(2))
        train, test = split_dataset(ds, 0.25, np.random.default_rng(3))
        merged = np.vstack([train.joints, test.joints])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.joints.T)
        assert np.array_equal(merged[key], ds.joints[orig_key])

    def test_same_seed_same_partition(self, model):
        ds = generate_dataset(model, 80, rng=np.random.default_rng(4))
        a_train, _ = split_dataset(ds, 0.25, np.random.default_rng(5))
        b_train, _ = split_dataset(ds, 0.25, np.random.default_rng(5))
        assert np.array_equal(a_train.joints, b_train.joints)

    def test_fraction_validation(self, model):
        ds = generate_dataset(model, 40, rng=np.random.default_rng(6))
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0)


class TestLinearModel:
    """Linear regression is the degree-1 polynomial."""

    def test_recovers_an_exact_affine_map(self, rng):
        w = rng.normal(size=(3, 7)) * 0.2
        b = rng.normal(size=7) * 0.2
        ds = synthetic_dataset(rng, f=lambda p: p @ w + b)
        fitted = fit_polynomial(ds, 1)
        assert np.abs(fitted.weights - w).max() < 1e-9
        assert np.abs(fitted.intercepts - b).max() < 1e-9

    def test_matches_an_independent_least_squares_solver(self, rng):
        ds = synthetic_dataset(rng, f=lambda p: np.tanh(p @ rng.normal(
            size=(3, 7))))
        fitted = fit_polynomial(ds, 1)
        x = np.hstack([np.ones((len(ds), 1)), ds.positions])
        beta, *_ = np.linalg.lstsq(x, ds.joints, rcond=None)
        assert np.abs(fitted.intercepts - beta[0]).max() < 1e-8
        assert np.abs(fitted.weights - beta[1:]).max() < 1e-8

    def test_zero_input_returns_wrapped_intercepts(self, rng):
        fitted = PolynomialModel(1, rng.normal(size=(3, 7)),
                                 rng.normal(size=7) * 4)
        assert np.allclose(fitted.predict(np.zeros(3)),
                           wrap_angle(fitted.intercepts))

    def test_needs_enough_rows(self, rng):
        tiny = Dataset(np.zeros((3, 7)), np.zeros((3, 3)), {})
        with pytest.raises(ValueError):
            fit_polynomial(tiny, 1)


class TestPolynomialModel:
    def test_exponent_count_matches_binomial_formula(self):
        for degree in (1, 2, 4, 8):
            expected = math.comb(degree + 3, 3) - 1  # minus the constant
            assert len(polynomial_exponents(degree)) == expected

    def test_degree_one_equals_linear_fit(self, rng):
        # The degree-1 features are the position itself, so a degree-1
        # model predicts what an affine map does, bit for bit.
        probe = rng.uniform(-3, 3, size=(100_000, 3))
        assert np.array_equal(polynomial_features(probe, 1), probe)
        w, b = rng.normal(size=(3, 7)), rng.normal(size=7) * 4
        assert np.array_equal(PolynomialModel(1, w, b).predict_batch(probe),
                              wrap_angle(probe @ w + b))

    def test_recovers_an_exact_degree_two_map(self, rng):
        exps = polynomial_exponents(2)
        w = rng.normal(size=(len(exps), 7)) * 0.1
        b = rng.normal(size=7) * 0.1

        def f(p):
            return polynomial_features(p, 2) @ w + b

        ds = synthetic_dataset(rng, n=400, f=f)
        fitted = fit_polynomial(ds, degree=2)
        probe = rng.uniform(-1, 1, size=(100, 3))
        assert np.abs(fitted.predict_batch(probe)
                      - wrap_angle(f(probe))).max() < 1e-8

    def test_insufficient_rows_rejected(self, rng):
        ds = synthetic_dataset(rng, n=10, f=lambda p: p @ np.ones((3, 7)))
        with pytest.raises(ValueError):
            fit_polynomial(ds, degree=8)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_rejected(self, rng, degree):
        ds = synthetic_dataset(rng, n=50, f=lambda p: p @ np.ones((3, 7)))
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fit_polynomial(ds, degree=degree)


def assert_matches_reference(ds, **kwargs):
    """fit_tree's node tables equal the per-node reference CART's, bit for
    bit."""
    tree = fit_tree(ds, **kwargs)
    expected, deepest = oracles.reference_tree(ds.positions, ds.joints,
                                               **kwargs)
    got = (np.asarray(tree.feature), np.asarray(tree.threshold),
           np.asarray(tree.left), np.asarray(tree.right), tree.value)
    for name, a, b in zip(("feature", "threshold", "left", "right", "value"),
                          got, expected):
        assert np.array_equal(a, b), name
    assert tree.max_depth_used == deepest


class TestRegressionTree:
    def test_single_row_gives_single_leaf(self):
        joints = np.array([[0.1, 0.2, 0.3, -0.4, 0.5, -0.6, 0.7]])
        ds = Dataset(joints, np.array([[1.0, 2.0, 3.0]]), {})
        tree = fit_tree(ds)
        assert tree.n_nodes == 1
        assert np.allclose(tree.predict([9.0, 9.0, 9.0]), joints[0])

    def test_two_clusters_split_matches_exhaustive_search(self, rng):
        # Two x-separated clusters; depth-1 fit must pick the same split
        # a brute-force scan of every candidate does, and the leaves must
        # carry the cluster means.
        positions = np.array([[0.0, 5.0, -1.0], [1.0, 4.0, 2.0],
                              [10.0, 4.5, 1.0], [11.0, 5.5, 0.0]])
        # Joints correlate with the cluster so the x split carries the
        # dominant variance reduction.
        centers = np.array([-0.5, -0.5, 0.5, 0.5])
        joints = centers[:, None] + rng.uniform(-0.05, 0.05, size=(4, 7))
        ds = Dataset(joints, positions, {})
        tree = fit_tree(ds, max_depth=1)

        def sse_of(split_feature, thresh):
            left = positions[:, split_feature] <= thresh
            total = 0.0
            for side in (left, ~left):
                if side.any():
                    total += float(np.sum((joints[side]
                                           - joints[side].mean(0)) ** 2))
            return total

        best = None
        for f in range(3):
            xs = np.sort(positions[:, f])
            for lo, hi in zip(xs, xs[1:]):
                if lo == hi:
                    continue
                cand = (f, 0.5 * (lo + hi))
                if best is None or sse_of(*cand) < sse_of(*best):
                    best = cand
        assert tree.feature[0] == best[0] == 0
        assert tree.threshold[0] == pytest.approx(best[1])

        left_mean = joints[positions[:, 0] <= tree.threshold[0]].mean(0)
        right_mean = joints[positions[:, 0] > tree.threshold[0]].mean(0)
        assert np.allclose(tree.predict([0.5, 0.0, 0.0]), left_mean)
        assert np.allclose(tree.predict([10.5, 0.0, 0.0]), right_mean)

    def test_memorizes_unique_rows_at_min_leaf_one(self, model):
        ds = generate_dataset(model, 300, rng=np.random.default_rng(1))
        tree = fit_tree(ds, min_leaf=1)
        pred = tree.predict_batch(ds.positions)
        assert np.abs(pred - wrap_angle(ds.joints)).max() < 1e-12

    def test_larger_min_leaf_gives_a_smaller_tree(self, model):
        ds = generate_dataset(model, 300, rng=np.random.default_rng(2))
        small = fit_tree(ds, min_leaf=10)
        big = fit_tree(ds, min_leaf=1)
        assert small.n_nodes < big.n_nodes

    def test_deeper_fit_never_raises_training_error(self, rng):
        # Keep all joint values well inside (-pi, pi] so the wrap applied
        # by predict is the identity and plain CART monotonicity applies.
        positions = rng.uniform(-1.0, 1.0, size=(200, 3))
        joints = 0.4 * np.sin(positions @ rng.normal(size=(3, 7)))
        ds = Dataset(joints, positions, {})

        def train_mse(depth):
            tree = fit_tree(ds, max_depth=depth, min_leaf=1)
            return float(np.mean((tree.predict_batch(ds.positions)
                                  - ds.joints) ** 2))

        errors = [train_mse(d) for d in (1, 3, 6, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))

    def test_predict_and_batch_agree(self, model):
        ds = generate_dataset(model, 200, rng=np.random.default_rng(4))
        tree = fit_tree(ds, max_depth=6)
        probe = ds.positions[:25]
        batch = tree.predict_batch(probe)
        singles = np.array([tree.predict(p) for p in probe])
        assert np.array_equal(batch, singles)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(Dataset(np.zeros((0, 7)), np.zeros((0, 3)), {}))

    @pytest.mark.parametrize("kwargs", [{"min_leaf": 0}, {"max_depth": -1}])
    def test_bad_hyperparameters_rejected(self, model, kwargs):
        ds = generate_dataset(model, 50, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            fit_tree(ds, **kwargs)

    @pytest.mark.parametrize("max_depth", [0, 1, 6, 84])
    @pytest.mark.parametrize("min_leaf", [1, 3, 10])
    def test_node_tables_match_the_per_node_reference(self, model, min_leaf,
                                                      max_depth):
        # Quantised positions tie on every feature, and repeated positions
        # with different joints leave nodes that no split can separate.
        ds = generate_dataset(model, 300, rng=np.random.default_rng(6))
        positions = np.round(ds.positions, 1)
        positions[::7] = positions[0]
        assert_matches_reference(Dataset(ds.joints, positions, {}),
                                 max_depth=max_depth, min_leaf=min_leaf)

    def test_node_tables_match_the_reference_on_a_larger_set(self, model):
        ds = generate_dataset(model, 2000, rng=np.random.default_rng(8))
        assert_matches_reference(
            Dataset(ds.joints, np.round(ds.positions, 2), {}))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), levels=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), min_leaf=st.integers(1, 5),
           max_depth=st.integers(0, 10),
           spread=st.sampled_from([3.0, 1e-6, 1e-7]))
    def test_node_tables_match_the_reference_on_random_data(
            self, n, levels, seed, min_leaf, max_depth, spread):
        # Small spreads put split gains around the 1e-12 floor.
        rng = np.random.default_rng(seed)
        positions = 0.25 * rng.integers(0, levels, size=(n, 3))
        joints = 0.1 + rng.uniform(-spread, spread, size=(n, 7))
        assert_matches_reference(Dataset(joints, positions, {}),
                                 max_depth=max_depth, min_leaf=min_leaf)

    def test_deep_chain_tree_saves_loads_and_predicts(self, tmp_path):
        # Split node k (id 2k) sends x <= k to leaf 2k + 1 and the rest on
        # to node 2k + 2; the last node is a leaf at depth 20,000.
        depth = 20_000
        ids = np.arange(2 * depth + 1)
        split = (ids % 2 == 0) & (ids < 2 * depth)
        value = np.zeros((ids.size, 7))
        value[~split] = 5e-5 * ids[~split, None]
        tree = RegressionTree(np.where(split, 0, -1),
                              np.where(split, ids // 2, 0.0),
                              np.where(split, ids + 1, -1),
                              np.where(split, ids + 2, -1), value, depth)
        save_model(tree, tmp_path / "chain.json")
        back = load_model(tmp_path / "chain.json")
        assert back.n_nodes == ids.size
        assert back.max_depth_used == depth
        probe = np.array([[x, 0.0, 0.0]
                          for x in (-1.0, 0.5, 9_999.5, 19_999.5, 3e4)])
        batch = back.predict_batch(probe)
        assert np.array_equal(batch,
                              np.array([back.predict(p) for p in probe]))
        assert np.array_equal(batch, tree.predict_batch(probe))
        assert batch[-1, 0] == pytest.approx(2.0)

    def test_node_tables_are_invisible_to_the_garbage_collector(
            self, model, tmp_path):
        # A large tree's node tables, held as lists, cost each collection
        # that scans them ~10 ms, charged to whatever solve it lands in.
        ds = generate_dataset(model, 200, rng=np.random.default_rng(5))
        fitted = fit_tree(ds)
        save_model(fitted, tmp_path / "tree.json")
        for tree in (fitted, load_model(tmp_path / "tree.json")):
            for table in (tree.feature, tree.threshold, tree.left,
                          tree.right, tree.value):
                # Nothing for the collector to visit but the table's type.
                assert all(isinstance(r, type)
                           for r in gc.get_referents(table))


class TestPersistence:
    @pytest.mark.parametrize("builder", [
        lambda ds: fit_polynomial(ds, degree=1),
        lambda ds: fit_polynomial(ds, degree=3),
        lambda ds: fit_tree(ds, max_depth=8),
    ])
    def test_save_load_round_trip(self, model, tmp_path, builder):
        ds = generate_dataset(model, 200, rng=np.random.default_rng(0))
        fitted = builder(ds)
        path = tmp_path / "model.json"
        save_model(fitted, path)
        back = load_model(path)
        probe = ds.positions[:30]
        assert np.array_equal(back.predict_batch(probe),
                              fitted.predict_batch(probe))

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_a_file_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_model(path)

    def test_reads_a_linear_file_as_degree_one(self, rng, tmp_path):
        # A "linear" file as older versions wrote it.
        w, b = rng.normal(size=(3, 7)), rng.normal(size=7) * 4
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({
            "format": "arm7ik-model", "version": 1, "kind": "linear",
            "weights": w.tolist(), "intercepts": b.tolist(),
            "rank_deficient": False}))
        back = load_model(path)
        assert isinstance(back, PolynomialModel) and back.degree == 1
        probe = rng.uniform(-3, 3, size=(1000, 3))
        assert np.array_equal(back.predict_batch(probe),
                              wrap_angle(probe @ w + b))

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"format": "arm7ik-model", "kind": "mlp"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_a_version_1_tree_file(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "arm7ik-model", "version": 1, "kind": "tree",
            "max_depth_used": 1,
            "root": {"feature": 0, "threshold": 0.5,
                     "left": {"leaf": [0.1] * 7},
                     "right": {"leaf": [0.2] * 7}}}))
        with pytest.raises(ValueError, match="re-train"):
            load_model(path)

    def test_rejects_a_truncated_file(self, model, tmp_path):
        ds = generate_dataset(model, 200, rng=np.random.default_rng(0))
        path = tmp_path / "tree.json"
        save_model(fit_tree(ds), path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ValueError):
            load_model(path)

    # The v2 tables' little-endian types, as documented in the README.
    TABLE_TYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4",
                   "right": "<i4", "leaf_value": "<f8"}

    @pytest.mark.parametrize("field, tamper, message", [
        ("threshold", lambda a: a[:-1], "lengths"),
        ("left", lambda a: a[:-1], "lengths"),
        ("left", lambda a: np.where(np.arange(a.size) == 0, a.size, a),
         "out of range"),
        ("right", lambda a: np.where(np.arange(a.size) == 0, 0, a),
         "out of range"),
        ("left", lambda a: np.where(a < 0, 1, a), "leaf has children"),
        ("feature", lambda a: np.where(a >= 0, 3, a), "feature"),
        ("leaf_value", lambda a: a[:-7], "leaf-value count"),
        ("leaf_value", lambda a: a[:-1], "leaf-value count"),
    ])
    def test_rejects_inconsistent_node_tables(self, model, tmp_path, field,
                                              tamper, message):
        ds = generate_dataset(model, 200, rng=np.random.default_rng(0))
        d = fit_tree(ds).to_dict()
        dtype = self.TABLE_TYPES[field]
        table = np.frombuffer(base64.b64decode(d[field]), dtype=dtype)
        d[field] = base64.b64encode(
            tamper(table).astype(dtype).tobytes()).decode("ascii")
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("threshold"),
        lambda d: d.update(left=d["left"][:-3]),
        lambda d: d.update(right=12),
        lambda d: d.update(feature="not base64!"),
    ])
    def test_rejects_missing_or_malformed_tables(self, model, tmp_path,
                                                 damage):
        ds = generate_dataset(model, 200, rng=np.random.default_rng(0))
        d = fit_tree(ds).to_dict()
        damage(d)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError):
            load_model(path)


class _Echo:
    """Predictor that reproduces the dataset's own joints."""

    def __init__(self, ds):
        self._lookup = {tuple(p): q for p, q in zip(ds.positions, ds.joints)}

    def predict_batch(self, positions):
        return np.array([self._lookup[tuple(p)] for p in positions])


class _ConstantMean:
    def __init__(self, ds):
        self._mean = ds.joints.mean(axis=0)

    def predict_batch(self, positions):
        return np.tile(self._mean, (len(positions), 1))


class TestEvaluate:
    def test_perfect_predictor(self, model):
        ds = generate_dataset(model, 60, rng=np.random.default_rng(0))
        metrics = evaluate(_Echo(ds), ds, model)
        assert metrics.r_squared == pytest.approx(1.0)
        assert metrics.mse == 0.0
        assert metrics.average_fitness == pytest.approx(0.0, abs=1e-12)

    def test_constant_mean_predictor_scores_zero(self, model):
        ds = generate_dataset(model, 60, rng=np.random.default_rng(1))
        metrics = evaluate(_ConstantMean(ds), ds, model)
        assert metrics.r_squared_signed == pytest.approx(0.0, abs=1e-12)
        assert metrics.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_empty_test_set_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate(_ConstantMean(generate_dataset(
                model, 10, rng=np.random.default_rng(2))),
                Dataset(np.zeros((0, 7)), np.zeros((0, 3)), {}), model)
