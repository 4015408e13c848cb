import base64
import csv
import gc
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arm7ik import (KinematicModel, batch_end_effector_positions,
                    sample_workspace_batch, wrap_angle)
from arm7ik import ml
from arm7ik.kinematics import TWO_PI
from arm7ik.ml import (Dataset, PolynomialModel, RegressionTree,
                       average_fitness_on_positions, evaluate, fit_polynomial,
                       fit_tree, generate_dataset, load_model,
                       polynomial_exponents, polynomial_features, save_model,
                       split_dataset)
import oracles


def synthetic_dataset(rng, n=200, f=None):
    """Dataset with an exactly known positions -> joints map."""
    positions = rng.uniform(-1.0, 1.0, size=(n, 3))
    joints = f(positions)
    return Dataset(joints, positions, {})


class TestGenerateDataset:
    def test_minimal_grid_hits_the_corners(self, model):
        ds = generate_dataset(model, 128, noise_amplitude=0.0, seed=0)
        assert len(ds) == 128
        assert ds.metadata["grid_per_axis"] == 2
        corners = {tuple(np.round(row, 9)) for row in ds.joints}
        expected = {tuple(np.round(c, 9)) for c in
                    itertools.product(*[(model.lower[j], model.upper[j])
                                        for j in range(7)])}
        assert corners == expected

    def test_positions_are_fk_of_the_stored_joints(self, model):
        ds = generate_dataset(model, 128, noise_amplitude=0.1, seed=1)
        for q, p in zip(ds.joints[:40], ds.positions[:40]):
            assert np.allclose(p, oracles.fk_position(q), atol=1e-10)

    def test_noise_stays_within_amplitude(self, model):
        noise = 0.05
        ds = generate_dataset(model, 128, noise_amplitude=noise, seed=2)
        # With two grid points per axis every clean value is a limit
        # endpoint, so each noisy angle must sit near one of the two.
        for j in range(7):
            off = np.minimum(np.abs(ds.joints[:, j] - model.lower[j]),
                             np.abs(ds.joints[:, j] - model.upper[j]))
            assert off.max() <= noise + 1e-12

    def test_oversized_grid_subsamples_to_exact_count(self, model):
        # 150 rows needs 3 points per axis (2^7 = 128 is short), and the
        # 3^7 = 2187 grid rows are subsampled back down to exactly 150.
        ds = generate_dataset(model, 150, seed=3)
        assert len(ds) == 150
        assert ds.metadata["grid_per_axis"] == 3

    def test_small_count_falls_back_to_random(self, model):
        ds = generate_dataset(model, 50, seed=4)
        assert len(ds) == 50
        assert ds.metadata["fallback_random"]

    def test_same_seed_regenerates_bit_identically(self, model):
        a = generate_dataset(model, 200, seed=5)
        b = generate_dataset(model, 200, seed=5)
        assert np.array_equal(a.joints, b.joints)
        assert np.array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("count, noise", [
        (127, 0.1), (300, 0.1), (25_000, 0.1), (5 ** 7, 0.1), (100_000, 0.1),
        (25_000, 0.0), (5 ** 7, 0.0)])
    def test_rows_match_the_full_grid_formula(self, count, noise):
        # A joint limit box other than (-pi, pi), so each axis differs.
        arm = oracles.ARMS["limits"]
        ds = generate_dataset(arm, count, noise, seed=7)
        joints, positions, k = oracles.reference_dataset(
            arm, count, noise, np.random.default_rng(7))
        assert ds.joints.tobytes() == joints.tobytes()
        assert ds.positions.tobytes() == positions.tobytes()
        assert ds.joints.shape == (count, 7)
        assert json.dumps(ds.metadata) == json.dumps({
            "count": count, "noise_amplitude": noise, "seed": 7,
            "fallback_random": k is None, "grid_per_axis": k})

    def test_validation(self, model):
        with pytest.raises(ValueError):
            generate_dataset(model, 0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_amplitude"):
                generate_dataset(model, 10, noise_amplitude=bad)

    def test_csv_round_trip_is_exact(self, model, tmp_path):
        ds = generate_dataset(model, 64, seed=6)
        path = tmp_path / "data.csv"
        ds.save_csv(path)
        back = Dataset.load_csv(path)
        assert np.array_equal(back.joints, ds.joints)
        assert np.array_equal(back.positions, ds.positions)
        assert back.metadata == ds.metadata

    @pytest.mark.parametrize("count, noise, seed", [(50, 0.1, 3),
                                                    (200, 0.05, 11)])
    def test_saved_metadata_regenerates_the_rows(self, model, tmp_path,
                                                 count, noise, seed):
        path = tmp_path / "data.csv"
        generate_dataset(model, count, noise, seed=seed).save_csv(path)
        saved = Dataset.load_csv(path)
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        again = generate_dataset(model, meta["count"],
                                 meta["noise_amplitude"], seed=meta["seed"])
        assert again.joints.tobytes() == saved.joints.tobytes()
        assert again.positions.tobytes() == saved.positions.tobytes()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # Cells whose repr is short, subnormal, exponent-form or extreme.
        cells = [-0.0, 5e-324, 1e-7, 1e16, -1.7976931348623157e308, 0.1,
                 -2.5, 1 / 3, 123456789.0, 1e-300]
        table = np.array([np.roll(cells, k) for k in range(4)])
        path = tmp_path / "data.csv"
        Dataset(table[:, :7], table[:, 7:], {}).save_csv(path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"theta{i}" for i in range(1, 8)]
                            + ["x", "y", "z"])
            for row in table:
                writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == reference.read_bytes()
        back = Dataset.load_csv(path)
        assert np.array_equal(np.hstack([back.joints, back.positions]),
                              table)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_with_a_non_finite_cell_is_rejected(self, model, tmp_path,
                                                    cell):
        ds = generate_dataset(model, 5, seed=0)
        path = tmp_path / "data.csv"
        ds.save_csv(path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[8] = cell
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"data row 3 \(line 4\)"):
            Dataset.load_csv(path)


class TestSplitDataset:
    def test_default_quarter_split(self, model):
        ds = generate_dataset(model, 100, seed=0)
        train, test = split_dataset(ds, 0.25, seed=1)
        assert len(train) == 75
        assert len(test) == 25

    def test_union_is_the_original_multiset(self, model):
        ds = generate_dataset(model, 80, seed=2)
        train, test = split_dataset(ds, 0.25, seed=3)
        merged = np.vstack([train.joints, test.joints])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.joints.T)
        assert np.array_equal(merged[key], ds.joints[orig_key])

    def test_same_seed_same_partition(self, model):
        ds = generate_dataset(model, 80, seed=4)
        a_train, _ = split_dataset(ds, 0.25, seed=5)
        b_train, _ = split_dataset(ds, 0.25, seed=5)
        assert np.array_equal(a_train.joints, b_train.joints)

    def test_fraction_validation(self, model):
        ds = generate_dataset(model, 40, seed=6)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0)

    @pytest.mark.parametrize("rows, fraction, part", [
        (2, 0.25, "test"), (300, 0.001, "test"), (4, 0.9, "train")])
    def test_a_fraction_that_empties_a_part_is_rejected(self, model, rows,
                                                        fraction, part):
        ds = generate_dataset(model, rows, seed=0)
        with pytest.raises(ValueError, match=re.escape(
                f"test_fraction {fraction} of {rows} rows leaves the {part} "
                f"set empty")):
            split_dataset(ds, fraction)


@pytest.mark.parametrize("seed", [None, -1, 1.5, np.random.default_rng(0)],
                         ids=["none", "negative", "float", "generator"])
def test_a_seed_must_be_an_integer_at_least_zero(model, seed):
    # default_rng(None) draws OS entropy and default_rng(generator) hands
    # the generator back: neither draw could be regenerated from a seed.
    ds = generate_dataset(model, 10)
    for call in (lambda: generate_dataset(model, 10, seed=seed),
                 lambda: split_dataset(ds, seed=seed)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            call()


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


@pytest.mark.parametrize("fit", [fit_tree, lambda ds: fit_polynomial(ds, 2)])
@pytest.mark.parametrize("field", ["positions", "joints"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_data_is_rejected(model, fit, field, bad):
    ds = generate_dataset(model, 200, seed=0)
    getattr(ds, field)[17, 1] = bad
    with pytest.raises(ValueError, match=f"training {field} must be finite"):
        fit(ds)


class TestPositionChecks:
    """Both model kinds take a position as (3,) and a batch as (3,) or
    (n, 3), finite, and raise ValueError for anything else."""

    @pytest.fixture(params=["tree", "polynomial"])
    def fitted(self, request, model):
        ds = generate_dataset(model, 200, seed=0)
        if request.param == "tree":
            return fit_tree(ds, max_depth=6)
        return fit_polynomial(ds, 2)

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2), (5, 3, 1), (2,),
                                       (4,), ()])
    def test_batch_of_the_wrong_shape_is_rejected(self, fitted, shape):
        with pytest.raises(ValueError, match="positions must be"):
            fitted.predict_batch(np.full(shape, 0.5))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (3, 3), (2,), ()])
    def test_position_of_the_wrong_shape_is_rejected(self, fitted, shape):
        with pytest.raises(ValueError, match="position must be"):
            fitted.predict(np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_are_rejected(self, fitted, bad):
        batch = np.full((4, 3), 0.5)
        batch[2, 1] = bad
        with pytest.raises(ValueError, match="positions must be finite"):
            fitted.predict_batch(batch)
        with pytest.raises(ValueError, match="positions must be finite"):
            fitted.predict(batch[2])

    def test_a_single_position_batch_and_lists_are_taken(self, fitted):
        p = [0.5, -0.25, 1.0]
        assert np.array_equal(fitted.predict_batch(p),
                              fitted.predict_batch(np.array([p])))
        assert np.array_equal(fitted.predict(p), fitted.predict_batch(p)[0])


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


def depth_first_dict(tree):
    """tree's v2 dict with its nodes renumbered as the earlier per-node
    stack fit numbered them: a popped split node's children take the next
    two ids, left then right, and the right child is popped first."""
    feature, left, right = (np.asarray(t) for t in (tree.feature, tree.left,
                                                    tree.right))
    order = [0]          # level-order id of each depth-first id
    new_id = np.zeros(tree.n_nodes, dtype=np.int64)
    stack = [0]
    while stack:
        node = stack.pop()
        if feature[node] >= 0:
            for child in (left[node], right[node]):
                new_id[child] = len(order)
                order.append(child)
            stack += [left[node], right[node]]
    old = np.array(order)
    split = feature[old] >= 0
    tables = {"feature": feature[old],
              "threshold": np.asarray(tree.threshold)[old],
              "left": np.where(split, new_id[left[old]], -1),
              "right": np.where(split, new_id[right[old]], -1),
              "leaf_value": tree.value[old][~split]}
    d = tree.to_dict()
    for name, table in tables.items():
        dtype = TestPersistence.TABLE_TYPES[name]
        d[name] = base64.b64encode(
            table.astype(dtype).tobytes()).decode("ascii")
    return d, tables


class TestRegressionTree:
    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        # Padded split positions divide by n_right <= 0; no warning of
        # theirs may leak out of a fit.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

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
        ds = generate_dataset(model, 300, seed=1)
        tree = fit_tree(ds, min_leaf=1)
        pred = tree.predict_batch(ds.positions)
        assert np.abs(pred - wrap_angle(ds.joints)).max() < 1e-12

    def test_larger_min_leaf_gives_a_smaller_tree(self, model):
        ds = generate_dataset(model, 300, seed=2)
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
        ds = generate_dataset(model, 200, seed=4)
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
        ds = generate_dataset(model, 50, seed=0)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            fit_tree(ds, **kwargs)

    @pytest.mark.parametrize("max_depth", [0, 1, 6, 84])
    @pytest.mark.parametrize("min_leaf", [1, 3, 10])
    def test_node_tables_match_the_per_node_reference(self, model, min_leaf,
                                                      max_depth):
        # Quantised positions tie on every feature, and repeated positions
        # with different joints leave nodes that no split can separate.
        ds = generate_dataset(model, 300, seed=6)
        positions = np.round(ds.positions, 1)
        positions[::7] = positions[0]
        assert_matches_reference(Dataset(ds.joints, positions, {}),
                                 max_depth=max_depth, min_leaf=min_leaf)

    def test_node_tables_match_the_reference_on_a_larger_set(self, model):
        ds = generate_dataset(model, 2000, seed=8)
        assert_matches_reference(
            Dataset(ds.joints, np.round(ds.positions, 2), {}))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
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

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(2, 400), levels=st.integers(2, 6),
           seed=st.integers(0, 2 ** 32 - 1), min_leaf=st.integers(1, 5),
           max_depth=st.integers(0, 12))
    def test_node_tables_match_the_reference_in_mixed_size_classes(
            self, n, levels, seed, min_leaf, max_depth):
        # A few hundred rows on a coarse grid: a depth's size class holds
        # nodes of several counts, scored as one padded batch, and both
        # running-sum paths (many narrow nodes, few wide ones) run.
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, levels, size=(n, 3)) / levels
        joints = rng.uniform(-3.0, 3.0, size=(n, 7))
        assert_matches_reference(Dataset(joints, positions, {}),
                                 max_depth=max_depth, min_leaf=min_leaf)

    def test_each_depth_scores_one_batch_per_size_class(self, model,
                                                        monkeypatch):
        # Unrounded positions: a per-class sum of squared joint norms,
        # in place of the per-count one, moves a split on this set.
        ds = generate_dataset(model, 1000, seed=11)
        calls, depth = [], [0]
        best_splits, partition = ml._best_splits, ml._partition

        def scoring(xt, y, y_sq, orders, starts, counts, *rest):
            calls.append((depth[0], counts.copy()))
            return best_splits(xt, y, y_sq, orders, starts, counts, *rest)

        def next_depth(*args):
            depth[0] += 1
            return partition(*args)

        monkeypatch.setattr(ml, "_best_splits", scoring)
        monkeypatch.setattr(ml, "_partition", next_depth)
        assert_matches_reference(ds)
        classes = [(d, int(np.frexp(counts.max())[1])) for d, counts in calls]
        assert len(classes) == len(set(classes))
        for _, counts in calls:
            assert np.frexp(counts)[1].min() == np.frexp(counts.max())[1]
        # Both running-sum paths ran, and some batch held several counts.
        narrow = [counts.max() < counts.size for _, counts in calls]
        assert any(narrow) and not all(narrow)
        assert any(np.unique(counts).size > 1 for _, counts in calls)

    def test_a_class_wider_than_the_root_is_cut_into_batches(
            self, monkeypatch):
        # The root splits 12 rows into 5 and 7; padded to 7, that class
        # would hold 14 rows, so each child is scored on its own.
        x = np.arange(12.0)
        positions = np.stack([x, np.zeros(12), np.zeros(12)], axis=1)
        joints = np.where(x < 4.5, 1.0, -1.0)[:, None] + 0.01 * np.sin(
            x[:, None] * np.arange(1, 8))
        widths = []
        best_splits = ml._best_splits

        def scoring(xt, y, y_sq, orders, starts, counts, *rest):
            widths.append(counts.max() * counts.size)
            return best_splits(xt, y, y_sq, orders, starts, counts, *rest)

        monkeypatch.setattr(ml, "_best_splits", scoring)
        ds = Dataset(joints, positions, {})
        assert_matches_reference(ds, max_depth=2)
        assert widths == [12, 5, 7]

    def test_partition_past_16_bit_child_ids(self):
        # 40,000 nodes of 1-3 rows: child ids reach 79,999, so the sort
        # key widens to 32 bits; the lists and counts are those of a
        # stable sort of int64 child ids.
        rng = np.random.default_rng(21)
        counts = rng.integers(1, 4, 40_000)
        assert np.min_scalar_type(2 * counts.size) == np.uint32
        n = int(counts.sum())
        x = np.round(rng.uniform(-1.0, 1.0, (n, 3)), 1)
        node_of = np.repeat(np.arange(counts.size), counts)
        row = rng.permutation(n)  # the row at each list position
        orders = np.stack([row[np.lexsort((key, node_of))] for key in
                           (row, *(x[row, f] for f in range(3)))])
        feature = rng.integers(-1, 3, counts.size)
        threshold = np.round(rng.uniform(-1.0, 1.0, counts.size), 1)
        moved, children = ml._partition(x, orders, counts, feature,
                                        threshold)

        keep = feature[node_of] >= 0
        node_at, rows = node_of[keep], orders[:, keep]
        right = ~(x[rows, feature[node_at]] <= threshold[node_at])
        child = 2 * node_at.astype(np.int64) + right
        expected = np.take_along_axis(
            rows, np.argsort(child, axis=1, kind="stable"), axis=1)
        assert np.array_equal(moved, expected)
        split = np.flatnonzero(feature >= 0)
        assert np.array_equal(children, np.bincount(
            child[0], minlength=2 * counts.size)[
                np.stack([2 * split, 2 * split + 1], axis=1).ravel()])

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

    def test_leaves_are_stored_wrapped(self):
        # Joints past pi, as a grid over (-2pi, 2pi) limits gives: the
        # leaves hold the wrapped means, which predictions return as is.
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        joints = np.array([[4.0] * 7, [-4.0] * 7])
        tree = fit_tree(Dataset(joints, positions, {}))
        assert np.array_equal(tree.value, wrap_angle(
            np.array([[0.0] * 7, [4.0] * 7, [-4.0] * 7])))
        assert np.array_equal(tree.predict_batch(positions),
                              wrap_angle(joints))
        assert np.array_equal(tree.predict(positions[0]),
                              wrap_angle(joints[0]))

    def test_predict_returns_a_copy_of_the_leaf(self):
        ds = Dataset(np.full((1, 7), 0.5), np.zeros((1, 3)), {})
        tree = fit_tree(ds)
        tree.predict(np.zeros(3))[:] = 9.0
        tree.predict_batch(np.zeros((2, 3)))[:] = 9.0
        assert np.array_equal(tree.value, np.full((1, 7), 0.5))

    def test_node_tables_are_invisible_to_the_garbage_collector(
            self, model, tmp_path):
        # A large tree's node tables, held as lists, cost each collection
        # that scans them ~10 ms, charged to whatever solve it lands in.
        ds = generate_dataset(model, 200, seed=5)
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
        ds = generate_dataset(model, 200, seed=0)
        fitted = builder(ds)
        path = tmp_path / "model.json"
        save_model(fitted, path)
        back = load_model(path)
        probe = ds.positions[:30]
        assert np.array_equal(back.predict_batch(probe),
                              fitted.predict_batch(probe))

    @pytest.mark.parametrize("builder", [
        lambda ds: fit_polynomial(ds, degree=3),
        lambda ds: fit_tree(ds),
    ], ids=["polynomial", "tree"])
    def test_file_is_the_json_dump_of_to_dict(self, model, tmp_path,
                                              builder):
        fitted = builder(generate_dataset(model, 2_000, seed=4))
        path = tmp_path / "model.json"
        save_model(fitted, path)
        assert path.read_bytes() == json.dumps(fitted.to_dict()).encode()
        back = load_model(path)
        if fitted.kind == "tree":
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(back, name),
                                      getattr(fitted, name)), name
            assert back.max_depth_used == fitted.max_depth_used
        else:
            assert back.degree == fitted.degree
            assert np.array_equal(back.weights, fitted.weights)
            assert np.array_equal(back.intercepts, fitted.intercepts)

    def test_reads_a_depth_first_file_with_unwrapped_leaves(self, model,
                                                            tmp_path):
        # Earlier releases numbered nodes depth-first and stored leaf means
        # unwrapped; such a file predicts bit for bit as the fitted tree.
        ds = generate_dataset(model, 300, seed=9)
        tree = fit_tree(ds)
        d, tables = depth_first_dict(tree)
        assert not np.array_equal(tables["left"], np.asarray(tree.left))
        leaf_value = tables["leaf_value"].ravel()
        # An entry whose sum with 2pi is exact, so wrapping it gives the
        # entry back: a leaf mean that lay 2pi out of (-pi, pi].
        at = np.flatnonzero(leaf_value + TWO_PI - TWO_PI == leaf_value)[0]
        leaf_value[at] += TWO_PI
        d["leaf_value"] = base64.b64encode(
            leaf_value.astype("<f8").tobytes()).decode("ascii")
        path = tmp_path / "depth_first.json"
        path.write_text(json.dumps(d))
        back = load_model(path)
        probe = np.vstack([ds.positions, np.random.default_rng(10).uniform(
            -1.0, 2.0, size=(2000, 3))])
        assert np.array_equal(back.predict_batch(probe),
                              tree.predict_batch(probe))
        for p in probe[::10]:
            assert np.array_equal(back.predict(p), tree.predict(p))

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d.pop("degree"), "degree"),
        (lambda d: d.update(degree="x"), "degree"),
        (lambda d: d.update(degree=2.0), "degree"),
        (lambda d: d.update(degree=True), "degree"),
        (lambda d: d.update(degree=0), "degree"),
        (lambda d: d.update(degree=3), "weights"),
        (lambda d: d.update(weights=d["weights"][:-1]), "weights"),
        (lambda d: d.update(weights=[r[:-1] for r in d["weights"]]),
         "weights"),
        (lambda d: d.pop("weights"), "weights"),
        (lambda d: d.update(intercepts=d["intercepts"][:-1]), "intercepts"),
        (lambda d: d.update(intercepts=[d["intercepts"]]), "intercepts"),
    ])
    def test_rejects_a_malformed_polynomial_file(self, rng, tmp_path, damage,
                                                 message):
        ds = synthetic_dataset(rng, n=50, f=lambda p: p @ np.ones((3, 7)))
        d = fit_polynomial(ds, degree=2).to_dict()
        damage(d)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            load_model(path)

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

    @pytest.mark.parametrize("kind, version", [
        ("polynomial", 99), ("polynomial", 2), ("polynomial", True),
        ("polynomial", None), ("linear", 2), ("tree", 99), ("tree", 2.0)])
    def test_rejects_a_file_of_another_version(self, rng, tmp_path, kind,
                                               version):
        ds = synthetic_dataset(rng, n=50, f=lambda p: p @ np.ones((3, 7)))
        fitted = fit_tree(ds) if kind == "tree" else fit_polynomial(ds, 1)
        d = {**fitted.to_dict(), "kind": kind, "version": version}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="re-train"):
            load_model(path)

    def test_rejects_a_truncated_file(self, model, tmp_path):
        ds = generate_dataset(model, 200, seed=0)
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
        ("leaf_value", lambda a: np.where(np.arange(a.size) == 3, np.nan, a),
         "leaf_value table holds a non-finite"),
        ("threshold", lambda a: np.where(np.arange(a.size) == 0, np.inf, a),
         "threshold table holds a non-finite"),
        ("threshold", lambda a: np.where(a == 0.0, np.nan, a),
         "threshold table holds a non-finite"),
    ])
    def test_rejects_inconsistent_node_tables(self, model, tmp_path, field,
                                              tamper, message):
        ds = generate_dataset(model, 200, seed=0)
        d = fit_tree(ds).to_dict()
        dtype = self.TABLE_TYPES[field]
        table = np.frombuffer(base64.b64decode(d[field]), dtype=dtype)
        d[field] = base64.b64encode(
            tamper(table).astype(dtype).tobytes()).decode("ascii")
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize("max_depth_used", [None, -1, 1.5, True, "3"])
    def test_rejects_a_bad_max_depth_used(self, model, tmp_path,
                                          max_depth_used):
        ds = generate_dataset(model, 200, seed=0)
        d = fit_tree(ds).to_dict()
        d["max_depth_used"] = max_depth_used
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="max_depth_used"):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("threshold"),
        lambda d: d.update(left=d["left"][:-3]),
        lambda d: d.update(right=12),
        lambda d: d.update(feature="not base64!"),
    ])
    def test_rejects_missing_or_malformed_tables(self, model, tmp_path,
                                                 damage):
        ds = generate_dataset(model, 200, seed=0)
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


class _Counting:
    """Predictor wrapper that counts its predict_batch calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict_batch(self, positions):
        self.calls += 1
        return self.inner.predict_batch(positions)


class TestPlayback:
    """FK playback runs in blocks of ml.PLAYBACK_ROWS (8,192) rows; the
    tree walks any number of rows at once. Sizes one row either side of a
    block boundary, and a last block of one row."""

    SIZES = [1, ml.PLAYBACK_ROWS - 1, ml.PLAYBACK_ROWS, ml.PLAYBACK_ROWS + 1,
             2 * ml.PLAYBACK_ROWS + 1]

    @pytest.fixture(scope="class")
    def case(self):
        model = KinematicModel()
        ds = generate_dataset(model, 400, seed=9)
        tree = fit_tree(ds)
        targets = sample_workspace_batch(model.workspace,
                                         np.random.default_rng(10),
                                         max(self.SIZES))
        return model, tree, targets

    @staticmethod
    def one_batch(model, predictor, positions):
        """The playback formula over all rows in one batch."""
        positions = np.atleast_2d(positions)
        reached = batch_end_effector_positions(
            model, predictor.predict_batch(positions))
        return float(np.linalg.norm(reached - positions, axis=1).mean())

    @pytest.mark.parametrize("rows", SIZES)
    def test_equals_the_one_batch_formula(self, case, rows):
        model, tree, targets = case
        positions = targets[:rows]
        got = average_fitness_on_positions(tree, positions, model)
        assert got.hex() == self.one_batch(model, tree, positions).hex()

    @pytest.fixture(scope="class")
    def large(self):
        # Its own training positions reach one leaf each: more distinct
        # leaves than one playback block holds.
        model = KinematicModel()
        ds = generate_dataset(model, 12_000, seed=11)
        return model, fit_tree(ds), ds.positions

    @pytest.mark.parametrize("rows", [1, 12_000])
    def test_more_distinct_leaves_than_a_block(self, large, rows):
        model, tree, positions = large
        assert np.unique(tree.leaves(positions)).size > ml.PLAYBACK_ROWS
        positions = positions[:rows]
        got = average_fitness_on_positions(tree, positions, model)
        assert got.hex() == self.one_batch(model, tree, positions).hex()

    def test_one_target_as_a_single_position(self, case):
        model, tree, targets = case
        got = average_fitness_on_positions(tree, targets[5], model)
        assert got.hex() == self.one_batch(model, tree, targets[5]).hex()

    def test_every_target_in_one_leaf(self, case):
        # One distinct leaf is a one-row FK batch, against a dense batch of
        # many equal rows.
        model, _, targets = case
        stump = fit_tree(generate_dataset(model, 400, seed=9),
                         max_depth=0)
        positions = targets[:300]
        got = average_fitness_on_positions(stump, positions, model)
        assert got.hex() == self.one_batch(model, stump, positions).hex()

    def test_other_predictors_equal_the_one_batch_formula(self, case):
        model, tree, targets = case
        positions = targets[:ml.PLAYBACK_ROWS + 1]
        counting = _Counting(tree)
        got = average_fitness_on_positions(counting, positions, model)
        assert counting.calls == 1
        assert got.hex() == self.one_batch(model, tree, positions).hex()

    def test_leaves_hold_the_predicted_values(self, case):
        _, tree, targets = case
        leaf = tree.leaves(targets)
        assert np.all(tree.feature[leaf] < 0)
        assert np.array_equal(tree.value[leaf], tree.predict_batch(targets))

    def test_predict_batch_equals_predict_per_row(self, case):
        _, tree, targets = case
        singles = np.array([tree.predict(p) for p in targets])
        for rows in self.SIZES:
            assert np.array_equal(tree.predict_batch(targets[:rows]),
                                  singles[:rows]), rows


class TestEvaluate:
    def test_predicts_the_test_set_once(self, model):
        ds = generate_dataset(model, 200, seed=3)
        tree = fit_tree(ds, max_depth=4)
        counting = _Counting(tree)
        metrics = evaluate(counting, ds, model)
        assert counting.calls == 1
        assert metrics.average_fitness == average_fitness_on_positions(
            tree, ds.positions, model)

    def test_a_tree_scores_as_its_dense_predictions_do(self, model):
        ds = generate_dataset(model, 3_000, seed=5)
        train, test = split_dataset(ds, seed=1)
        tree = fit_tree(train)
        # _Counting hides the tree, so evaluate plays back one row per
        # test row.
        assert evaluate(tree, test, model) == evaluate(_Counting(tree), test,
                                                       model)

    def test_perfect_predictor(self, model):
        ds = generate_dataset(model, 60, seed=0)
        metrics = evaluate(_Echo(ds), ds, model)
        assert metrics.r_squared == pytest.approx(1.0)
        assert metrics.mse == 0.0
        assert metrics.average_fitness == pytest.approx(0.0, abs=1e-12)

    def test_constant_mean_predictor_scores_zero(self, model):
        ds = generate_dataset(model, 60, seed=1)
        metrics = evaluate(_ConstantMean(ds), ds, model)
        assert metrics.r_squared_signed == pytest.approx(0.0, abs=1e-12)
        assert metrics.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_empty_test_set_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate(_ConstantMean(generate_dataset(
                model, 10, seed=2)),
                Dataset(np.zeros((0, 7)), np.zeros((0, 3)), {}), model)
