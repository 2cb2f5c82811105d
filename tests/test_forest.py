import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eif.forest import (
    Forest,
    IsolationTree,
    _grow,
    _margins,
    anomaly_score,
    build_forest,
    build_rotated_forest,
    c_factor,
    expected_depth,
    harmonic_estimate,
    height_limit_for,
    path_length,
    sample_hyperplane,
    score_batch,
)
from eif.model_io import forest_to_document, load_forest, save_forest
from eif.rng import derive_stream, make_rng, subsample
from eif.synthetic import gen_gaussian_blob
from oracles import leaf_depths, score_oracle, tree_from_nested

EULER = 0.5772156649


class TestCFactorFormulas:
    def test_harmonic_estimate_at_one_is_eulers_constant(self):
        assert harmonic_estimate(1) == pytest.approx(EULER, abs=1e-12)

    def test_harmonic_estimate_255(self):
        # ln(255) + 0.5772156649
        assert harmonic_estimate(255) == pytest.approx(6.1184789, abs=1e-6)

    def test_harmonic_estimate_monotone(self):
        values = [harmonic_estimate(i) for i in range(1, 10_001)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_harmonic_estimate_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_estimate(0)

    def test_c_factor_small_n(self):
        assert c_factor(0) == 0.0
        assert c_factor(1) == 0.0
        assert c_factor(2) == 1.0

    def test_c_factor_256(self):
        # 2 * (ln 255 + gamma) - 2 * 255 / 256, evaluated independently
        expected = 2.0 * (math.log(255) + EULER) - 2.0 * 255.0 / 256.0
        assert expected == pytest.approx(10.24477, abs=1e-5)
        assert c_factor(256) == pytest.approx(10.24477, abs=1e-5)

    def test_c_factor_10(self):
        assert c_factor(10) == pytest.approx(3.7488804844, abs=1e-9)


class TestHyperplaneSampling:
    def node_data(self, n=64, dim=3, seed=2):
        return gen_gaussian_blob(n, dim, seed=seed)

    def test_full_extension_keeps_every_coordinate(self):
        data = self.node_data(dim=4)
        for i in range(50):
            h = sample_hyperplane(data, 3, make_rng(i))
            assert np.count_nonzero(h.normal) == 4

    def test_extension_zero_is_axis_parallel(self):
        data = self.node_data(dim=4)
        for i in range(50):
            h = sample_hyperplane(data, 0, make_rng(i))
            assert np.count_nonzero(h.normal) == 1

    @pytest.mark.parametrize("dim,level", [(2, 0), (2, 1), (3, 1), (5, 2)])
    def test_nonzero_count_is_level_plus_one(self, dim, level):
        data = self.node_data(dim=dim)
        for i in range(30):
            h = sample_hyperplane(data, level, make_rng(i))
            assert np.count_nonzero(h.normal) == level + 1

    def test_degenerate_coordinate_pins_intercept(self):
        data = self.node_data(dim=3)
        data[:, 1] = 4.25
        h = sample_hyperplane(data, 2, make_rng(3))
        assert h.intercept[1] == 4.25

    def test_intercept_inside_node_range(self):
        data = self.node_data(n=100, dim=3)
        for i in range(20):
            h = sample_hyperplane(data, 1, make_rng(i))
            assert np.all(h.intercept >= data.min(axis=0))
            assert np.all(h.intercept <= data.max(axis=0))

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            sample_hyperplane(np.zeros((1, 2)), 0, make_rng(1))

    def test_rejects_bad_extension_level(self):
        data = self.node_data(dim=2)
        with pytest.raises(ValueError):
            sample_hyperplane(data, 2, make_rng(1))
        with pytest.raises(ValueError):
            sample_hyperplane(data, -1, make_rng(1))


class TestBranchLeft:
    def goes_left(self, x, normal, intercept):
        margin = _margins(np.array([x], float), np.asarray(normal, float), np.asarray(intercept, float))
        return bool(margin[0] <= 0.0)

    def test_point_on_plane_goes_left(self):
        assert self.goes_left([2.0, 3.0], [1.0, 1.0], [2.0, 3.0]) is True

    def test_positive_margin_goes_right(self):
        assert self.goes_left([3.0, 5.0], [1.0, 0.0], [0.0, 0.0]) is False

    def test_flipping_normal_swaps_side(self):
        assert self.goes_left([3.0, 5.0], [-1.0, 0.0], [0.0, 0.0]) is True


def leaf_sizes(tree):
    return tree.size[tree.left < 0].tolist()


def max_depth(tree):
    return max(leaf_depths(tree).values())


def is_single_leaf(tree, size):
    return tree.left.tolist() == [-1] and tree.size.tolist() == [size]


class TestBuildTree:
    def test_singleton_becomes_leaf(self):
        tree = _grow(np.array([[1.0, 2.0]]), 0, 8, 1, make_rng(1))
        assert is_single_leaf(tree, 1)

    def test_identical_points_become_leaf(self):
        data = np.tile([1.5, -2.0], (20, 1))
        tree = _grow(data, 0, 8, 1, make_rng(1))
        assert is_single_leaf(tree, 20)

    def test_height_limit_reached_becomes_leaf(self):
        data = gen_gaussian_blob(10, 2, seed=1)
        tree = _grow(data, 5, 5, 1, make_rng(1))
        assert is_single_leaf(tree, 10)

    def test_four_points_depth_two(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = _grow(data, 0, 2, 0, make_rng(3))
        assert max_depth(tree) <= 2
        assert sum(leaf_sizes(tree)) == 4

    def test_leaf_mass_conservation(self):
        data = gen_gaussian_blob(256, 3, seed=4)
        tree = _grow(data, 0, 8, 2, make_rng(9))
        assert sum(leaf_sizes(tree)) == 256

    def test_nodes_are_in_preorder(self):
        tree = _grow(gen_gaussian_blob(64, 2, seed=5), 0, 6, 1, make_rng(2))
        internal = np.flatnonzero(tree.left >= 0)
        assert tree.left[internal].tolist() == (internal + 1).tolist()
        assert np.all(tree.right[internal] > tree.left[internal])
        assert sorted(leaf_depths(tree)) == np.flatnonzero(tree.left < 0).tolist()

    def test_deterministic_replay(self, tmp_path):
        data = gen_gaussian_blob(256, 2, seed=11)
        f1 = build_forest(data, 3, 256, 1, seed=5)
        f2 = build_forest(data, 3, 256, 1, seed=5)
        assert forest_to_document(f1) == forest_to_document(f2)


def two_leaves(normal=(1.0, 1.0), sizes=(1, 1), angle=None):
    """A root split over two leaves: valid at psi 2 and level len(normal) - 1."""
    return tree_from_nested((list(normal), [0.0] * len(normal), *sizes), angle=angle)


def forest_of(tree, psi=2, extension_level=1, seed=0):
    return Forest(trees=[tree], psi=psi, extension_level=extension_level, seed=seed)


_REJECTED = [
    ("self-child-root", lambda: forest_of(dataclasses.replace(two_leaves(), left=np.array([0, -1, -1]))),
     ValueError, "node 0 of tree 0 is reached twice"),
    ("leaf-sizes-sum-to-psi-plus-1", lambda: forest_of(two_leaves(sizes=(1, 2))),
     ValueError, "tree 0 has leaf sizes summing to 3, expected psi=2"),
    ("level-1-with-axis-normals", lambda: forest_of(two_leaves(normal=(1.0, 0.0))),
     ValueError, "node 0 of tree 0 has 1 nonzero normal entries, expected 2"),
    ("angles-at-level-1", lambda: forest_of(two_leaves(angle=0.5)),
     ValueError, "rotated variant requires extension_level 0, got 1"),
    ("angles-in-3d", lambda: forest_of(two_leaves(normal=(1.0, 0.0, 0.0), angle=0.5), extension_level=0),
     ValueError, "rotated variant requires dimension 2, got 3"),
    ("seed-minus-1", lambda: forest_of(two_leaves(), seed=-1),
     ValueError, r"seed must be in \[0, 2\*\*64\), got -1"),
    ("trees-append", lambda: forest_of(two_leaves()).trees.append(two_leaves(angle=0.5)),
     AttributeError, "append"),
    ("trees-assign", lambda: setattr(forest_of(two_leaves()), "trees", (two_leaves(angle=0.5),)),
     AttributeError, "cannot assign to field 'trees'"),
    ("replace-rechecks", lambda: dataclasses.replace(forest_of(two_leaves()), extension_level=0),
     ValueError, "node 0 of tree 0 has 2 nonzero normal entries, expected 1"),
]


class TestBuildForest:
    @pytest.mark.parametrize("psi,limit", [(256, 8), (100, 7), (2, 1), (4, 2), (1000, 10)])
    def test_height_limit(self, psi, limit):
        assert height_limit_for(psi) == limit

    def test_height_limit_is_exact_beyond_float_precision(self):
        for k in range(63):
            assert height_limit_for(2**k) == k
            assert height_limit_for(2**k + 1) == k + 1

    def test_forest_shape(self, blob_2d):
        f = build_forest(blob_2d, 20, 256, 1, seed=1)
        assert f.t == 20
        assert f.psi == 256
        assert f.dimension == 2
        assert f.normalizer == c_factor(256)
        assert [tree["height_limit"] for tree in forest_to_document(f)["trees"]] == [8] * 20

    def test_variant_labels(self, blob_2d):
        assert build_forest(blob_2d, 2, 64, 0, seed=1).variant == "standard-equivalent"
        assert build_forest(blob_2d, 2, 64, 1, seed=1).variant == "extended"

    def test_rejects_psi_above_data(self):
        data = gen_gaussian_blob(100, 2, seed=1)
        with pytest.raises(ValueError, match="insufficient data"):
            build_forest(data, 5, 256, 1, seed=1)

    def test_rejects_bad_extension(self, blob_2d):
        with pytest.raises(ValueError, match="extension_level"):
            build_forest(blob_2d, 5, 64, 2, seed=1)

    def test_rejects_nonfinite(self):
        data = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            build_forest(data, 2, 2, 0, seed=1)

    def test_rejects_sample_whose_span_overflows(self):
        data = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5], [1.0, 2.0]])
        with pytest.raises(ValueError, match=r"column 0 spans \[-1e\+308, 1e\+308\]"):
            build_forest(data, 2, 4, 1, seed=1)

    def test_rejects_an_empty_forest(self):
        with pytest.raises(ValueError, match="forest has no trees"):
            Forest(trees=[], psi=4, extension_level=0, seed=1)

    def test_rejects_trees_of_different_dimensions(self):
        two = build_forest(gen_gaussian_blob(64, 2, seed=1), 3, 32, 1, seed=1)
        three = build_forest(gen_gaussian_blob(64, 3, seed=1), 3, 32, 1, seed=1)
        with pytest.raises(ValueError, match="tree 3 splits in dimension 3, tree 0 in dimension 2"):
            Forest(trees=two.trees + three.trees, psi=32, extension_level=1, seed=1)

    def test_rejects_rotated_and_unrotated_trees_together(self, blob_2d):
        plain = build_forest(blob_2d, 2, 64, 0, seed=1)
        rotated = build_rotated_forest(blob_2d, 2, 64, seed=1)
        with pytest.raises(ValueError, match=r"tree 2 has angle \d.* but tree 0 has angle None"):
            Forest(trees=plain.trees + rotated.trees, psi=64, extension_level=0, seed=1)
        with pytest.raises(ValueError, match=r"tree 2 has angle None but tree 0 has angle \d"):
            Forest(trees=rotated.trees + plain.trees, psi=64, extension_level=0, seed=1)

    @pytest.mark.parametrize("make,error,match", [case[1:] for case in _REJECTED],
                             ids=[case[0] for case in _REJECTED])
    def test_a_forest_is_checked_when_made_and_cannot_change(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_tree_build_order_is_irrelevant(self, blob_2d):
        from eif.forest import _build_one_tree

        f = build_forest(blob_2d, 8, 128, 1, seed=21)
        root = make_rng(21)
        reversed_trees = [None] * 8
        for i in reversed(range(8)):
            reversed_trees[i] = _build_one_tree(blob_2d, i, root, 128, 7, 1)
        g = Forest(trees=reversed_trees, psi=128, extension_level=1, seed=21)
        assert json.dumps(forest_to_document(f)) == json.dumps(forest_to_document(g))


class TestPathLengthAndScore:
    def test_root_leaf_path(self):
        tree = tree_from_nested(1, dimension=1)
        assert path_length(np.array([1.0]), tree) == 0.0

    def test_depth_one_both_leaves(self):
        tree = tree_from_nested(([1.0], [0.0], 1, 1))
        assert path_length(np.array([-3.0]), tree) == 1.0
        assert path_length(np.array([3.0]), tree) == 1.0

    def test_leaf_credit_uses_c_factor(self):
        # depth-8 chain ending in a size-10 leaf
        node = 10
        for _ in range(8):
            node = ([1.0], [1e9], node, 0)
        tree = tree_from_nested(node)
        expected = 8 + c_factor(10)
        assert path_length(np.array([0.0]), tree) == pytest.approx(expected, abs=1e-12)
        assert c_factor(10) == pytest.approx(3.7489, abs=1e-4)

    def test_path_length_dimension_mismatch(self, small_forest):
        with pytest.raises(ValueError, match="dimension mismatch"):
            path_length(np.zeros(3), small_forest.trees[0])

    def test_root_leaf_tree_still_checks_dimension(self):
        tree = tree_from_nested(256, dimension=2)
        with pytest.raises(ValueError, match=r"dimension mismatch: point shape \(5,\), dimension is 2"):
            path_length(np.zeros(5), tree)

    def test_single_tree_forest_mean(self, blob_2d):
        f = build_forest(blob_2d, 1, 64, 1, seed=2)
        x = np.array([0.5, -0.5])
        assert expected_depth(x, f) == path_length(x, f.trees[0])

    def test_expected_depth_is_mean_and_order_free(self, small_forest):
        x = np.array([1.0, 1.0])
        per_tree = [path_length(x, t) for t in small_forest.trees]
        assert expected_depth(x, small_forest) == pytest.approx(np.mean(per_tree), rel=1e-15)
        shuffled = dataclasses.replace(small_forest, trees=tuple(reversed(small_forest.trees)))
        assert expected_depth(x, shuffled) == pytest.approx(
            expected_depth(x, small_forest), rel=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_a_coordinate_the_split_ignores_does_not_misroute(self):
        # The split reads column 1 only; in column 0, 1e308 - (-1e308) overflows.
        forest = forest_of(tree_from_nested(([0.0, 1.0], [-1e308, 0.5], 1, 7)), psi=8, extension_level=0)
        far, near = score_batch(np.array([[1e308, 0.0], [0.0, 0.0]]), forest)
        assert far.hex() == near.hex()

    def test_score_at_normalizer_depth_is_half(self, small_forest):
        # when the mean depth equals c(psi) the score is exactly 1/2
        assert 2.0 ** (-c_factor(256) / small_forest.normalizer) == 0.5

    def test_score_formula_extremes(self):
        norm = c_factor(256)
        assert 2.0 ** (-0.0 / norm) == 1.0
        assert 2.0 ** (-2.0 * norm / norm) == 0.25

    def test_scores_strictly_decreasing_in_depth(self):
        norm = c_factor(256)
        depths = np.linspace(0.5, 16, 50)
        scores = 2.0 ** (-depths / norm)
        assert np.all(np.diff(scores) < 0)


class TestScoreBatch:
    def test_empty_dataset(self, small_forest):
        out = score_batch(np.empty((0, 2)), small_forest)
        assert out.shape == (0,)

    def test_empty_dataset_of_wrong_width(self, small_forest):
        with pytest.raises(ValueError, match="dimension mismatch: data has 3 columns"):
            score_batch(np.empty((0, 3)), small_forest)

    def test_single_row_matches_pointwise(self, small_forest):
        x = np.array([0.3, 1.8])
        assert score_batch(x[np.newaxis, :], small_forest)[0] == anomaly_score(x, small_forest)

    def test_batch_equals_loop_bitwise(self, small_forest, blob_2d):
        pts = blob_2d[:100]
        batch = score_batch(pts, small_forest)
        loop = np.array([anomaly_score(p, small_forest) for p in pts])
        assert np.array_equal(batch, loop)

    def test_dimension_mismatch(self, small_forest):
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_batch(np.zeros((4, 3)), small_forest)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_row(self, small_forest, bad):
        rows = np.zeros((3, 2))
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite value .* at row 1, column 0"):
            score_batch(rows, small_forest)

    def test_scores_within_open_unit_interval(self, small_forest, blob_2d):
        s = score_batch(blob_2d, small_forest)
        assert np.all(s > 0.0) and np.all(s < 1.0)


def route_and_check(tree, sample, height_limit):
    """Route a tree's training sample down the stored structure, checking the
    split test and the depth cap at every node, and compare arrival counts
    with stored sizes."""
    stack = [(0, sample, 0)]
    while stack:
        k, pts, depth = stack.pop()
        if tree.left[k] < 0:
            assert tree.size[k] == len(pts)
            continue
        assert depth < height_limit
        margins = np.array([
            sum((p[d] - tree.intercept[k, d]) * tree.normal[k, d]
                for d in range(len(p)))
            for p in pts
        ]) if len(pts) else np.empty(0)
        went_left = margins <= 0.0
        stack.append((tree.left[k], pts[went_left], depth + 1))
        stack.append((tree.right[k], pts[~went_left], depth + 1))


class TestStructuralInvariants:
    @pytest.mark.parametrize("dim,level,seed", [(1, 0, 1), (2, 1, 2), (3, 1, 3), (4, 3, 4), (5, 2, 5)])
    def test_replayed_subsample_matches_stored_tree(self, dim, level, seed):
        data = gen_gaussian_blob(300, dim, seed=seed)
        f = build_forest(data, 5, 64, level, seed=seed)
        root = make_rng(seed)
        for i, tree in enumerate(f.trees):
            sample = subsample(derive_stream(root, i), data, 64)
            assert sum(leaf_sizes(tree)) == 64
            assert max_depth(tree) <= height_limit_for(f.psi)
            route_and_check(tree, sample, height_limit_for(f.psi))

    def test_every_normal_has_level_plus_one_nonzeros(self):
        data = gen_gaussian_blob(300, 4, seed=6)
        for level in range(4):
            f = build_forest(data, 3, 64, level, seed=level)
            for tree in f.trees:
                for k in np.flatnonzero(tree.left >= 0):
                    assert np.count_nonzero(tree.normal[k]) == level + 1


class TestMonotoneAnomalyProperty:
    def test_far_ring_outscores_near_ring(self, blob_2d):
        from eif.synthetic import gen_sphere_levelset

        near = gen_sphere_levelset(1.0, 500, 2, seed=1)
        far = gen_sphere_levelset(4.0, 500, 2, seed=2)
        for level in (0, 1):
            f = build_forest(blob_2d, 100, 256, level, seed=3)
            assert score_batch(far, f).mean() > score_batch(near, f).mean()


def textbook_standard_iforest_scores(data, t, psi, seed):
    """Independent reference: classic axis-parallel isolation forest (random
    feature, uniform threshold, strict less-than goes left)."""
    data = np.asarray(data, float)
    n, dim = data.shape
    limit = int(math.ceil(math.log2(psi)))

    def grow(pts, depth, rng):
        if depth >= limit or len(pts) <= 1 or np.all(pts == pts[0]):
            return ("leaf", len(pts))
        feat = rng.integers(0, dim)
        lo, hi = pts[:, feat].min(), pts[:, feat].max()
        if lo == hi:
            return ("leaf", len(pts))
        value = float(rng.uniform(lo, hi))
        mask = pts[:, feat] < value
        return ("split", feat, value, grow(pts[mask], depth + 1, rng), grow(pts[~mask], depth + 1, rng))

    def depth_of(x, node, depth=0):
        if node[0] == "leaf":
            return depth + c_factor(node[1])
        _, feat, value, left, right = node
        return depth_of(x, left if x[feat] < value else right, depth + 1)

    root = make_rng(seed)
    trees = []
    for i in range(t):
        stream = derive_stream(root, i)
        trees.append(grow(subsample(stream, data, psi), 0, stream))
    norm = c_factor(psi)
    return np.array([
        2.0 ** (-np.mean([depth_of(x, tr) for tr in trees]) / norm) for x in data
    ])


def test_extension_zero_ranks_like_textbook_iforest():
    # 1-D data with an unambiguous anomaly structure; the two ensembles are
    # different stochastic processes, so agreement is in rank order.
    from scipy.stats import spearmanr

    rng = make_rng(14)
    cluster = rng.standard_normal(44)
    outliers = np.array([6.0, 7.5, -6.5, 9.0, -8.0, 11.0])
    data = np.concatenate([cluster, outliers])[:, np.newaxis]
    ours = score_batch(data, build_forest(data, 400, 50, 0, seed=5))
    reference = textbook_standard_iforest_scores(data, 400, 50, seed=5)
    rho = spearmanr(ours, reference).statistic
    assert rho > 0.9
    top_ours = set(np.argsort(ours)[-6:])
    top_ref = set(np.argsort(reference)[-6:])
    assert top_ours == top_ref == set(range(44, 50))


@given(st.integers(0, 2**32), st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_build_is_pure_function_of_inputs(seed, dim):
    data = gen_gaussian_blob(80, dim, seed=seed % 1000)
    a = build_forest(data, 4, 40, dim - 1, seed=seed)
    b = build_forest(data, 4, 40, dim - 1, seed=seed)
    assert forest_to_document(a) == forest_to_document(b)


@given(
    seed=st.integers(0, 2**32),
    dim=st.integers(1, 5),
    kind=st.sampled_from(["level-0", "full", "rotated"]),
    psi=st.integers(2, 40),
)
@settings(max_examples=40, deadline=None)
def test_score_batch_equals_scalar_oracle_bitwise(seed, dim, kind, psi):
    if kind == "rotated":
        dim = 2
    data = gen_gaussian_blob(60, dim, seed=seed % 997)
    probes = np.vstack([gen_gaussian_blob(15, dim, seed=seed % 991 + 1), 4.0 * data[:5]])
    if kind == "rotated":
        forest = build_rotated_forest(data, 5, psi, seed=seed)
    else:
        forest = build_forest(data, 5, psi, 0 if kind == "level-0" else dim - 1, seed=seed)
    # each root's intercept lies on its split plane: the margin tie goes left
    probes = np.vstack([probes, [tree.intercept[0] for tree in forest.trees]])
    batch = score_batch(probes, forest)
    assert [v.hex() for v in batch.tolist()] == [score_oracle(p, forest).hex() for p in probes]


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_tree_arrays_are_read_only(tmp_path, blob_2d, source):
    forest = build_forest(blob_2d, 3, 64, 1, seed=2)
    if source == "loaded":
        save_forest(forest, tmp_path / "m.json")
        forest = load_forest(tmp_path / "m.json")
    before = score_batch(np.zeros((1, 2)), forest)
    for tree in forest.trees:
        for name in ("normal", "intercept", "left", "right", "size"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tree, name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        forest.trees[0].left = np.zeros(1, dtype=np.int64)
    assert score_batch(np.zeros((1, 2)), forest).tobytes() == before.tobytes()


def test_tree_leaves_the_callers_arrays_writable():
    arrays = {"normal": np.array([[1.0], [0.0], [0.0]]), "intercept": np.zeros((3, 1)),
              "left": np.array([1, -1, -1]), "right": np.array([2, -1, -1]), "size": np.array([0, 1, 1])}
    tree = IsolationTree(**arrays)
    for name, array in arrays.items():
        assert array.flags.writeable
        assert not getattr(tree, name).flags.writeable
        assert np.shares_memory(getattr(tree, name), array)
