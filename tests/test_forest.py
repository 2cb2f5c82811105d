import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eif.evaluation import convergence_curve
from eif.forest import (
    _CHUNK_TREES,
    Forest,
    IsolationTree,
    _check_arrays,
    _columns,
    _draw_splits,
    _margins,
    _prefix_scores,
    _split_margins,
    build_forest,
    build_rotated_forest,
    c_factor,
    height_limit_for,
    path_lengths,
    sample_hyperplane,
    score_batch,
)
from eif.model_io import load_forest, save_forest
from eif.rng import derive_stream, make_rng, subsample
from eif.synthetic import gen_gaussian_blob
from oracles import (
    bounded_integer, check_tree_oracle, document_oracle, draw_level_oracle, draw_split_oracle, forest_oracle,
    grow_oracle, grow_trees, knife_edge_points, leaf_depths, path_length_oracle, score_oracle, tree_from_nested,
)

EULER = 0.5772156649


def wide_scales(dim):
    """Column scales rising from 1e-6 to 1e6 in index order."""
    return 10.0 ** np.linspace(-6, 6, dim)


class TestCFactorFormulas:
    def test_harmonic_estimate_255(self):
        # c(256) = 2 H(255) - 2 * 255 / 256, with H(255) estimated as ln(255) + 0.5772156649
        assert (c_factor(256) + 2.0 * 255 / 256) / 2.0 == pytest.approx(6.1184789, abs=1e-6)

    def test_harmonic_estimate_monotone(self):
        values = [c_factor(n) for n in range(1, 10_002)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_c_factor_bits_are_the_harmonic_formula_in_its_order(self):
        # 2 (ln(n - 1) + gamma) - 2 (n - 1) / n, evaluated in this order, for
        # every n past the exact small cases: each leaf credit keeps its bits.
        for n in range(3, 10_001):
            assert c_factor(n).hex() == (2.0 * (math.log(n - 1) + EULER) - 2.0 * (n - 1) / n).hex(), n

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
            normal, _ = sample_hyperplane(data, 3, make_rng(i))
            assert np.count_nonzero(normal) == 4

    def test_extension_zero_is_axis_parallel(self):
        data = self.node_data(dim=4)
        for i in range(50):
            normal, _ = sample_hyperplane(data, 0, make_rng(i))
            assert np.count_nonzero(normal) == 1

    @pytest.mark.parametrize("dim,level", [(2, 0), (2, 1), (3, 1), (5, 2)])
    def test_nonzero_count_is_level_plus_one(self, dim, level):
        data = self.node_data(dim=dim)
        for i in range(30):
            normal, _ = sample_hyperplane(data, level, make_rng(i))
            assert np.count_nonzero(normal) == level + 1

    def test_degenerate_coordinate_pins_intercept(self):
        data = self.node_data(dim=3)
        data[:, 1] = 4.25
        _, intercept = sample_hyperplane(data, 2, make_rng(3))
        assert intercept[1] == 4.25

    def test_intercept_inside_node_range(self):
        data = self.node_data(n=100, dim=3)
        for i in range(20):
            _, intercept = sample_hyperplane(data, 1, make_rng(i))
            assert np.all(intercept >= data.min(axis=0))
            assert np.all(intercept <= data.max(axis=0))

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            sample_hyperplane(np.zeros((1, 2)), 0, make_rng(1))

    def test_rejects_bad_extension_level(self):
        data = self.node_data(dim=2)
        with pytest.raises(ValueError):
            sample_hyperplane(data, 2, make_rng(1))
        with pytest.raises(ValueError):
            sample_hyperplane(data, -1, make_rng(1))

    def assert_rejected_before_drawing(self, data, level, match):
        rng = make_rng(1)
        with pytest.raises(ValueError, match=match):
            sample_hyperplane(data, level, rng)
        assert rng.random(4).tobytes() == make_rng(1).random(4).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level,match", [
        (1.5, r"^extension_level must be an integer, got float 1\.5$"),
        (True, r"^extension_level must be an integer, got bool True$"),
    ], ids=["float", "bool"])
    def test_rejects_extension_level_that_is_not_an_integer(self, level, match):
        self.assert_rejected_before_drawing(self.node_data(dim=4), level, match)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cells(self, value):
        data = self.node_data(dim=3)
        data[5, 2] = value
        self.assert_rejected_before_drawing(
            data, 1, rf"^node_data contains non-finite value {value} at row 5, column 2$")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data,match", [
        (np.zeros(5), r"^node_data must be 2-D \(rows, dimension\), got shape \(5,\)$"),
        (np.zeros((4, 3, 2)), r"^node_data must be 2-D \(rows, dimension\), got shape \(4, 3, 2\)$"),
        (1.5, r"^node_data must be 2-D \(rows, dimension\), got shape \(\)$"),
        (np.zeros((5, 0)), r"^node_data must have dimension >= 1$"),
        (np.zeros((1, 3)), r"^sample_hyperplane requires at least 2 points$"),
    ], ids=["1-D", "3-D", "scalar", "no-columns", "one-row"])
    def test_rejects_node_data_of_the_wrong_shape(self, data, match):
        self.assert_rejected_before_drawing(data, 0, match)

    @pytest.mark.filterwarnings("error")
    def test_rejects_span_that_overflows(self):
        # numpy's uniform raised OverflowError here; lo + (hi - lo) * u would return inf
        data = np.array([[0.0, 0.0], [1.5e308, 1.0], [-1.5e308, 2.0]])
        self.assert_rejected_before_drawing(
            data, 1, r"^node_data column 0 spans \[-1\.5e\+308, 1\.5e\+308\], whose width overflows float64$")


_corners = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.5, 1e300, -1e300])


@st.composite
def _spans(draw):
    """(lo, hi) per coordinate: finite, hi >= lo, width finite; some with lo == hi."""
    dim = draw(st.integers(1, 20))
    value = st.one_of(_corners, st.floats(-1e307, 1e307, allow_nan=False, allow_infinity=False))
    lo, hi = [], []
    for _ in range(dim):
        a, b = draw(value), draw(value)
        if draw(st.booleans()):
            b = a
        lo.append(min(a, b))
        hi.append(max(a, b))
    return np.array(lo), np.array(hi)


def draw_one_split(stream, dim, n_zero, lo, hi):
    """``_draw_splits`` over the one node of one stream, as rows; the kept
    coordinates it returns must be the normal's nonzero ones, ascending."""
    normal, intercept, kept = _draw_splits([stream], [1], dim, n_zero, lo[:, None], (hi - lo)[:, None])
    assert kept[0].tolist() == np.flatnonzero(normal[0]).tolist()
    return normal[0], intercept[0]


@given(span=_spans(), data=st.data(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_intercept_equals_generator_uniform_bit_for_bit(span, data, seed):
    # numpy's uniform is lower + range * next_double on the same doubles. A
    # numpy built with a fused multiply-add for that line would differ here.
    lo, hi = span
    dim = lo.size
    n_zero = dim - 1 - data.draw(st.integers(0, dim - 1), label="extension_level")
    a, b = make_rng(seed), make_rng(seed)
    normal, intercept = draw_one_split(a, dim, n_zero, lo, hi)
    expected_normal, expected = draw_split_oracle(b, dim, n_zero, lo, hi)
    assert normal.tobytes() == expected_normal.tobytes()
    assert intercept.tobytes() == expected.tobytes()
    assert (intercept[lo == hi] == lo[lo == hi]).all()
    # both streams stand at the same place afterwards
    assert a.random(3).tobytes() == b.random(3).tobytes()
    assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()


class _ZeroFirstNormals:
    """A stream whose first ``zeros`` standard_normal calls return zeros
    (after drawing as usual), so the all-zero redraw runs."""

    def __init__(self, seed, zeros):
        self.stream, self.zeros = make_rng(seed), zeros

    def standard_normal(self, size=None, out=None):
        drawn = self.stream.standard_normal(size, out=out)
        if self.zeros:
            self.zeros -= 1
            drawn[...] = 0.0
        return drawn

    def __getattr__(self, name):
        return getattr(self.stream, name)


@pytest.mark.parametrize("n_zero,zeros", [(0, 1), (2, 1), (2, 3), (3, 1), (3, 3)])
def test_all_zero_survivors_are_redrawn_in_place(n_zero, zeros):
    lo, hi = np.array([-1.0, 0.0, 2.0, 2.0]), np.array([1.0, 5.0, 3.0, 2.0])
    a, b = _ZeroFirstNormals(9, zeros), _ZeroFirstNormals(9, zeros)
    normal, intercept = draw_one_split(a, 4, n_zero, lo, hi)
    expected_normal, expected = draw_split_oracle(b, 4, n_zero, lo, hi)
    assert np.count_nonzero(normal) == 4 - n_zero
    assert normal.tobytes() == expected_normal.tobytes()
    assert intercept.tobytes() == expected.tobytes()
    assert a.random(3).tobytes() == b.random(3).tobytes()


class _ZeroNormalValues(_ZeroFirstNormals):
    """A stream whose first ``zeros`` standard normal values, counted over
    all its calls, come back as zeros (after drawing as usual): the same
    values whether a level's normals are drawn in one call or node by node."""

    def standard_normal(self, size=None, out=None):
        drawn = self.stream.standard_normal(size, out=out)
        flat = drawn.reshape(-1)  # a view: the rows drawn are contiguous
        flat[:self.zeros] = 0.0
        self.zeros = max(0, self.zeros - flat.size)
        return drawn


@pytest.mark.parametrize("n_zero", [0, 2, 3])
def test_redraw_inside_a_multi_node_step(n_zero):
    """The middle stream of a step draws two nodes' splits: both draw
    all-zero survivors, and the first of them draws zeros again on its first
    redraw, each from its own stream. Each stream's rows still equal its
    nodes' splits drawn by the per-node level oracle on a twin stream, and
    every stream stands where its twin does."""
    lo = np.array([[-1.0, 0.0, 1.0, 5.0], [0.0, 2.0, -1.0, 2.0], [2.0, -3.0, 0.5, 0.0], [2.0, 1.0, 1.0, 0.0]])
    span = np.array([[2.0, 1.0, 3.0, 0.5], [5.0, 0.0, 2.0, 1.0], [1.0, 4.0, 0.0, 2.0], [0.0, 1.0, 1.0, 3.0]])
    zeros = 8 + (4 - n_zero)  # two rows of normals, then the first row's first redraw
    streams = [make_rng(3), _ZeroNormalValues(9, zeros), make_rng(4)]
    twins = [make_rng(3), _ZeroNormalValues(9, zeros), make_rng(4)]
    counts = [1, 2, 1]
    normal, intercept, kept = _draw_splits(streams, counts, 4, n_zero, lo, span)
    assert streams[1].zeros == 0
    assert kept.tolist() == [np.flatnonzero(row).tolist() for row in normal]
    rows = np.split(np.arange(4), np.cumsum(counts)[:-1])
    for twin, group in zip(twins, rows):
        spans = [(lo[:, r], lo[:, r] + span[:, r]) for r in group.tolist()]
        for r, (expected_normal, expected) in zip(group.tolist(), draw_level_oracle(twin, 4, n_zero, spans)):
            assert normal[r].tobytes() == expected_normal.tobytes()
            assert intercept[r].tobytes() == expected.tobytes()
    for stream, twin in zip(streams, twins):
        assert bounded_integer(stream, 0, 10) == bounded_integer(twin, 0, 10)
        assert stream.random(3).tobytes() == twin.random(3).tobytes()
        assert stream.standard_normal(3).tobytes() == twin.standard_normal(3).tobytes()


def test_level_0_keeps_the_first_of_equal_largest_entries():
    class Tied(_ZeroFirstNormals):
        def standard_normal(self, size=None, out=None):
            drawn = self.stream.standard_normal(size, out=out)
            drawn[...] = [0.5, -2.0, 2.0, -2.0]
            return drawn

    lo, hi = np.zeros(4), np.ones(4)
    normal, _ = draw_one_split(Tied(9, 0), 4, 3, lo, hi)
    expected, _ = draw_split_oracle(Tied(9, 0), 4, 3, lo, hi)
    assert normal.tolist() == expected.tolist() == [0.0, -2.0, 0.0, 0.0]


def test_level_0_root_axes_are_uniform():
    """Level 0 keeps each node's largest |z| of i.i.d. normals, so every axis
    is equally likely: over the roots of 4,000 seeded 8-D trees the counts
    pass a chi-square test on 7 degrees of freedom at its 0.999 quantile."""
    forest = build_forest(gen_gaussian_blob(200, 8, seed=30), 4000, 4, 0, seed=31)
    axes = [int(np.flatnonzero(tree.normal[0])[0]) for tree in forest.trees]
    counts = np.bincount(axes, minlength=8)
    chi_square = float(((counts - 500.0) ** 2 / 500.0).sum())
    assert chi_square < 24.32, (chi_square, counts.tolist())


def test_intermediate_zero_sets_are_uniform_and_keep_normal_values():
    """An intermediate level zeroes the coordinates of each node's smallest
    uniform keys, drawn apart from the normals. Over 20,000 seeded 4-D nodes
    with 2 zeroes each, the 6 zero sets pass a chi-square test on 5 degrees
    of freedom at its 0.999 quantile, and the kept entries' mean |z| is
    within 0.015 (5 standard errors) of a normal's sqrt(2 / pi). Keeping
    each node's two largest |z| would pass the first check, not the second."""
    root, nodes = make_rng(40), 20_000
    streams = [derive_stream(root, i) for i in range(nodes)]
    normal, _, kept = _draw_splits(streams, [1] * nodes, 4, 2, np.zeros((4, nodes)), np.ones((4, nodes)))
    _, counts = np.unique((normal == 0.0) @ [1, 2, 4, 8], return_counts=True)
    chi_square = float(((counts - nodes / 6) ** 2 / (nodes / 6)).sum())
    assert len(counts) == 6 and chi_square < 20.52, (chi_square, counts.tolist())
    mean_abs = float(np.abs(normal[np.arange(nodes)[:, None], kept]).mean())
    assert abs(mean_abs - math.sqrt(2 / math.pi)) < 0.015, mean_abs


class TestBranchLeft:
    def goes_left(self, x, normal, intercept):
        """The side of the split, from the margin training takes over a
        node's columns of its block and from the margin scoring gathers by
        index, which must agree. Training reads the block, does not change
        it, and reads no column past its active ones: here stale columns of
        huge values, which would overflow or change the margin if read."""
        xt = np.ascontiguousarray(np.array([x], float).T)
        normal, intercept = np.asarray(normal, float), np.asarray(intercept, float)
        gathered = _margins(xt, normal, intercept, np.array([0]))[0]
        wide = np.ascontiguousarray(np.column_stack([xt, np.full((len(xt), 3), 1e308)]))
        before = wide.copy()
        with np.errstate(over="raise", invalid="raise"):
            margins = _split_margins(wide, np.array([0]), normal[None], intercept[None],
                                     np.flatnonzero(normal)[None])
        assert wide.tobytes() == before.tobytes()
        assert len(margins) == 1 and margins[0].hex() == gathered.hex()
        return bool(margins[0] <= 0.0)

    def test_point_on_plane_goes_left(self):
        assert self.goes_left([2.0, 3.0], [1.0, 1.0], [2.0, 3.0]) is True

    def test_positive_margin_goes_right(self):
        assert self.goes_left([3.0, 5.0], [1.0, 0.0], [0.0, 0.0]) is False

    def test_flipping_normal_swaps_side(self):
        assert self.goes_left([3.0, 5.0], [-1.0, 0.0], [0.0, 0.0]) is True

    @pytest.mark.parametrize("full", [True, False])
    def test_margins_of_many_splits_read_only_the_active_columns(self, full):
        """Two splits over the first 7 of 10 columns of a 12-D block, at
        full extension or at 6 nonzero entries a split, give ``_margins``'
        bits for each split's columns; the 3 stale columns hold 1e308."""
        rng = np.random.default_rng(5)
        dim, at = 12, np.array([0, 0, 0, 1, 1, 1, 1])
        block = np.full((dim, 10), 1e308)
        block[:, :7] = rng.normal(size=(dim, 7)) * 10.0 ** rng.integers(-3, 4, size=(dim, 1))
        normal, intercept = rng.normal(size=(2, dim)), rng.normal(size=(2, dim))
        kept = np.tile(np.arange(dim), (2, 1))
        if not full:
            kept = np.sort(np.stack([rng.permutation(dim)[:6] for _ in range(2)]), axis=1)
            mask = np.zeros((2, dim), bool)
            mask[np.arange(2)[:, None], kept] = True
            normal[~mask] = 0.0
        before = block.copy()
        with np.errstate(over="raise", invalid="raise"):
            margins = _split_margins(block, at, normal, intercept, kept)
        assert block.tobytes() == before.tobytes()
        expected = np.concatenate([_margins(block, normal[s], intercept[s], np.flatnonzero(at == s))
                                   for s in range(2)])
        assert margins.tobytes() == expected.tobytes()


def tree_bytes(tree):
    """A tree's node arrays as bytes, and its angle."""
    return [getattr(tree, name).tobytes() for name in ("normal", "intercept", "left", "right", "size")], tree.angle


def leaf_sizes(tree):
    return tree.size[tree.left < 0].tolist()


def max_depth(tree):
    return max(leaf_depths(tree).values())


def is_single_leaf(tree, size):
    return tree.left.tolist() == [-1] and tree.size.tolist() == [size]


class TestBuildTree:
    def test_singleton_becomes_leaf(self):
        tree = grow_trees(_columns(np.array([[1.0, 2.0]])), [make_rng(1)], limit=8, extension_level=1)[0]
        assert is_single_leaf(tree, 1)

    def test_identical_points_become_leaf(self):
        data = np.tile([1.5, -2.0], (20, 1))
        tree = grow_trees(_columns(data), [make_rng(1)], limit=8, extension_level=1)[0]
        assert is_single_leaf(tree, 20)

    def test_height_limit_reached_becomes_leaf(self):
        data = gen_gaussian_blob(10, 2, seed=1)
        tree = grow_trees(_columns(data), [make_rng(1)], limit=0, extension_level=1)[0]
        assert is_single_leaf(tree, 10)

    def test_four_points_depth_two(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = grow_trees(_columns(data), [make_rng(3)], limit=2, extension_level=0)[0]
        assert max_depth(tree) == 2
        assert sum(leaf_sizes(tree)) == 4

    def test_leaf_mass_conservation(self):
        data = gen_gaussian_blob(256, 3, seed=4)
        tree = grow_trees(_columns(data), [make_rng(9)], limit=8, extension_level=2)[0]
        assert sum(leaf_sizes(tree)) == 256

    def test_nodes_are_in_preorder(self):
        tree = grow_trees(_columns(gen_gaussian_blob(64, 2, seed=5)), [make_rng(2)], limit=6, extension_level=1)[0]
        internal = np.flatnonzero(tree.left >= 0)
        assert tree.left[internal].tolist() == (internal + 1).tolist()
        assert np.all(tree.right[internal] > tree.left[internal])
        assert sorted(leaf_depths(tree)) == np.flatnonzero(tree.left < 0).tolist()

    def test_deterministic_replay(self, tmp_path):
        data = gen_gaussian_blob(256, 2, seed=11)
        f1 = build_forest(data, 3, 256, 1, seed=5)
        f2 = build_forest(data, 3, 256, 1, seed=5)
        assert document_oracle(f1) == document_oracle(f2)


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
    ("psi-1", lambda: forest_of(two_leaves(), psi=1),
     ValueError, r"^psi must be in \[2, 2\*\*63\), got 1$"),
    ("psi-2**63", lambda: forest_of(two_leaves(), psi=2**63),
     ValueError, r"^psi must be in \[2, 2\*\*63\), got 9223372036854775808$"),
    ("psi-float", lambda: forest_of(two_leaves(), psi=2.0),
     ValueError, "psi must be an integer, got float 2.0"),
    ("extension-level-bool", lambda: forest_of(two_leaves(), extension_level=True),
     ValueError, "extension_level must be an integer, got bool True"),
    ("seed-bool", lambda: forest_of(two_leaves(), seed=True),
     ValueError, "seed must be an integer, got bool True"),
    ("trees-append", lambda: forest_of(two_leaves()).trees.append(two_leaves(angle=0.5)),
     AttributeError, "append"),
    ("trees-assign", lambda: setattr(forest_of(two_leaves()), "trees", (two_leaves(angle=0.5),)),
     AttributeError, "cannot assign to field 'trees'"),
    ("replace-rechecks", lambda: dataclasses.replace(forest_of(two_leaves()), extension_level=0),
     ValueError, "node 0 of tree 0 has 2 nonzero normal entries, expected 1"),
    # node arrays that disagree in kind or shape; each used to pass, or fail with a numpy error naming no tree
    ("intercept-one-column", lambda: forest_of(dataclasses.replace(two_leaves(), intercept=np.zeros((3, 1)))),
     ValueError, r"^tree 0 has intercept of shape \(3, 1\), expected \(3, 2\)$"),
    ("normal-one-row", lambda: forest_of(dataclasses.replace(two_leaves(), normal=np.ones((1, 2)))),
     ValueError, r"^tree 0 has normal of shape \(1, 2\), expected 2-D with 3 row\(s\), one per node$"),
    ("right-one-entry", lambda: forest_of(dataclasses.replace(two_leaves(), right=np.array([2]))),
     ValueError, r"^tree 0 has right of shape \(1,\), expected 1-D with 3 row\(s\), one per node$"),
    ("normal-1-d", lambda: forest_of(dataclasses.replace(two_leaves(), normal=np.ones(3))),
     ValueError, r"^tree 0 has normal of shape \(3,\), expected 2-D with 3 row\(s\), one per node$"),
    ("intercept-1-d", lambda: forest_of(dataclasses.replace(two_leaves(), intercept=np.zeros(3))),
     ValueError, r"^tree 0 has intercept of shape \(3,\), expected 2-D with 3 row\(s\), one per node$"),
    ("left-float", lambda: forest_of(dataclasses.replace(two_leaves(), left=np.array([1.0, -1.0, -1.0]))),
     ValueError, r"^tree 0 has left of dtype float64, expected integer values$"),
    ("second-tree-normal-1-d",
     lambda: Forest(trees=[two_leaves(), dataclasses.replace(two_leaves(), normal=np.ones(3))], psi=2,
                    extension_level=1, seed=0),
     ValueError, r"^tree 1 has normal of shape \(3,\), expected 2-D with 3 row\(s\), one per node$"),
    ("left-float-list", lambda: forest_of(IsolationTree(normal=[[0.0]], intercept=[[0.0]], left=[-1.0], right=[-1],
                                                        size=[2]), extension_level=0),
     ValueError, r"^tree 0 has left of dtype float64, expected integer values$"),
    ("no-nodes", lambda: forest_of(IsolationTree(normal=np.zeros((0, 2)), intercept=np.zeros((0, 2)),
                                                 left=np.zeros(0, dtype=np.int64), right=np.zeros(0, dtype=np.int64),
                                                 size=np.zeros(0, dtype=np.int64))),
     ValueError, r"^tree 0 has left of shape \(0,\), expected 1-D with at least 1 row\(s\), one per node$"),
    # angles that would not save: each used to raise a bare TypeError, or to write a file that does not load
    ("angle-str", lambda: forest_of(two_leaves(normal=(1.0, 0.0), angle="x"), extension_level=0),
     ValueError, r"^tree 0 has angle 'x', expected a real number other than a bool$"),
    ("angle-bool", lambda: forest_of(two_leaves(normal=(1.0, 0.0), angle=True), extension_level=0),
     ValueError, r"^tree 0 has angle True, expected a real number other than a bool$"),
    # an int beyond the float range used to raise a bare OverflowError when the tree was made
    ("angle-int-beyond-float", lambda: forest_of(two_leaves(normal=(1.0, 0.0), angle=10**400), extension_level=0),
     ValueError, r"^tree 0 has non-finite angle inf$"),
    ("angle-minus-int-beyond-float",
     lambda: forest_of(two_leaves(normal=(1.0, 0.0), angle=-10**400), extension_level=0),
     ValueError, r"^tree 0 has non-finite angle -inf$"),
    # a longdouble split used to save as text that no JSON reader takes
    ("normal-longdouble", lambda: forest_of(dataclasses.replace(two_leaves(), normal=two_leaves().normal.astype(
        np.longdouble), intercept=two_leaves().intercept.astype(np.longdouble))),
     ValueError, rf"^tree 0 has normal of dtype {np.dtype(np.longdouble)}, "
                 r"expected floating values of at most 64 bits$"),
    # five leaves of 2**62 sum to psi + 2**64: an int64 sum would wrap to exactly psi
    ("leaf-mass-beyond-int64", lambda: forest_of(tree_from_nested(
        ([1.0], [0.0], 2**62, ([1.0], [0.0], 2**62, ([1.0], [0.0], 2**62, ([1.0], [0.0], 2**62, 2**62))))),
        psi=2**62, extension_level=0),
     ValueError, r"^tree 0 has leaf sizes summing to 23058430092136939520, expected psi=4611686018427387904$"),
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
        assert [tree["height_limit"] for tree in document_oracle(f)["trees"]] == [8] * 20

    def test_variant_labels(self, blob_2d):
        assert build_forest(blob_2d, 2, 64, 0, seed=1).variant == "standard-equivalent"
        assert build_forest(blob_2d, 2, 64, 1, seed=1).variant == "extended"

    def test_rejects_psi_above_data(self):
        data = gen_gaussian_blob(100, 2, seed=1)
        with pytest.raises(ValueError, match="insufficient data"):
            build_forest(data, 5, 256, 1, seed=1)

    def test_rejects_psi_above_data_before_making_room_for_it(self):
        # a block of 2**60 points would not fit in memory
        with pytest.raises(ValueError, match="insufficient data"):
            build_forest(gen_gaussian_blob(100, 2, seed=1), 5, 2**60, 1, seed=1)

    def test_rejects_bad_extension(self, blob_2d):
        with pytest.raises(ValueError, match="extension_level"):
            build_forest(blob_2d, 5, 64, 2, seed=1)

    @pytest.mark.parametrize("t,psi,match", [
        (100, 256.0, r"^psi must be an integer, got float 256\.0$"),
        (2.5, 64, r"^t must be an integer, got float 2\.5$"),
    ], ids=["psi-float", "t-float"])
    def test_settings_are_checked_before_any_tree_grows(self, t, psi, match):
        data = gen_gaussian_blob(3000, 16, seed=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            build_forest(data, t, psi, 15, 1)
        # the check itself takes milliseconds; growing the 100 trees first took 0.36-1.2 s on 2 cores
        assert time.perf_counter() - start < 0.1

    def test_rejects_nonfinite(self):
        data = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            build_forest(data, 2, 2, 0, seed=1)

    def test_rejects_sample_whose_span_overflows(self):
        data = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5], [1.0, 2.0]])
        with pytest.raises(ValueError, match=r"column 0 spans \[-1e\+308, 1e\+308\]"):
            build_forest(data, 2, 4, 1, seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_training_margin_overflow_is_an_error_not_a_warning(self):
        # Column 0 spans 1.6e308, a finite width, but (x - p) * n passes the float limit for |n| > 1.1.
        data = np.array([[-8e307, 0.0], [8e307, 1.0], [0.0, 2.0], [1e307, 3.0]] * 8)
        with pytest.raises(ValueError, match="a split margin overflowed float64 while training"):
            build_forest(data, 20, 8, 1, 1)

    def test_rejects_an_empty_forest(self):
        with pytest.raises(ValueError, match="forest has no trees"):
            Forest(trees=[], psi=4, extension_level=0, seed=1)

    def test_rejects_trees_of_different_dimensions(self):
        two = build_forest(gen_gaussian_blob(64, 2, seed=1), 3, 32, 1, seed=1)
        three = build_forest(gen_gaussian_blob(64, 3, seed=1), 3, 32, 1, seed=1)
        with pytest.raises(ValueError, match="tree 3 splits in dimension 3, tree 0 in dimension 2"):
            Forest(trees=two.trees + three.trees, psi=32, extension_level=1, seed=1)

    @pytest.mark.parametrize("entry,kind", [(None, "NoneType"), ((1, 2), "tuple"), ({"left": [-1]}, "dict")])
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_an_entry_that_is_not_a_tree(self, entry, kind, at):
        trees = list(build_forest(gen_gaussian_blob(64, 2, seed=1), 1, 16, 1, seed=1).trees)
        trees.insert(at, entry)
        with pytest.raises(ValueError, match=rf"^tree {at} is {kind}, expected an IsolationTree$"):
            Forest(trees=trees, psi=16, extension_level=1, seed=1)

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

    @pytest.mark.parametrize("kind", ["level-0", "full", "rotated"])
    def test_trees_across_a_chunk_boundary_are_a_prefix(self, blob_2d, kind):
        def build(t):
            if kind == "rotated":
                return build_rotated_forest(blob_2d, t, 32, seed=4)
            return build_forest(blob_2d, t, 32, 0 if kind == "level-0" else 1, seed=4)

        shorter, longer = build(_CHUNK_TREES).trees, build(_CHUNK_TREES + 1).trees[:_CHUNK_TREES]
        assert [tree_bytes(tree) for tree in longer] == [tree_bytes(tree) for tree in shorter]

    def test_tree_build_order_is_irrelevant(self, blob_2d):
        f = build_forest(blob_2d, 8, 128, 1, seed=21)
        root = make_rng(21)
        reversed_trees = [None] * 8
        for i in reversed(range(8)):
            stream = derive_stream(root, i)
            sample = _columns(subsample(stream, blob_2d, 128))
            reversed_trees[i] = grow_trees(sample, [stream], limit=7, extension_level=1)[0]
        g = Forest(trees=reversed_trees, psi=128, extension_level=1, seed=21)
        assert json.dumps(document_oracle(f)) == json.dumps(document_oracle(g))


def mean_path_length(x, forest):
    """E[h(x)] of each row, as ``score_batch`` forms it from the tree-order sum."""
    lengths = path_lengths(x, forest)
    total = np.zeros(len(lengths))
    for k in range(forest.t):
        total += lengths[:, k]
    return total / forest.t


class TestPathLengthAndScore:
    def test_root_leaf_path(self):
        # depth 0 plus the credit of a root leaf holding the whole sample
        forest = forest_of(tree_from_nested(2, dimension=1), extension_level=0)
        assert path_lengths(np.array([[1.0]]), forest)[0, 0] == 0.0 + c_factor(2)

    def test_depth_one_both_leaves(self):
        forest = forest_of(tree_from_nested(([1.0], [0.0], 1, 1)), extension_level=0)
        assert path_lengths(np.array([[-3.0], [3.0]]), forest).tolist() == [[1.0], [1.0]]

    def test_leaf_credit_uses_c_factor(self):
        # depth-8 chain ending in a size-10 leaf; psi 129 has height limit 8
        node = 10
        for right in [0] * 7 + [119]:
            node = ([1.0], [1e9], node, right)
        forest = forest_of(tree_from_nested(node), psi=129, extension_level=0)
        expected = 8 + c_factor(10)
        assert path_lengths(np.array([[0.0]]), forest)[0, 0] == pytest.approx(expected, abs=1e-12)
        assert c_factor(10) == pytest.approx(3.7489, abs=1e-4)

    def test_path_length_dimension_mismatch(self, small_forest):
        with pytest.raises(ValueError, match="dimension mismatch"):
            path_lengths(np.zeros((1, 3)), small_forest)

    def test_root_leaf_tree_still_checks_dimension(self):
        forest = forest_of(tree_from_nested(256, dimension=2), psi=256)
        with pytest.raises(ValueError, match=r"^dimension mismatch: data has 5 columns, forest dimension is 2$"):
            path_lengths(np.zeros((1, 5)), forest)

    def test_single_tree_forest_mean(self, blob_2d):
        f = build_forest(blob_2d, 1, 64, 1, seed=2)
        x = np.array([[0.5, -0.5]])
        assert mean_path_length(x, f)[0] == path_lengths(x, f)[0, 0]

    def test_expected_depth_is_mean_and_order_free(self, small_forest):
        x = np.array([[1.0, 1.0]])
        per_tree = path_lengths(x, small_forest)[0]
        assert mean_path_length(x, small_forest)[0] == pytest.approx(np.mean(per_tree), rel=1e-15)
        shuffled = dataclasses.replace(small_forest, trees=tuple(reversed(small_forest.trees)))
        assert mean_path_length(x, shuffled)[0] == pytest.approx(
            mean_path_length(x, small_forest)[0], rel=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_a_coordinate_the_split_ignores_does_not_misroute(self):
        # The split reads column 1 only; in column 0, 1e308 - (-1e308) overflows.
        forest = forest_of(tree_from_nested(([0.0, 1.0], [-1e308, 0.5], 1, 7)), psi=8, extension_level=0)
        far, near = score_batch(np.array([[1e308, 0.0], [0.0, 0.0]]), forest)
        assert far.hex() == near.hex()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("measure,rows", [
        pytest.param(measure, rows, id=name + suffix)
        # at 3-D full extension, the rows reach each root as one block
        for rows, suffix in [([[1e308, 1e308], [1e308, -1e308]], ""),
                             (list(itertools.product([1e308, -1e308], repeat=3)), "-3-D")]
        for name, measure in [
            ("score_batch", lambda data, x: score_batch(x, build_forest(data, 10, 64, data.shape[1] - 1, 1))),
            ("convergence_curve", lambda data, x: convergence_curve(data, x, [5, 10], 64, data.shape[1] - 1, 1)),
        ]
    ])
    def test_margin_overflow_is_an_error_not_a_warning(self, measure, rows):
        data = gen_gaussian_blob(500, len(rows[0]), seed=1)
        with pytest.raises(ValueError, match="a split margin overflowed float64"):
            measure(data, np.array(rows))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("measure,rows", [
        pytest.param(measure, rows, id=measure.__name__ + suffix)
        for rows, suffix in [([[2.0, -2.0]], ""), ([[2.0, -2.0, 0.0], [2.0, -2.0, 0.0]], "-3-D")]
        for measure in (score_batch, path_lengths)
    ])
    def test_opposite_infinite_terms_do_not_route_by_a_nan_margin(self, measure, rows):
        # (2, -2, ...) lies exactly on the split, but the first two terms overflow:
        # +inf + -inf is NaN, and NaN <= 0 is false, which would send the point
        # right. At 3-D the two rows reach the root as one block.
        dim = len(rows[0])
        forest = forest_of(tree_from_nested(([1e308] * dim, [0.0] * dim, 1, 1)), psi=2, extension_level=dim - 1)
        with pytest.raises(ValueError, match="a split margin overflowed float64"):
            measure(np.array(rows), forest)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_overflow_in_a_block_is_an_error(self):
        # Every term is finite, each row's sum is not, and the rows reach the
        # root split as one block: a margin of +-inf must not route them.
        forest = forest_of(tree_from_nested(([1.0] * 3, [0.0] * 3, 1, 1)), psi=2, extension_level=2)
        with pytest.raises(ValueError, match="a split margin overflowed float64"):
            score_batch(np.array([[1e308] * 3, [-1e308] * 3]), forest)

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
        assert score_batch(x[np.newaxis, :], small_forest)[0] == score_oracle(x, small_forest)

    def test_batch_equals_loop_bitwise(self, small_forest, blob_2d):
        pts = blob_2d[:100]
        batch = score_batch(pts, small_forest)
        loop = np.array([score_batch(p[np.newaxis, :], small_forest)[0] for p in pts])
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

    def test_forest_score_is_score_batch(self, small_forest, blob_2d):
        rotated = build_rotated_forest(blob_2d, 20, 128, seed=7)
        probes = gen_gaussian_blob(200, 2, sigma=3.0, seed=8)
        for forest in (small_forest, rotated):
            assert forest.score(probes).tobytes() == score_batch(probes, forest).tobytes()


class TestPathLengths:
    @pytest.fixture(scope="class", params=["level-0", "full", "rotated"])
    def forest_and_probes(self, request, blob_2d):
        if request.param == "rotated":
            forest = build_rotated_forest(blob_2d, 12, 64, seed=8)
        else:
            forest = build_forest(blob_2d, 12, 64, 0 if request.param == "level-0" else 1, seed=8)
        probes = np.vstack([blob_2d[:40], 3.0 * blob_2d[40:50], [tree.intercept[0] for tree in forest.trees]])
        return forest, probes

    def test_columns_equal_the_scalar_oracle_bitwise(self, forest_and_probes):
        forest, probes = forest_and_probes
        lengths = path_lengths(probes, forest)
        assert lengths.shape == (len(probes), forest.t) and lengths.dtype == np.float64
        for k, tree in enumerate(forest.trees):
            assert [v.hex() for v in lengths[:, k].tolist()] == [path_length_oracle(p, tree).hex() for p in probes]

    def test_columns_added_in_tree_order_are_the_depth_totals(self, forest_and_probes):
        forest, probes = forest_and_probes
        lengths = path_lengths(probes, forest)
        total = np.zeros(len(probes))
        for k in range(forest.t):
            total += lengths[:, k]
        expected = np.array([2.0 ** (-(v / forest.t) / c_factor(forest.psi)) for v in total.tolist()])
        assert score_batch(probes, forest).tobytes() == expected.tobytes()

    def test_prefix_scores_are_the_scores_of_each_prefix_forest(self, blob_2d):
        forest = build_forest(blob_2d, 12, 64, 1, seed=8)
        probes = np.vstack([blob_2d[:40], 3.0 * blob_2d[40:50]])
        yielded = list(_prefix_scores(_columns(probes), iter(forest.trees), forest.normalizer, [1, 5, 12]))
        assert len(yielded) == 3
        for t, scores in zip([1, 5, 12], yielded):
            prefix = Forest(trees=forest.trees[:t], psi=64, extension_level=1, seed=8)
            assert scores.tobytes() == score_batch(probes, prefix).tobytes()

    def test_empty_input(self, small_forest):
        out = path_lengths(np.empty((0, 2)), small_forest)
        assert out.shape == (0, small_forest.t) and out.dtype == np.float64

    @pytest.mark.parametrize("data", [
        np.zeros((4, 3)), np.empty((0, 3)), np.array([[0.0, np.nan]]), np.array([[0.0, 1.0], [-np.inf, 0.0]]),
        np.zeros(2), np.zeros((2, 0)),
    ], ids=["wrong-width", "empty-wrong-width", "nan", "minus-inf", "1-d", "no-columns"])
    def test_input_errors_are_worded_as_score_batch_words_them(self, small_forest, data):
        with pytest.raises(ValueError) as scored:
            score_batch(data, small_forest)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scored.value))}$"):
            path_lengths(data, small_forest)


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
        feat = bounded_integer(rng, 0, dim)
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
    assert document_oracle(a) == document_oracle(b)


@given(
    seed=st.integers(0, 2**32),
    dim=st.integers(1, 5),
    kind=st.sampled_from(["level-0", "full", "rotated", "wide-16-full"]),
    psi=st.integers(2, 40),
)
@settings(max_examples=50, deadline=None)
def test_score_batch_equals_scalar_oracle_bitwise(seed, dim, kind, psi):
    if kind == "rotated":
        dim = 2
    if kind == "wide-16-full":
        dim = 16
    scale = wide_scales(dim) if kind == "wide-16-full" else 1.0
    data = gen_gaussian_blob(60, dim, seed=seed % 997) * scale
    probes = np.vstack([gen_gaussian_blob(15, dim, seed=seed % 991 + 1) * scale, 4.0 * data[:5]])
    if kind == "rotated":
        forest = build_rotated_forest(data, 5, psi, seed=seed)
    else:
        forest = build_forest(data, 5, psi, 0 if kind == "level-0" else dim - 1, seed=seed)
    # each root's intercept lies on its split plane: the margin tie goes left
    probes = np.vstack([probes, [tree.intercept[0] for tree in forest.trees]])
    # from 9 nonzero normal entries, points whose side at a root depends on the summation order
    lo, hi = data.min(axis=0), data.max(axis=0)
    probes = np.vstack([probes] + [knife_edge_points(tree.normal[0], tree.intercept[0], lo, hi)
                                   for tree in forest.trees])
    batch = score_batch(probes, forest)
    assert [v.hex() for v in batch.tolist()] == [score_oracle(p, forest).hex() for p in probes]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_lone_knife_edge_points_score_as_the_scalar_oracle(seed):
    """Points whose side of a root split depends on the summation order score
    bit for bit as the scalar oracle alone, as a pair with themselves and in
    a batch. Full extension gathers a node's points as one block; reduced
    for a lone point, its (16, 1) block would be summed pairwise."""
    dim = 16
    data = gen_gaussian_blob(200, dim, seed=seed) * wide_scales(dim)
    forest = build_forest(data, 20, 64, dim - 1, seed=seed)
    lo, hi = data.min(axis=0), data.max(axis=0)
    points = np.vstack([knife_edge_points(tree.normal[0], tree.intercept[0], lo, hi) for tree in forest.trees])
    assert len(points) >= 10
    expected = [score_oracle(p, forest).hex() for p in points]
    assert [score_batch(p[np.newaxis, :], forest)[0].hex() for p in points] == expected
    for p, want in zip(points, expected):
        assert [v.hex() for v in score_batch(np.vstack([p, p]), forest).tolist()] == [want, want]
    assert [v.hex() for v in score_batch(points, forest).tolist()] == expected


@given(seed=st.integers(0, 2**32), dim=st.integers(9, 20), full=st.booleans())
@settings(max_examples=30, deadline=None)
def test_grow_adds_margin_terms_in_index_order(seed, dim, full):
    """Training's node arrays equal the row-major oracle's on wide-scale data
    that holds points whose side of the root split depends on the order the
    margin terms are added in (from 9 nonzero normal entries; the points lie
    inside the data's box, so the root draws the same split)."""
    level = dim - 1 if full else dim // 2
    data = gen_gaussian_blob(64, dim, seed=seed % 1000) * wide_scales(dim)
    normal, intercept = sample_hyperplane(data, level, make_rng(seed))
    data = np.vstack([data, knife_edge_points(normal, intercept, data.min(axis=0), data.max(axis=0))])
    limit = height_limit_for(len(data))
    grown = grow_trees(_columns(data), [make_rng(seed)], limit=limit, extension_level=level)[0]
    oracle = grow_oracle(data, limit=limit, extension_level=level, rng=make_rng(seed))
    for name in ("normal", "intercept", "left", "right", "size"):
        assert getattr(grown, name).tobytes() == getattr(oracle, name).tobytes(), name


@pytest.mark.parametrize("t", [1, _CHUNK_TREES - 1, _CHUNK_TREES, _CHUNK_TREES + 1])
@pytest.mark.parametrize("kind", ["level-0", "level-1", "full", "rotated", "duplicates"])
def test_lockstep_trees_equal_trees_grown_alone(t, kind):
    """Every tree of a chunked build, its trees grown together level by
    level, equals the one grown alone by the breadth-first oracle, byte for
    byte, on either side of a chunk boundary."""
    data = gen_gaussian_blob(400, 3, seed=t)
    if kind == "duplicates":
        data = np.round(data / 2)  # about 30% of the rows are the origin: nodes of copies of one point
    rotated = kind == "rotated"
    if rotated:
        data = data[:, :2]
    level = {"level-0": 0, "rotated": 0, "level-1": 1}.get(kind, data.shape[1] - 1)
    built = build_rotated_forest(data, t, 32, seed=t) if rotated else build_forest(data, t, 32, level, seed=t)
    oracle = forest_oracle(data, t, 32, level, seed=t, rotated=rotated)
    assert [tree_bytes(tree) for tree in built.trees] == [tree_bytes(tree) for tree in oracle.trees]
    if kind == "duplicates":
        limit = height_limit_for(32)
        assert any(tree.size[k] > 1 and depth < limit
                   for tree in built.trees for k, depth in leaf_depths(tree).items())


def test_chunk_grows_in_one_step_per_depth(monkeypatch):
    """A 100-tree chunk at psi 256 draws its splits in at most one
    ``_draw_splits`` call per depth below the height limit, whichever the
    level, and in each call every stream draws once (a group of rows)."""
    calls = []

    def counting(streams, counts, *args):
        calls.append(len(streams))
        assert len(set(map(id, streams))) == len(streams) == len(counts)
        return _draw_splits(streams, counts, *args)

    monkeypatch.setattr("eif.forest._draw_splits", counting)
    for dim, level in ((8, 0), (2, 1), (16, 15)):
        calls.clear()
        build_forest(gen_gaussian_blob(2000, dim, seed=dim), _CHUNK_TREES, 256, level, seed=3)
        assert 1 <= len(calls) <= height_limit_for(256) == 8
        assert calls[0] == _CHUNK_TREES


def test_build_memory_is_bounded_by_its_point_block():
    """Building 100 trees at psi 256 from 20,000 rows, 16-D at full
    extension and 8-D at level 0, peaks (tracemalloc) at no more than 2.8
    times the (dimension, t * psi) float64 point block the chunk grows on:
    the grower reorders the block in place, with no per-level copy of it,
    and the block and the grower's temporaries are freed before the node
    arrays are made, into which each split row is written once. Under numpy
    2.4.6 it read 2.28 and 2.49 times (2.50 and 2.49 while one function grew
    the trees and made their arrays). The grower that copied each level's
    points read 3.52 and 3.49, that grower freeing the block 3.15 and 3.40,
    and this one with the block kept alive through ``_tree_arrays`` 3.09 and
    2.99."""
    for dim, level in ((16, 15), (8, 0)):
        data = gen_gaussian_blob(20_000, dim, seed=1)
        build_forest(data, 2, 256, level, seed=1)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            build_forest(data, 100, 256, level, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = dim * 100 * 256 * 8
        assert peak <= 2.8 * block, (dim, level, peak / block)


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


def test_tree_from_lists_is_held_as_read_only_arrays():
    tree = IsolationTree(normal=[[0.0]], intercept=[[0.0]], left=[-1], right=[-1], size=[2])
    assert all(not getattr(tree, name).flags.writeable for name in ("normal", "intercept", "left", "right", "size"))
    forest = Forest(trees=[tree], psi=2, extension_level=0, seed=0)
    assert score_batch([[0.5]], forest).tolist() == [0.5]  # depth 0 plus c(2) = 1, over c(2) = 1


def tree_by_tree_fault(trees, psi, extension_level):
    """The message of the first fault the tree-by-tree checks find in
    ``trees``, or None: per tree, its node arrays (``_check_arrays``, as wide
    as tree 0's normal), the angle-mix test, then ``check_tree_oracle``."""
    for k, tree in enumerate(trees):
        try:
            _check_arrays(tree, f"tree {k}", trees[0].normal.shape[1] if k else None)
            if (tree.angle is None) != (trees[0].angle is None):
                return (f"tree {k} has angle {tree.angle} but tree 0 has angle {trees[0].angle}: "
                        "either every tree is rotated or none is")
            check_tree_oracle(tree, f"tree {k}", psi, extension_level + 1, height_limit_for(psi))
        except ValueError as err:
            return str(err)
    return None


def _replace_entry(tree, name, k, value):
    array = getattr(tree, name).copy()
    array[k] = value
    return dataclasses.replace(tree, **{name: array})


def _first_leaf(tree):
    return int(np.flatnonzero(tree.left < 0)[0])


_FAULTS = {  # tree -> the same tree with one fault
    "child-out-of-range": lambda tree: _replace_entry(tree, "right", 0, len(tree.left) + 3),
    "identical-children": lambda tree: _replace_entry(tree, "right", 0, tree.left[0]),
    "shared-subtree": lambda tree: _replace_entry(tree, "right", 0, 2),
    "unreachable-node": lambda tree: _replace_entry(tree, "left", 0, -1),
    "leaf-mass": lambda tree: _replace_entry(tree, "size", _first_leaf(tree), tree.size[_first_leaf(tree)] + 1),
    "negative-size": lambda tree: _replace_entry(tree, "size", _first_leaf(tree), -1),
    "nan-split": lambda tree: _replace_entry(tree, "intercept", 0, np.nan),
    "nonzero-count": lambda tree: _replace_entry(tree, "normal", 0, 0.0),
    "angle": lambda tree: dataclasses.replace(tree, angle=0.5),
    "float-left": lambda tree: dataclasses.replace(tree, left=tree.left.astype(np.float64)),
    "narrow-normal": lambda tree: dataclasses.replace(tree, normal=tree.normal[:, :-1]),
}


@pytest.fixture(scope="module")
def forest_250():
    """250 trees, in three chunks of the Forest checks."""
    return build_forest(gen_gaussian_blob(300, 3, seed=4), 250, 32, 1, seed=6)


@pytest.mark.parametrize("faults,named", [
    ({0: "child-out-of-range"}, 0),
    ({150: "leaf-mass"}, 150),
    ({249: "nan-split"}, 249),
    ({200: "shared-subtree"}, 200),
    ({120: "identical-children", 180: "negative-size"}, 120),
    ({120: "unreachable-node", 180: "nonzero-count"}, 120),
    ({130: "angle", 140: "leaf-mass"}, 130),
    ({99: "nonzero-count", 100: "child-out-of-range"}, 99),
    ({30: "nan-split", 130: "float-left"}, 30),
    ({130: "float-left", 140: "leaf-mass"}, 130),
    ({120: "shared-subtree", 160: "narrow-normal"}, 120),
    ({99: "leaf-mass", 100: "narrow-normal"}, 99),
])
def test_chunked_checks_name_the_fault_the_tree_by_tree_checks_name(forest_250, faults, named):
    trees = list(forest_250.trees)
    for k, fault in faults.items():
        trees[k] = _FAULTS[fault](trees[k])
    expected = tree_by_tree_fault(trees, 32, 1)
    assert re.search(rf"\btree {named}\b", expected)
    with pytest.raises(ValueError) as info:
        Forest(trees=trees, psi=32, extension_level=1, seed=6)
    assert str(info.value) == expected


@pytest.mark.parametrize("change", ["leaf-row-nan", "int32-arrays", "numpy-float-angle"])
def test_chunked_checks_pass_what_the_tree_by_tree_checks_pass(forest_250, change):
    """Trees that are valid though not as grown pass the chunked checks as
    they pass the tree-by-tree ones: a NaN in a leaf row, which no check
    reads, index arrays of another integer type, a rotated forest's angles
    as numpy floats."""
    trees, level = list(forest_250.trees), 1
    if change == "leaf-row-nan":
        trees[170] = _replace_entry(trees[170], "normal", _first_leaf(trees[170]), np.nan)
    elif change == "int32-arrays":
        trees[170] = dataclasses.replace(trees[170], left=trees[170].left.astype(np.int32),
                                         right=trees[170].right.astype(np.int32))
    else:
        rotated = build_rotated_forest(gen_gaussian_blob(300, 2, seed=4), 120, 32, seed=6)
        trees, level = [dataclasses.replace(tree, angle=np.float64(tree.angle)) for tree in rotated.trees], 0
    assert tree_by_tree_fault(trees, 32, level) is None
    assert Forest(trees=trees, psi=32, extension_level=level, seed=6).t == len(trees)


def test_forest_checks_hold_one_chunk_of_trees_at_a_time():
    trees = build_forest(gen_gaussian_blob(1000, 4, seed=1), 500, 64, 3, seed=1).trees
    peaks = []
    for t in (100, 500):
        tracemalloc.start()
        try:
            Forest(trees=trees[:t], psi=64, extension_level=3, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("angle", [np.float32(0.5), 1], ids=["float32", "int"])
def test_a_real_angle_is_held_as_a_float_and_saves(tmp_path, angle):
    forest = forest_of(two_leaves(normal=(1.0, 0.0), angle=angle), extension_level=0)
    assert type(forest.trees[0].angle) is float and forest.trees[0].angle == float(angle)
    save_forest(forest, tmp_path / "m.json")
    loaded = load_forest(tmp_path / "m.json")
    assert loaded.trees[0].angle == float(angle)
    x = gen_gaussian_blob(50, 2, seed=3)
    assert score_batch(x, loaded).tobytes() == score_batch(x, forest).tobytes()


def test_index_arrays_of_any_integer_dtype_are_checked_alike(forest_250):
    """Index arrays of narrower integer types, and uint64 sizes, pass as
    int64 ones do. uint64 children hold no leaf (-1 becomes 2**64 - 1), and
    the first such child is named as the tree-by-tree checks name it, also
    beside signed children of another width."""
    trees = list(forest_250.trees[95:105])
    trees[3] = dataclasses.replace(trees[3], left=trees[3].left.astype(np.int8),
                                   right=trees[3].right.astype(np.int16), size=trees[3].size.astype(np.uint64))
    assert tree_by_tree_fault(trees, 32, 1) is None
    assert Forest(trees=trees, psi=32, extension_level=1, seed=6).t == 10
    trees[6] = dataclasses.replace(trees[6], left=trees[6].left.astype(np.uint64),
                                   right=trees[6].right.astype(np.uint64))
    expected = tree_by_tree_fault(trees, 32, 1)
    assert "has child index 18446744073709551615 out of range" in expected
    with pytest.raises(ValueError) as info:
        Forest(trees=trees, psi=32, extension_level=1, seed=6)
    assert str(info.value) == expected
    trees[6] = dataclasses.replace(trees[6], right=forest_250.trees[101].right.astype(np.int8))
    expected = tree_by_tree_fault(trees, 32, 1)
    assert "has child index 18446744073709551615 out of range" in expected
    with pytest.raises(ValueError) as info:
        Forest(trees=trees, psi=32, extension_level=1, seed=6)
    assert str(info.value) == expected


@pytest.fixture(scope="module")
def edge_trees():
    """Trees 0 to _CHUNK_TREES + 2 of a forest grown at psi 8, and six trees
    grown at psi 16 whose leaf sizes are moved to sum to 8: at psi 8 they
    are deeper than the height limit, and only that."""
    data = gen_gaussian_blob(200, 2, seed=8)
    fit = build_forest(data, _CHUNK_TREES + 3, 8, 1, seed=8).trees
    deep = [tree for tree in build_forest(data, 40, 16, 1, seed=9).trees if max_depth(tree) > height_limit_for(8)]
    deep = [dataclasses.replace(tree, size=np.where(np.arange(len(tree.left)) == _first_leaf(tree), 8, 0))
            for tree in deep[:6]]
    return fit, deep


_EDGE = st.integers(-3, 2)  # trees _CHUNK_TREES - 3 to _CHUNK_TREES + 2, three in each chunk


@settings(max_examples=150, deadline=None)
@given(deep=st.sets(_EDGE, max_size=2), edits=st.lists(st.tuples(
    _EDGE, st.sampled_from(["left", "right", "size"]), st.integers(0, 2**16), st.integers(-2, 18)),
    min_size=1, max_size=3))
def test_forest_names_the_fault_the_tree_by_tree_checks_name(edge_trees, deep, edits):
    """1-3 edits of ``left``, ``right`` or ``size`` entries in trees on both
    sides of a chunk edge, among trees that fit the height limit and up to
    two (``deep``) that exceed it: Forest names the fault tree_by_tree_fault
    names, or passes what it passes."""
    fit, deep_trees = edge_trees
    trees = list(fit)
    for offset in deep:
        trees[_CHUNK_TREES + offset] = deep_trees[offset]
    for offset, name, node, value in edits:
        k = _CHUNK_TREES + offset
        trees[k] = _replace_entry(trees[k], name, node % len(trees[k].left), value)
    expected = tree_by_tree_fault(trees, 8, 1)
    if expected is None:
        assert Forest(trees=trees, psi=8, extension_level=1, seed=8).t == len(trees)
        return
    with pytest.raises(ValueError) as info:
        Forest(trees=trees, psi=8, extension_level=1, seed=8)
    assert str(info.value) == expected
