import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eif import forest as forest_module
from eif.errors import UndefinedMetricError
from eif.evaluation import (
    auprc,
    auroc,
    convergence_curve,
    grid_points,
    levelset_stats,
    line_levelset_stats,
    score_map,
)
from eif.forest import build_forest, build_rotated_forest, score_batch
from eif.model_io import write_grid_csv
from eif.rng import make_rng
from eif.synthetic import gen_double_blob, gen_gaussian_blob
from oracles import (
    auprc_oracle,
    auroc_oracle,
    convergence_curve_oracle,
    random_labeled_instance,
)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_half_concordant(self):
        # pairs: (.9 > .4), (.9 > .6), (.2 < .4), (.2 < .6) -> 2 of 4
        assert auroc([0.9, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [0, 0])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [0, 2])

    def test_mismatched_or_empty_input_rejected(self):
        with pytest.raises(ValueError, match=r"^scores and labels must be equal-length vectors, got \(3,\) and \(2,\)$"):
            auroc([0.1, 0.2, 0.3], [0, 1])
        with pytest.raises(UndefinedMetricError, match="^empty input$"):
            auroc([], [])

    def test_matches_pairwise_oracle_exactly(self):
        rng = make_rng(101)
        for _ in range(200):
            scores, labels = random_labeled_instance(rng)
            if labels.sum() in (0, len(labels)):
                continue
            assert auroc(scores, labels) == auroc_oracle(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = make_rng(55)
        scores = rng.uniform(0.0, 1.0, 30)
        labels = (rng.uniform(0.0, 1.0, 30) < 0.3).astype(int)
        labels[0] = 1
        labels[1] = 0
        base = auroc(scores, labels)
        assert auroc(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(scores**3 + 2, labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complements_when_no_ties(self):
        rng = make_rng(56)
        scores = rng.uniform(0.0, 1.0, 40)
        labels = (rng.uniform(0.0, 1.0, 40) < 0.4).astype(int)
        labels[0] = 1
        labels[1] = 0
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_alternating_ranking(self):
        # 1 * (1/2) + (2/3) * (1/2)
        assert auprc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.8333333333, abs=1e-9)

    def test_all_anomalous(self):
        assert auprc([0.4, 0.9, 0.1], [1, 1, 1]) == 1.0

    def test_no_anomalies_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auprc([0.1, 0.2], [0, 0])

    def test_matches_step_sum_oracle_exactly(self):
        rng = make_rng(102)
        for _ in range(200):
            scores, labels = random_labeled_instance(rng)
            assert auprc(scores, labels) == auprc_oracle(scores, labels)

    def test_tied_scores_are_input_order_independent(self):
        scores = np.array([0.5, 0.5, 0.5, 0.2])
        labels = np.array([1, 0, 1, 0])
        perm = [2, 0, 3, 1]
        assert auprc(scores, labels) == auprc(scores[perm], np.array(labels)[perm])


@pytest.mark.parametrize("metric", [auroc, auprc])
@pytest.mark.parametrize("scores,match", [
    ([np.nan, 0.1, 0.2], "non-finite value nan at index 0"),
    ([0.3, 0.1, np.inf, np.nan], "non-finite value inf at index 2"),
])
def test_metrics_reject_non_finite_scores(metric, scores, match):
    # auroc ranked NaN highest and auprc lowest, so the two disagreed silently.
    with pytest.raises(ValueError, match=match):
        metric(scores, [1, 0, 0, 0][: len(scores)])


class TestScoreMap:
    def test_two_by_two_matches_pointwise_calls(self, small_forest):
        grid = score_map(small_forest, -2.0, 2.0, -2.0, 2.0, 2, 2)
        assert grid.values.shape == (2, 2)
        for j, y in enumerate([-1.0, 1.0]):
            for i, x in enumerate([-1.0, 1.0]):
                assert grid.values[j, i] == score_batch(np.array([[x, y]]), small_forest)[0]

    def test_grid_points_walk_x_fastest(self):
        pts = grid_points(0.0, 2.0, 0.0, 4.0, 2, 2)
        assert np.array_equal(pts, [[0.5, 1.0], [1.5, 1.0], [0.5, 3.0], [1.5, 3.0]])

    def test_center_scores_below_corner(self, small_forest):
        grid = score_map(small_forest, -4.0, 4.0, -4.0, 4.0, 9, 9)
        assert grid.values[4, 4] < grid.values[0, 0]

    def test_ghost_region_scores_higher_at_full_extension(self):
        # the two empty corners of the double blob pick up spurious low
        # scores under axis-parallel splits only
        train = gen_double_blob(1000, seed=17)
        f0 = build_forest(train, 100, 256, 0, seed=17)
        f1 = build_forest(train, 100, 256, 1, seed=17)
        origin = np.array([[0.0, 0.0]])
        cluster = np.array([[0.0, 10.0]])
        assert score_batch(origin, f1)[0] > score_batch(cluster, f1)[0]
        assert score_batch(origin, f1)[0] > score_batch(origin, f0)[0]

    def test_rejects_non_2d_scorer(self):
        data = gen_gaussian_blob(300, 3, seed=4)
        f = build_forest(data, 10, 64, 2, seed=4)
        with pytest.raises(ValueError, match="2-D"):
            score_map(f, -1, 1, -1, 1, 4, 4)

    @pytest.mark.parametrize("bounds,message", [
        ((-1e308, 1e308, -1.0, 1.0), r"grid x bounds .* got \[-1e\+308, 1e\+308\]"),
        ((-1.0, 1.0, -np.inf, 1.0), r"grid y bounds .* got \[-inf, 1.0\]"),
        ((-1.0, np.inf, -1.0, 1.0), r"grid x bounds .* got \[-1.0, inf\]"),
        ((-10**400, 10**400, -1, 1), r"^grid x bounds .* got \[-inf, inf\]$"),
        ((-1, 1, 0, 10**400), r"^grid y bounds .* got \[0.0, inf\]$"),
    ], ids=["width-overflows", "infinite-min", "infinite-max", "x-ints-beyond-float", "y-int-beyond-float"])
    def test_rejects_bounds_that_are_infinite_or_overflow_in_width(self, small_forest, bounds, message):
        # They reached score_batch, whose message named a query row the caller
        # never passed; an int beyond the float range raised a bare OverflowError.
        with pytest.raises(ValueError, match=message):
            score_map(small_forest, *bounds, 4, 4)

    @pytest.mark.parametrize("bounds", [(1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 2.0, -2.0)], ids=["x-equal", "y-inverted"])
    def test_rejects_empty_bounds(self, small_forest, bounds):
        with pytest.raises(ValueError, match="^empty grid bounds$"):
            score_map(small_forest, *bounds, 4, 4)

    def test_rejects_bounds_that_are_not_real_numbers(self, small_forest):
        # It raised a bare TypeError from the bounds comparison.
        with pytest.raises(ValueError, match="^y_max must be a real number, got str '1'$"):
            score_map(small_forest, -1.0, 1.0, -1.0, "1", 4, 4)

    def test_float32_bounds_score_the_points_the_grid_csv_writes(self, small_forest, monkeypatch, tmp_path):
        # float32 bounds used to make the scored points in float32 arithmetic,
        # 2e-9 to 2e-8 below the x values the writer recomputes in float64.
        scored = []
        def spy(points, forest):
            scored.append(points.copy())
            return score_batch(points, forest)
        monkeypatch.setattr("eif.evaluation.score_batch", spy)
        grid = score_map(small_forest, np.float32(0.1), np.float32(0.7), np.float32(-0.3), np.float32(0.5), 7, 3)
        write_grid_csv(tmp_path / "grid.csv", grid)
        rows = [line.split(",") for line in (tmp_path / "grid.csv").read_text().splitlines()[1:]]
        written = np.array([[float(x), float(y)] for x, y, _ in rows])
        assert written.tobytes() == scored[0].tobytes()

    def test_works_with_rotated_forest(self, blob_2d):
        f = build_rotated_forest(blob_2d, 10, 128, seed=3)
        grid = score_map(f, -3.0, 3.0, -3.0, 3.0, 4, 4)
        assert grid.values.shape == (4, 4)
        assert np.all((grid.values > 0) & (grid.values < 1))


class TestLevelsetStats:
    def test_radius_zero_has_zero_variance(self, small_forest):
        stats = levelset_stats(small_forest, [0.0], 50, seed=3)
        assert stats[0].variance == 0.0
        assert 0.0 < stats[0].mean < 1.0

    def test_means_grow_with_radius(self, small_forest):
        stats = levelset_stats(small_forest, [1.0, 5.0], 300, seed=3)
        assert stats[1].mean > stats[0].mean

    def test_variance_nonnegative(self, small_forest):
        stats = levelset_stats(small_forest, [0.5, 2.0, 4.0], 200, seed=9)
        assert all(s.variance >= 0.0 for s in stats)

    def test_extension_zero_noisier_than_full_beyond_three_sigma(self, blob_2d):
        wins = 0
        for seed in range(1, 11):
            f0 = build_forest(blob_2d, 60, 256, 0, seed=seed)
            f1 = build_forest(blob_2d, 60, 256, 1, seed=seed)
            v0 = levelset_stats(f0, [4.0], 300, seed=seed)[0].variance
            v1 = levelset_stats(f1, [4.0], 300, seed=seed)[0].variance
            wins += v0 > v1
        assert wins >= 8

    def test_rejects_one_dimensional_scorer(self):
        forest = build_forest(gen_gaussian_blob(50, 1, seed=1), 5, 16, 0, seed=1)
        with pytest.raises(ValueError, match="^sphere level sets need a scorer of dimension at least 2, got dimension 1$"):
            levelset_stats(forest, [1.0], 50, seed=1)

    def test_rejects_empty_radii(self, small_forest):
        with pytest.raises(ValueError):
            levelset_stats(small_forest, [], 50, seed=1)


@pytest.fixture(scope="module")
def sine_forest():
    from eif.synthetic import gen_sinusoid

    return build_forest(gen_sinusoid(2000, seed=31), 100, 256, 1, seed=31)


class TestLineLevelsetStats:
    def test_center_curve_scores_below_far_offsets(self, sine_forest):
        stats = line_levelset_stats(sine_forest, [0.0, 6.0], 300, 5.0, 4 * np.pi, seed=2)
        assert stats[0].mean < stats[1].mean

    def test_variance_nonnegative(self, sine_forest):
        stats = line_levelset_stats(sine_forest, [-4.0, 0.0, 4.0], 200, 5.0, 4 * np.pi, seed=2)
        assert all(s.variance >= 0.0 for s in stats)

    def test_rejects_three_dimensional_scorer(self):
        forest = build_forest(gen_gaussian_blob(50, 3, seed=1), 5, 16, 2, seed=1)
        with pytest.raises(ValueError, match="^line level sets need a 2-D scorer, got dimension 3$"):
            line_levelset_stats(forest, [0.0], 50, 5.0, 4 * np.pi, seed=1)

    @pytest.mark.parametrize("x_max", [0.0, -3.0])
    def test_rejects_x_max_not_positive(self, sine_forest, x_max):
        # at x_max 0 every probe would be the point x = 0, of variance 0
        with pytest.raises(ValueError, match=f"^x_max must be positive, got {x_max}$"):
            line_levelset_stats(sine_forest, [0.0], 5, 5.0, x_max, seed=1)

    def test_extension_zero_noisier_beyond_three_sigma(self):
        # amplitude 2 keeps the probe lines at near-constant distance from
        # the curve, so the axis-parallel banding is the dominant variance
        # source; at the default amplitude the two effects are comparable
        # and the ordering is a coin flip
        from eif.synthetic import gen_sinusoid

        train = gen_sinusoid(2000, amplitude=2.0, seed=33)
        wins = 0
        for seed in range(1, 11):
            f0 = build_forest(train, 150, 256, 0, seed=seed)
            f1 = build_forest(train, 150, 256, 1, seed=seed)
            v0 = np.mean([s.variance for s in
                          line_levelset_stats(f0, [2.0, 4.0], 400, 2.0, 4 * np.pi, seed=seed)])
            v1 = np.mean([s.variance for s in
                          line_levelset_stats(f1, [2.0, 4.0], 400, 2.0, 4 * np.pi, seed=seed)])
            wins += v0 > v1
        assert wins >= 7


class TestConvergence:
    def test_deterministic_replay(self, blob_2d):
        probe = gen_gaussian_blob(50, 2, seed=50)
        a = convergence_curve(blob_2d, probe, [5, 10, 20], 128, 1, seed=5)
        b = convergence_curve(blob_2d, probe, [5, 10, 20], 128, 1, seed=5)
        assert a.means == b.means and a.variances == b.variances

    def test_stabilizes_with_forest_size(self, blob_2d):
        # single-seed moves are noisy, so compare the averages over seeds
        from eif.synthetic import gen_sphere_levelset

        early_moves, late_moves = [], []
        for seed in range(1, 7):
            probe = gen_sphere_levelset(2.0, 200, 2, seed=seed + 200)
            series = convergence_curve(blob_2d, probe, [1, 10, 200, 500], 256, 1, seed=seed)
            early_moves.append(abs(series.means[1] - series.means[0]))
            late_moves.append(abs(series.means[3] - series.means[2]))
        assert np.mean(late_moves) < np.mean(early_moves)

    def test_far_probe_outscores_near_probe_at_every_size(self, blob_2d):
        from eif.synthetic import gen_sphere_levelset

        t_values = [50, 100, 150]
        diffs = []
        for seed in range(1, 11):
            near = gen_sphere_levelset(0.5, 100, 2, seed=seed)
            far = gen_sphere_levelset(4.0, 100, 2, seed=seed + 100)
            sn = convergence_curve(blob_2d, near, t_values, 256, 1, seed=seed)
            sf = convergence_curve(blob_2d, far, t_values, 256, 1, seed=seed)
            diffs.append([f - n for f, n in zip(sf.means, sn.means)])
        assert np.all(np.asarray(diffs) > 0)

    def test_rejects_non_increasing_t_values(self, blob_2d):
        probe = gen_gaussian_blob(10, 2, seed=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_curve(blob_2d, probe, [10, 10, 20], 64, 1, seed=1)
        with pytest.raises(ValueError):
            convergence_curve(blob_2d, probe, [0, 5], 64, 1, seed=1)

    def test_rejects_empty_t_values(self, blob_2d):
        with pytest.raises(ValueError, match="^t_values must be nonempty$"):
            convergence_curve(blob_2d, gen_gaussian_blob(10, 2, seed=1), [], 64, 1, seed=1)

    def test_rejects_non_integral_t_values(self, blob_2d):
        probe = gen_gaussian_blob(10, 2, seed=1)
        with pytest.raises(ValueError, match=r"^t_values\[0\] must be an integer, got float 1\.5$"):
            convergence_curve(blob_2d, probe, [1.5, 2.7], 64, 1, seed=1)

    # [99, 100, 101, 230] crosses the 100-tree chunks that the curve grows and scores one at a time
    @pytest.mark.parametrize("t_values", [[1], [1, 2, 3], [3, 7, 50], [99, 100, 101, 230]])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("level", [0, 2])
    def test_equals_per_t_retrain_bitwise(self, level, seed, t_values):
        data = gen_gaussian_blob(400, 3, seed=seed + 10)
        probe = np.vstack([gen_gaussian_blob(20, 3, seed=seed + 20),
                           gen_gaussian_blob(10, 3, sigma=4.0, seed=seed + 30)])
        got = convergence_curve(data, probe, t_values, 64, level, seed=seed)
        want = convergence_curve_oracle(data, probe, t_values, 64, level, seed)
        assert got.t_values == want.t_values
        assert [m.hex() for m in got.means] == [m.hex() for m in want.means]
        assert [v.hex() for v in got.variances] == [v.hex() for v in want.variances]

    @pytest.mark.parametrize("probe, message", [
        (np.empty((0, 2)), "at least one row"),
        (np.array([[0.0, 1.0], [np.nan, 0.0]]), "non-finite value nan at row 1, column 0"),
        (np.array([[0.0, np.inf]]), "non-finite value inf at row 0, column 1"),
        (np.zeros(2), "must be 2-D"),
        (np.zeros((4, 3)), "dimension mismatch"),
    ])
    def test_rejects_bad_probes_before_building(self, blob_2d, monkeypatch, probe, message):
        def no_growth(*args, **kwargs):
            raise AssertionError("a tree grew before the probes were checked")

        monkeypatch.setattr("eif.forest._grow_levels", no_growth)
        with pytest.raises(ValueError, match=message):
            convergence_curve(blob_2d, probe, [5, 10], 64, 1, seed=1)
        with pytest.raises(AssertionError, match="a tree grew"):  # good probes do reach the patched grower
            convergence_curve(blob_2d, blob_2d[:5], [5, 10], 64, 1, seed=1)

    def test_rejects_t_of_2_to_the_63_before_building(self, blob_2d, monkeypatch):
        def no_growth(*args, **kwargs):
            raise AssertionError("a tree grew before t was checked")

        monkeypatch.setattr("eif.forest._grow_levels", no_growth)
        with pytest.raises(ValueError, match=r"^t_values\[1\] must be in \[1, 2\*\*63\), got 9223372036854775808$"):
            convergence_curve(blob_2d, blob_2d[:5], [1, 2**63, 2**64], 8, 0, seed=1)
        with pytest.raises(ValueError, match=r"^t must be in \[1, 2\*\*63\), got 9223372036854775808$"):
            build_forest(blob_2d, 2**63, 8, 0, seed=1)
        with pytest.raises(AssertionError, match="a tree grew"):  # the largest t allowed does reach the grower
            convergence_curve(blob_2d, blob_2d[:5], [1, 2**63 - 1], 8, 0, seed=1)

    def test_memory_does_not_grow_with_the_largest_t(self):
        data = gen_gaussian_blob(2000, 4, seed=1)
        probe = gen_gaussian_blob(100, 4, seed=2)
        peaks = []
        for t in (200, 1000):
            tracemalloc.start()
            try:
                convergence_curve(data, probe, [t], 64, 1, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_memory_peaks_as_one_chunk_builds(self):
        """The curve over 300 trees peaks (tracemalloc) at no more than 1.15
        times the build of one 100-tree chunk: neither a chunk's trees nor the
        records it grew from are held while the next chunk grows. On 20k 8-D
        rows at level 0 and psi 256, under numpy 2.4.6, it read 1.04 (1.06
        before the grower was split). Chunks from a generator that frees the
        block and yields ``_tree_arrays``' trees, so that its frame holds the
        growth records, read 1.29; each chunk held by a ``zip`` of the chunks
        and their first indices, 1.52. The curve at t = 55 and 230 scores
        groups of trees cut off at 55, 100 and 200, not only at the groups'
        own size: it read 1.035. Groups that ran past a chunk's end, each
        keeping that chunk while the next one grew, read 1.50."""
        data = gen_gaussian_blob(20_000, 8, seed=1)
        probe = gen_gaussian_blob(1000, 8, seed=2)
        convergence_curve(data, probe, [2], 256, 0, seed=1)  # imports and caches outside the trace
        peaks = []
        for run in (lambda: build_forest(data, 100, 256, 0, seed=1),
                    lambda: convergence_curve(data, probe, [300], 256, 0, seed=1),
                    lambda: convergence_curve(data, probe, [55, 230], 256, 0, seed=1)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.15 * peaks[0], [peak / peaks[0] for peak in peaks[1:]]

    def test_fault_names_the_tree_build_forest_names(self, monkeypatch):
        # tree 130 of a 230-tree forest gets a NaN root intercept: the second chunk's 31st tree
        data = gen_gaussian_blob(400, 2, seed=4)
        grown, scored = corrupt_trees(monkeypatch, {130: nan_split})
        message = "^node 0 of tree 130 has a non-finite split vector$"
        with pytest.raises(ValueError, match=message):
            build_forest(data, 230, 64, 1, seed=4)
        grown.clear()
        with pytest.raises(ValueError, match=message):
            convergence_curve(data, data[:10], [50, 230], 64, 1, seed=4)
        assert len(scored) == 100  # the first chunk, and no tree of the faulty one

    def test_faults_in_two_chunks_are_named_as_build_forest_names_them(self, monkeypatch):
        # a NaN split in tree 30 and a float64 ``left`` in tree 130: both name the first bad tree
        data = gen_gaussian_blob(400, 2, seed=4)
        grown, scored = corrupt_trees(monkeypatch, {30: nan_split, 130: float_left})
        message = "^node 0 of tree 30 has a non-finite split vector$"
        with pytest.raises(ValueError, match=message):
            build_forest(data, 230, 64, 1, seed=4)
        grown.clear()
        with pytest.raises(ValueError, match=message):
            convergence_curve(data, data[:10], [50, 230], 64, 1, seed=4)
        assert grown == [100] and not scored  # no tree of the faulty chunk is scored, and no later chunk grows


def nan_split(tree):
    intercept = tree.intercept.copy()
    intercept[0, 0] = np.nan
    return dataclasses.replace(tree, intercept=intercept)


def float_left(tree):
    return dataclasses.replace(tree, left=tree.left.astype(np.float64))


def corrupt_trees(monkeypatch, faults):
    """Make tree k of a build come out of ``_tree_arrays`` as ``faults[k](tree)``.
    Return the length of each chunk grown, which the caller clears between
    builds, and the list of each tree scored, by either walk: both are
    reached through ``_tree_depths``."""
    tree_arrays, tree_depths = forest_module._tree_arrays, forest_module._tree_depths
    grown, scored = [], []

    def corrupting_tree_arrays(*args):
        trees = tree_arrays(*args)
        first = sum(grown)
        grown.append(len(trees))
        for k, fault in faults.items():
            if first <= k < first + len(trees):
                trees[k - first] = fault(trees[k - first])
        return trees

    def counting_tree_depths(xt, trees):
        scored.extend(trees)
        return tree_depths(xt, trees)

    monkeypatch.setattr(forest_module, "_tree_arrays", corrupting_tree_arrays)
    monkeypatch.setattr(forest_module, "_tree_depths", counting_tree_depths)
    return grown, scored


@given(shift=st.floats(-10, 10), scale=st.floats(0.1, 10))
@settings(max_examples=30, deadline=None)
def test_auroc_invariance_under_affine_maps(shift, scale):
    rng = make_rng(77)
    scores = rng.uniform(0.0, 1.0, 25)
    labels = np.array([1, 0] * 12 + [1])
    assert auroc(scores * scale + shift, labels) == pytest.approx(
        auroc(scores, labels), abs=1e-12
    )
