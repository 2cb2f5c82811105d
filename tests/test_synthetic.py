import math

import numpy as np
import pytest

from eif.synthetic import (
    SINUSOID_AMPLITUDE,
    SINUSOID_NOISE_SIGMA,
    benchmark_task,
    gen_anomalies_uniform_box,
    gen_double_blob,
    gen_gaussian_blob,
    gen_line_levelset,
    gen_sinusoid,
    gen_sphere_levelset,
)


class TestGaussianBlob:
    def test_shape_and_center(self):
        data = gen_gaussian_blob(2000, 2, seed=5)
        assert data.shape == (2000, 2)
        assert np.all(np.abs(data.mean(axis=0)) < 0.1)

    def test_spread_matches_sigma(self):
        data = gen_gaussian_blob(100_000, 1, sigma=2.5, seed=6)
        assert data.std() == pytest.approx(2.5, rel=0.05)

    def test_custom_mean(self):
        data = gen_gaussian_blob(5000, 3, mean=[1.0, -2.0, 7.0], seed=7)
        assert np.all(np.abs(data.mean(axis=0) - [1.0, -2.0, 7.0]) < 0.2)

    def test_replay(self):
        assert np.array_equal(gen_gaussian_blob(100, 4, seed=9), gen_gaussian_blob(100, 4, seed=9))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gen_gaussian_blob(10, 2, sigma=0.0, seed=1)


class TestDoubleBlob:
    def test_cluster_centers(self):
        data = gen_double_blob(1000, seed=3)
        assert data.shape == (2000, 2)
        assert np.all(np.abs(data[:1000].mean(axis=0) - [0.0, 10.0]) < 0.15)
        assert np.all(np.abs(data[1000:].mean(axis=0) - [10.0, 0.0]) < 0.15)

    def test_replay(self):
        assert np.array_equal(gen_double_blob(50, seed=8), gen_double_blob(50, seed=8))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            gen_double_blob(0, seed=1)


class TestSinusoid:
    def test_noiseless_points_on_curve(self):
        data = gen_sinusoid(500, noise_sigma=0.0, seed=4)
        assert np.array_equal(data[:, 1], SINUSOID_AMPLITUDE * np.sin(data[:, 0]))

    def test_residual_spread(self):
        data = gen_sinusoid(10_000, seed=4)
        residuals = data[:, 1] - SINUSOID_AMPLITUDE * np.sin(data[:, 0])
        assert residuals.std() == pytest.approx(SINUSOID_NOISE_SIGMA, rel=0.05)

    def test_x_covers_range(self):
        x_max = 4 * math.pi
        data = gen_sinusoid(10_000, seed=4)
        assert data[:, 0].min() < 0.05 * x_max
        assert data[:, 0].max() > 0.95 * x_max
        assert data[:, 0].min() >= 0.0 and data[:, 0].max() <= x_max

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_sinusoid(10, amplitude=0.0, seed=1)
        with pytest.raises(ValueError):
            gen_sinusoid(10, noise_sigma=-0.1, seed=1)


class TestSphereLevelset:
    def test_norms_equal_radius(self):
        data = gen_sphere_levelset(2.5, 1000, 3, seed=2)
        assert np.all(np.abs(np.linalg.norm(data, axis=1) - 2.5) < 1e-9)

    def test_radius_zero_collapses_to_origin(self):
        data = gen_sphere_levelset(0.0, 10, 2, seed=2)
        assert np.all(data == 0.0)

    def test_angles_uniform(self):
        from scipy.stats import chisquare

        data = gen_sphere_levelset(1.0, 10_000, 2, seed=12)
        angles = np.arctan2(data[:, 1], data[:, 0])
        counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
        assert chisquare(counts).pvalue > 0.01

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            gen_sphere_levelset(1.0, 10, 1, seed=1)


class TestLineLevelset:
    def test_offset_zero_is_center_curve(self):
        data = gen_line_levelset(0.0, 200, seed=3)
        assert np.array_equal(data[:, 1], SINUSOID_AMPLITUDE * np.sin(data[:, 0]))

    def test_offset_is_exact(self):
        data = gen_line_levelset(4.5, 200, seed=3)
        assert np.array_equal(data[:, 1], SINUSOID_AMPLITUDE * np.sin(data[:, 0]) + 4.5)

    def test_replay(self):
        assert np.array_equal(gen_line_levelset(1.0, 50, seed=5), gen_line_levelset(1.0, 50, seed=5))


class TestUniformBox:
    def test_inside_box(self):
        data = gen_anomalies_uniform_box(5000, [-1.0, 2.0], [3.0, 4.0], seed=6)
        assert np.all(data >= [-1.0, 2.0]) and np.all(data <= [3.0, 4.0])

    def test_means_near_center(self):
        lo, hi = np.array([-2.0, 0.0]), np.array([6.0, 10.0])
        data = gen_anomalies_uniform_box(10_000, lo, hi, seed=7)
        center = (lo + hi) / 2
        assert np.all(np.abs(data.mean(axis=0) - center) < 0.02 * (hi - lo))

    def test_replay(self):
        a = gen_anomalies_uniform_box(100, [0.0], [1.0], seed=8)
        b = gen_anomalies_uniform_box(100, [0.0], [1.0], seed=8)
        assert np.array_equal(a, b)

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError, match="invalid box"):
            gen_anomalies_uniform_box(10, [1.0, 0.0], [0.0, 1.0], seed=1)


@pytest.mark.parametrize("generate,match", [
    (lambda: gen_gaussian_blob(5, 2, sigma=np.nan), "^sigma must be finite"),
    (lambda: gen_gaussian_blob(5, 2, mean=[np.nan, 0.0]), "^mean must be finite"),
    (lambda: gen_sinusoid(5, amplitude=np.inf), "^amplitude must be finite"),
    (lambda: gen_sinusoid(5, x_max=np.inf), "^x_max must be finite"),
    (lambda: gen_sinusoid(5, noise_sigma=np.nan), "^noise_sigma must be finite"),
    (lambda: gen_sphere_levelset(np.nan, 5, 2), "^radius must be finite"),
    (lambda: gen_line_levelset(np.inf, 5), "^offset must be finite"),
    (lambda: gen_line_levelset(0.0, 5, amplitude=np.nan), "^amplitude must be finite"),
    (lambda: gen_line_levelset(0.0, 5, x_max=np.inf), "^x_max must be finite"),
    (lambda: gen_anomalies_uniform_box(5, [np.nan, 0.0], [1.0, 1.0]), "^lo must be finite"),
    (lambda: gen_anomalies_uniform_box(5, [0.0, 0.0], [1.0, np.inf]), "^hi must be finite"),
    (lambda: gen_anomalies_uniform_box(5, [-1e308, 0.0], [1e308, 1.0]),
     "hi - lo overflows float64 in coordinate 0"),
], ids=["blob-sigma", "blob-mean", "sinusoid-amplitude", "sinusoid-x_max", "sinusoid-noise_sigma",
        "sphere-radius", "line-offset", "line-amplitude", "line-x_max", "box-lo", "box-hi",
        "box-width"])
def test_non_finite_parameters_rejected(generate, match):
    with pytest.raises(ValueError, match=match):
        generate()


@pytest.mark.filterwarnings("error")  # the overflow is reported once, as the ValueError
@pytest.mark.parametrize("generate,match", [
    (lambda: gen_gaussian_blob(20, 1, sigma=1e308, seed=1), r"overflow float64 with sigma=1e\+308$"),
    (lambda: gen_gaussian_blob(20, 2, mean=[1e308, 0.0], sigma=1e308),
     r"overflow float64 with sigma=1e\+308, mean=\[1e\+308, 0.0\]$"),
    (lambda: gen_sinusoid(50, noise_sigma=1e308), r"overflow float64 with amplitude=5.0, noise_sigma=1e\+308$"),
    (lambda: gen_line_levelset(1e308, 50, amplitude=1e308),
     r"overflow float64 with amplitude=1e\+308, offset=1e\+308$"),
], ids=["blob-sigma", "blob-mean-and-sigma", "sinusoid-noise_sigma", "line-amplitude-and-offset"])
def test_finite_parameters_that_overflow_are_rejected(generate, match):
    with pytest.raises(ValueError, match=match):
        generate()


class TestBenchmarkTask:
    @pytest.mark.parametrize("kind", ["single_blob", "double_blob", "sinusoid"])
    def test_counts_and_labels(self, kind):
        train, points, labels = benchmark_task(kind, n_train=400, n_anomalies=40, seed=2)
        assert train.shape[0] == 400
        assert points.shape[0] == 440
        assert labels.sum() == 40
        assert np.array_equal(points[:400], train)

    def test_anomalies_avoid_blob_cores(self):
        _, points, labels = benchmark_task("single_blob", n_train=400, n_anomalies=80, seed=5)
        anomalies = points[labels == 1]
        assert np.all(np.linalg.norm(anomalies, axis=1) >= 3.0)

    def test_sinusoid_anomalies_avoid_the_curve(self):
        _, points, labels = benchmark_task("sinusoid", n_train=400, n_anomalies=80, seed=5)
        anomalies = points[labels == 1]
        residual = np.abs(anomalies[:, 1] - SINUSOID_AMPLITUDE * np.sin(anomalies[:, 0]))
        assert np.all(residual >= 3.0 * SINUSOID_NOISE_SIGMA)

    def test_replay(self):
        a = benchmark_task("double_blob", n_train=100, n_anomalies=10, seed=9)
        b = benchmark_task("double_blob", n_train=100, n_anomalies=10, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
