"""Synthetic datasets and probe-point families for the evaluation harness.

All generators are pure functions of (parameters, seed): replaying a call
reproduces the dataset bit-for-bit. Training sets (blobs, sinusoid) and
probe sets (spheres, offset curves, boxes) share the same conventions.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import _check_count, fold_seed, make_rng

DOUBLE_BLOB_CENTERS = ((0.0, 10.0), (10.0, 0.0))

SINUSOID_AMPLITUDE = 5.0
SINUSOID_X_MAX = 4.0 * math.pi
SINUSOID_NOISE_SIGMA = 0.5

# benchmark_task gives up after this many batches of anomaly draws.
_MAX_ANOMALY_BATCHES = 10_000


def _require_finite(**params) -> None:
    """Raise ValueError naming the first parameter with a NaN or infinite entry."""
    for name, value in params.items():
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=np.float64))):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_finite_points(points: np.ndarray, **scale) -> np.ndarray:
    """Return ``points``, or raise ValueError naming the ``scale`` parameters
    when finite parameters still carried a cell past the float64 range."""
    if not np.isfinite(points).all():
        named = ", ".join(f"{name}={value}" for name, value in scale.items() if value is not None)
        raise ValueError(f"generated points overflow float64 with {named}")
    return points


def gen_gaussian_blob(n: int, dim: int, mean=None, sigma: float = 1.0, seed: int = 1) -> np.ndarray:
    """n points with coordinate d ~ N(mean_d, sigma^2)."""
    n = _check_count("n", n, 1)
    dim = _check_count("dim", dim, 1)
    _require_finite(sigma=sigma, mean=mean)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    center = np.zeros(dim) if mean is None else np.asarray(mean, dtype=np.float64)
    if center.shape != (dim,):
        raise ValueError(f"mean must have length {dim}, got shape {center.shape}")
    rng = make_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        points = center + sigma * rng.standard_normal((n, dim))
    return _require_finite_points(points, sigma=sigma, mean=mean)


def gen_double_blob(n_per_blob: int, seed: int = 1) -> np.ndarray:
    """Two unit-variance clusters centered at (0, 10) and (10, 0)."""
    n_per_blob = _check_count("n_per_blob", n_per_blob, 1)
    rng = make_rng(seed)
    parts = [
        np.asarray(c, dtype=np.float64) + rng.standard_normal((n_per_blob, 2))
        for c in DOUBLE_BLOB_CENTERS
    ]
    return np.vstack(parts)


def gen_sinusoid(
    n: int,
    amplitude: float = SINUSOID_AMPLITUDE,
    x_max: float = SINUSOID_X_MAX,
    noise_sigma: float = SINUSOID_NOISE_SIGMA,
    seed: int = 1,
) -> np.ndarray:
    """x uniform on [0, x_max]; y = amplitude * sin(x) + N(0, noise_sigma^2)."""
    n = _check_count("n", n, 1)
    _require_finite(amplitude=amplitude, x_max=x_max, noise_sigma=noise_sigma)
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if x_max <= 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    rng = make_rng(seed)
    x = rng.uniform(0.0, x_max, n)
    with np.errstate(over="ignore", invalid="ignore"):
        y = amplitude * np.sin(x) + noise_sigma * rng.standard_normal(n)
    return _require_finite_points(np.column_stack([x, y]), amplitude=amplitude, noise_sigma=noise_sigma)


def gen_sphere_levelset(radius: float, n: int, dim: int, seed: int = 1) -> np.ndarray:
    """n points uniform on the (dim-1)-sphere of the given radius.

    Gaussian draws normalized to unit length, then scaled; rows that land
    exactly at the origin (never in practice) are redrawn.
    """
    _require_finite(radius=radius)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    n = _check_count("n", n, 1)
    dim = _check_count("dim", dim, 2)
    rng = make_rng(seed)
    g = rng.standard_normal((n, dim))
    norms = np.sqrt((g * g).sum(axis=1))
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.sqrt((g * g).sum(axis=1))
    return radius * (g / norms[:, np.newaxis])


def gen_line_levelset(
    offset: float,
    n: int,
    amplitude: float = SINUSOID_AMPLITUDE,
    x_max: float = SINUSOID_X_MAX,
    seed: int = 1,
) -> np.ndarray:
    """Noiseless probe curve: y = amplitude * sin(x) + offset."""
    n = _check_count("n", n, 1)
    _require_finite(offset=offset, amplitude=amplitude, x_max=x_max)
    rng = make_rng(seed)
    x = rng.uniform(0.0, x_max, n)
    with np.errstate(over="ignore", invalid="ignore"):
        y = amplitude * np.sin(x) + offset
    return _require_finite_points(np.column_stack([x, y]), amplitude=amplitude, offset=offset)


def gen_anomalies_uniform_box(n: int, lo, hi, seed: int = 1) -> np.ndarray:
    """n points uniform over the axis-aligned box [lo, hi]."""
    n = _check_count("n", n, 1)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"box corners must be 1-D and equal length, got {lo.shape} and {hi.shape}")
    _require_finite(lo=lo, hi=hi)
    if not np.all(lo < hi):
        raise ValueError("invalid box: lo must be strictly below hi in every coordinate")
    with np.errstate(over="ignore"):
        wide = ~np.isfinite(hi - lo)
    if wide.any():
        raise ValueError(f"invalid box: hi - lo overflows float64 in coordinate {int(np.flatnonzero(wide)[0])}")
    rng = make_rng(seed)
    return rng.uniform(lo, hi, (n, lo.shape[0]))


BENCHMARK_TASKS = ("single_blob", "double_blob", "sinusoid")


def benchmark_task(
    kind: str,
    n_train: int = 2000,
    n_anomalies: int = 200,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training data plus injected anomalies for the ranking benchmarks.

    Returns (train, points, labels) where ``points`` is the training data
    followed by the injected anomalies and ``labels`` marks the anomalies
    with 1. Anomalies are sampled uniformly from the training bounding box
    scaled 1.5x about its center, rejecting draws that land where nominal
    data lives: within 3 sigma of a cluster center for the blob tasks,
    within 3 noise sigmas of the center curve for the sinusoid. The
    injection scheme is a harness choice, not a property of the detector.
    Raises ValueError when a fixed cap of batches of draws has not kept
    ``n_anomalies`` points, as when a small training set's box lies wholly
    inside the rejection region.
    """
    n_train = _check_count("n_train", n_train, 1)
    n_anomalies = _check_count("n_anomalies", n_anomalies, 1)
    if kind == "single_blob":
        train = gen_gaussian_blob(n_train, 2, seed=fold_seed(seed, 0))
        centers = np.array([[0.0, 0.0]])
        keep = lambda pts: _far_from_centers(pts, centers, 3.0)
    elif kind == "double_blob":
        if n_train % 2:
            raise ValueError("double_blob needs an even n_train")
        train = gen_double_blob(n_train // 2, seed=fold_seed(seed, 0))
        centers = np.asarray(DOUBLE_BLOB_CENTERS)
        keep = lambda pts: _far_from_centers(pts, centers, 3.0)
    elif kind == "sinusoid":
        train = gen_sinusoid(n_train, seed=fold_seed(seed, 0))
        keep = lambda pts: (
            np.abs(pts[:, 1] - SINUSOID_AMPLITUDE * np.sin(pts[:, 0]))
            >= 3.0 * SINUSOID_NOISE_SIGMA
        )
    else:
        raise ValueError(f"unknown benchmark task {kind!r}")

    lo, hi = _scaled_bounding_box(train, 1.5)
    rng = make_rng(fold_seed(seed, 1))
    pieces: list[np.ndarray] = []
    total = 0
    while total < n_anomalies:
        if len(pieces) == _MAX_ANOMALY_BATCHES:
            raise ValueError(
                f"benchmark task {kind!r} with n_train={n_train}: kept {total} of {n_anomalies} "
                f"anomalies after {len(pieces)} batches of draws from the 1.5x bounding box"
            )
        batch = rng.uniform(lo, hi, (n_anomalies, train.shape[1]))
        batch = batch[keep(batch)]
        pieces.append(batch)
        total += batch.shape[0]
    anomalies = np.vstack(pieces)[:n_anomalies]

    points = np.vstack([train, anomalies])
    labels = np.concatenate([np.zeros(len(train), dtype=int), np.ones(n_anomalies, dtype=int)])
    return train, points, labels


def _far_from_centers(pts: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    dists = np.linalg.norm(pts[:, np.newaxis, :] - centers[np.newaxis, :, :], axis=2)
    return dists.min(axis=1) >= radius


def _scaled_bounding_box(data: np.ndarray, factor: float) -> tuple[np.ndarray, np.ndarray]:
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return center - factor * half, center + factor * half
