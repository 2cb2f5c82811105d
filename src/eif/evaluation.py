"""Quantitative artifacts: score grids, level-set statistics, convergence
curves, and ranking metrics (AUROC / AUPRC).

Everything here is pure given its inputs; the probe generators are seeded
per level so results replay exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .forest import Forest, _columns, _prefix_scores, _tree_stream, as_dataset, score_batch
from .rng import _check_count, fold_seed
from .synthetic import gen_line_levelset, gen_sphere_levelset


@dataclass
class ScoreGrid:
    """Anomaly scores over a 2-D lattice of cell centers.

    ``values[j, i]`` is the score at (x_i, y_j); flattening row-major walks
    x fastest, matching the grid CSV layout.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray


@dataclass
class LevelSetStats:
    level: float
    mean: float
    variance: float
    n_probe: int


@dataclass
class ConvergenceSeries:
    t_values: list[int]
    means: list[float]
    variances: list[float]


def grid_axes(x_min, x_max, y_min, y_max, nx, ny) -> tuple[np.ndarray, np.ndarray]:
    """The lattice's cell-center coordinates, (x_0..x_{nx-1}, y_0..y_{ny-1})."""
    xs = x_min + (np.arange(nx) + 0.5) * (x_max - x_min) / nx
    ys = y_min + (np.arange(ny) + 0.5) * (y_max - y_min) / ny
    return xs, ys


def grid_points(x_min, x_max, y_min, y_max, nx, ny) -> np.ndarray:
    """Cell-center lattice, x fastest: row k is (x_{k % nx}, y_{k // nx})."""
    xs, ys = grid_axes(x_min, x_max, y_min, y_max, nx, ny)
    pts = np.empty((nx * ny, 2))
    pts[:, 0] = np.tile(xs, ny)
    pts[:, 1] = np.repeat(ys, nx)
    return pts


def _grid_bound(name: str, value) -> float:
    """A grid bound as a float64; an int beyond the float range is an infinite bound."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__} {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def score_map(forest: Forest, x_min, x_max, y_min, y_max, nx: int = 100, ny: int = 100) -> ScoreGrid:
    """Score the cell centers of an nx-by-ny grid with a 2-D forest.

    The bounds become float64 first, so the points scored are the ones the
    grid CSV writes, whatever type the caller passed."""
    bounds = {"x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max}
    x_min, x_max, y_min, y_max = (_grid_bound(name, value) for name, value in bounds.items())
    if forest.dimension != 2:
        raise ValueError(f"score maps need a 2-D scorer, got dimension {forest.dimension}")
    nx, ny = _check_count("nx", nx, 2), _check_count("ny", ny, 2)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError("empty grid bounds")
    for axis, lo, hi in (("x", x_min, x_max), ("y", y_min, y_max)):
        if not math.isfinite(hi - lo):  # an infinite bound, or a width beyond float64
            raise ValueError(f"grid {axis} bounds must be finite, with a width that fits float64, "
                             f"got [{lo!r}, {hi!r}]")
    values = score_batch(grid_points(x_min, x_max, y_min, y_max, nx, ny), forest).reshape(ny, nx)
    return ScoreGrid(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, nx=nx, ny=ny, values=values)


def _population_variance(scores: np.ndarray) -> float:
    # Constant input must report exactly zero (np.mean of n equal values
    # can be off by an ulp, which would leak through as a tiny variance).
    if np.all(scores == scores[0]):
        return 0.0
    d = scores - scores.mean()
    return float((d * d).mean())


def _levelset_stats(forest: Forest, levels, name: str, n_probe: int, mismatch, seed: int, draw):
    """Score ``draw(level, seed_k)`` for each level k and summarise each set.

    ``mismatch`` is the caller's dimension error, or None when the forest
    fits its probes; it is raised after the ``levels`` and ``n_probe`` checks.
    """
    levels = list(levels)
    if not levels:
        raise ValueError(f"{name} must be nonempty")
    n_probe = _check_count("n_probe", n_probe, 2)
    if mismatch is not None:
        raise ValueError(mismatch)
    out = []
    for k, level in enumerate(levels):
        s = score_batch(draw(level, fold_seed(seed, k)), forest)
        out.append(LevelSetStats(level=float(level), mean=float(s.mean()),
                                 variance=_population_variance(s), n_probe=n_probe))
    return out


def levelset_stats(forest: Forest, radii, n_probe: int, seed: int) -> list[LevelSetStats]:
    """Mean and population variance of scores on spheres of the given radii,
    in the forest's dimension.

    Probe sets are drawn per radius from seeds folded out of ``seed``.
    """
    dim = forest.dimension
    mismatch = None
    if dim < 2:
        mismatch = f"sphere level sets need a scorer of dimension at least 2, got dimension {dim}"
    return _levelset_stats(forest, radii, "radii", n_probe, mismatch, seed,
                           lambda r, s: gen_sphere_levelset(r, n_probe, dim, seed=s))


def line_levelset_stats(
    forest: Forest,
    offsets,
    n_probe: int,
    amplitude: float,
    x_max: float,
    seed: int,
) -> list[LevelSetStats]:
    """Level-set statistics along offset copies of the sinusoid center curve."""
    mismatch = None
    if forest.dimension != 2:
        mismatch = f"line level sets need a 2-D scorer, got dimension {forest.dimension}"
    return _levelset_stats(forest, offsets, "offsets", n_probe, mismatch, seed,
                           lambda off, s: gen_line_levelset(off, n_probe, amplitude, x_max, seed=s))


def convergence_curve(
    data,
    probe_points,
    t_values,
    psi: int,
    extension_level: int,
    seed: int,
) -> ConvergenceSeries:
    """Probe-score mean and variance as the forest grows.

    The curve point for t scores the probes with the first t trees of one
    ``max(t_values)``-tree forest. Tree i consumes only its own derived
    stream, so that prefix is exactly the forest ``build_forest`` returns for
    t, and the per-tree depths are summed in tree order, so every point
    equals scoring a separately trained t-tree forest bit-for-bit.

    The forest is never held whole: its trees grow, are checked as
    ``Forest`` checks them, and are scored one chunk of 100 at a time, and
    each chunk is dropped before the next one grows, so working memory does
    not grow with ``max(t_values)``. On 20k 8-D rows at level 0 with psi 256
    and 1,000 probes, its tracemalloc peak is 6.1 MB at 500 trees and 6.2 MB
    at 2,000, where building the whole forest first took 13.6 and 43.4 MB.
    The settings and the probes are checked before any tree grows.
    """
    t_values = [_check_count(f"t_values[{k}]", t, 1) for k, t in enumerate(t_values)]
    for k, t in enumerate(t_values):
        if t >= 2**63:
            raise ValueError(f"t_values[{k}] must be in [1, 2**63), got {t}")
    if not t_values:
        raise ValueError("t_values must be nonempty")
    if any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError(f"t_values must be strictly increasing, got {t_values}")
    x = as_dataset(data)
    probe = as_dataset(probe_points, "probe_points")
    if probe.shape[0] == 0:
        raise ValueError("probe_points must have at least one row")
    if probe.shape[1] != x.shape[1]:
        raise ValueError(
            f"dimension mismatch: probe_points have {probe.shape[1]} columns, "
            f"data has {x.shape[1]}"
        )
    normalizer, trees = _tree_stream(x, t_values[-1], psi, extension_level, seed)
    means, variances = [], []
    for s in _prefix_scores(_columns(probe), trees, normalizer, t_values):
        means.append(float(s.mean()))
        variances.append(_population_variance(s))
    return ConvergenceSeries(t_values=t_values, means=means, variances=variances)


def _check_labeled(scores, labels, need_both: bool) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}"
        )
    if scores.size == 0:
        raise UndefinedMetricError("empty input")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"scores contain non-finite value {scores[bad[0]]} at index {bad[0]}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (nominal) or 1 (anomaly)")
    labels = labels.astype(int)
    n_anom = int(labels.sum())
    if n_anom == 0:
        raise UndefinedMetricError("metric undefined: no anomalies in labels")
    if need_both and n_anom == labels.size:
        raise UndefinedMetricError("metric undefined: no nominal points in labels")
    return scores, labels


def _tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal values in a sorted vector."""
    starts = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    return np.concatenate(([0], starts)), np.concatenate((starts - 1, [sorted_scores.size - 1]))


def auroc(scores, labels) -> float:
    """Probability a random anomaly outscores a random nominal, ties at 1/2.

    Mann-Whitney rank form: exact (and exactly equal to the pairwise count)
    because midranks are half-integers.
    """
    scores, labels = _check_labeled(scores, labels, need_both=True)
    order = np.argsort(scores, kind="stable")
    first, last = _tie_groups(scores[order])
    ranks = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    n1 = int(labels.sum())
    n0 = labels.size - n1
    rank_sum = float(ranks[labels[order] == 1].sum())
    u = rank_sum - n1 * (n1 + 1) / 2.0
    return u / (n1 * n0)


def auprc(scores, labels) -> float:
    """Average precision, scores descending, equal-score groups as blocks.

    Each tie group contributes precision-after-the-group times the group's
    recall increment, which removes any dependence on input order.
    """
    scores, labels = _check_labeled(scores, labels, need_both=False)
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    first, last = _tie_groups(scores[order])
    group_tp = np.add.reduceat(y, first)
    terms = (group_tp / int(y.sum())) * (np.cumsum(group_tp) / (last + 1))
    # cumsum adds the terms in group order; np.sum's pairwise order could move the last bit.
    return float(np.cumsum(terms)[-1])
