"""Quantitative artifacts: score grids, level-set statistics, convergence
curves, and ranking metrics (AUROC / AUPRC).

Everything here is pure given its inputs; the probe generators are seeded
per level so results replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .forest import _path_lengths, _scores_from_depth_totals, as_dataset, build_forest
from .rng import fold_seed
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


def _check_scorer(scorer):
    if not hasattr(scorer, "score") or not hasattr(scorer, "dimension"):
        raise ValueError(f"not a scorer: {type(scorer).__name__}")


def grid_points(x_min, x_max, y_min, y_max, nx, ny) -> np.ndarray:
    """Cell-center lattice, x fastest: row k is (x_{k % nx}, y_{k // nx})."""
    xs = x_min + (np.arange(nx) + 0.5) * (x_max - x_min) / nx
    ys = y_min + (np.arange(ny) + 0.5) * (y_max - y_min) / ny
    pts = np.empty((nx * ny, 2))
    pts[:, 0] = np.tile(xs, ny)
    pts[:, 1] = np.repeat(ys, nx)
    return pts


def score_map(scorer, x_min, x_max, y_min, y_max, nx: int = 100, ny: int = 100) -> ScoreGrid:
    """Score the cell centers of an nx-by-ny grid with a 2-D scorer."""
    _check_scorer(scorer)
    if scorer.dimension != 2:
        raise ValueError(f"score maps need a 2-D scorer, got dimension {scorer.dimension}")
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must be at least 2x2, got {nx}x{ny}")
    if not (x_min < x_max and y_min < y_max):
        raise ValueError("empty grid bounds")
    values = scorer.score(grid_points(x_min, x_max, y_min, y_max, nx, ny)).reshape(ny, nx)
    return ScoreGrid(
        x_min=float(x_min), x_max=float(x_max),
        y_min=float(y_min), y_max=float(y_max),
        nx=nx, ny=ny, values=values,
    )


def _population_variance(scores: np.ndarray) -> float:
    # Constant input must report exactly zero (np.mean of n equal values
    # can be off by an ulp, which would leak through as a tiny variance).
    if np.all(scores == scores[0]):
        return 0.0
    d = scores - scores.mean()
    return float((d * d).mean())


def levelset_stats(scorer, radii, n_probe: int, dim: int, seed: int) -> list[LevelSetStats]:
    """Mean and population variance of scores on spheres of the given radii.

    Probe sets are drawn per radius from seeds folded out of ``seed``.
    """
    _check_scorer(scorer)
    radii = list(radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if n_probe < 2:
        raise ValueError(f"n_probe must be at least 2, got {n_probe}")
    if scorer.dimension != dim:
        raise ValueError(f"dimension mismatch: scorer is {scorer.dimension}-D, probes are {dim}-D")
    out = []
    for k, r in enumerate(radii):
        probes = gen_sphere_levelset(r, n_probe, dim, seed=fold_seed(seed, k))
        s = scorer.score(probes)
        out.append(LevelSetStats(level=float(r), mean=float(s.mean()),
                                 variance=_population_variance(s), n_probe=n_probe))
    return out


def line_levelset_stats(
    scorer,
    offsets,
    n_probe: int,
    amplitude: float,
    x_max: float,
    seed: int,
) -> list[LevelSetStats]:
    """Level-set statistics along offset copies of the sinusoid center curve."""
    _check_scorer(scorer)
    offsets = list(offsets)
    if not offsets:
        raise ValueError("offsets must be nonempty")
    if n_probe < 2:
        raise ValueError(f"n_probe must be at least 2, got {n_probe}")
    if scorer.dimension != 2:
        raise ValueError(f"line level sets need a 2-D scorer, got dimension {scorer.dimension}")
    out = []
    for k, off in enumerate(offsets):
        probes = gen_line_levelset(off, n_probe, amplitude, x_max, seed=fold_seed(seed, k))
        s = scorer.score(probes)
        out.append(LevelSetStats(level=float(off), mean=float(s.mean()),
                                 variance=_population_variance(s), n_probe=n_probe))
    return out


def convergence_curve(
    data,
    probe_points,
    t_values,
    psi: int,
    extension_level: int,
    seed: int,
) -> ConvergenceSeries:
    """Probe-score mean and variance as the forest grows.

    One forest of ``max(t_values)`` trees is trained; the curve point for t
    scores the probes with its first t trees. Tree i consumes only its own
    derived stream, so that prefix is exactly the forest ``build_forest``
    returns for t, and the per-tree depths are summed in tree order, so
    every point equals scoring a separately trained t-tree forest
    bit-for-bit.
    """
    t_values = [int(t) for t in t_values]
    if not t_values or any(t < 1 for t in t_values):
        raise ValueError("t_values must be nonempty with every entry >= 1")
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
    forest = build_forest(x, t_values[-1], psi, extension_level, seed)
    wanted = set(t_values)
    total = np.zeros(probe.shape[0])
    means, variances = [], []
    for t, tree in enumerate(forest.trees, start=1):
        total += _path_lengths(probe, tree)
        if t in wanted:
            s = _scores_from_depth_totals(total, t, forest.normalizer)
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
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (nominal) or 1 (anomaly)")
    labels = labels.astype(int)
    n_anom = int(labels.sum())
    if n_anom == 0:
        raise UndefinedMetricError("metric undefined: no anomalies in labels")
    if need_both and n_anom == labels.size:
        raise UndefinedMetricError("metric undefined: no nominal points in labels")
    return scores, labels


def _midranks(sorted_scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    n = sorted_scores.size
    ranks = np.empty(n)
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[start : stop + 1] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def auroc(scores, labels) -> float:
    """Probability a random anomaly outscores a random nominal, ties at 1/2.

    Mann-Whitney rank form: exact (and exactly equal to the pairwise count)
    because midranks are half-integers.
    """
    scores, labels = _check_labeled(scores, labels, need_both=True)
    order = np.argsort(scores, kind="stable")
    ranks = _midranks(scores[order])
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
    s = scores[order]
    y = labels[order]
    n_anom = int(y.sum())
    total = 0.0
    seen = 0
    tp = 0
    start = 0
    n = s.size
    while start < n:
        stop = start
        while stop + 1 < n and s[stop + 1] == s[start]:
            stop += 1
        group_tp = int(y[start : stop + 1].sum())
        seen += stop - start + 1
        tp += group_tp
        if group_tp:
            total += (group_tp / n_anom) * (tp / seen)
        start = stop + 1
    return total
