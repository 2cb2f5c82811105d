"""Quantitative artifacts: score grids, level-set statistics, convergence
curves, and ranking metrics (AUROC / AUPRC).

Everything here is pure given its inputs; the probe generators are seeded
per level so results replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .forest import _columns, _path_lengths, _scores_from_depth_totals, as_dataset, build_forest
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


def score_map(scorer, x_min, x_max, y_min, y_max, nx: int = 100, ny: int = 100) -> ScoreGrid:
    """Score the cell centers of an nx-by-ny grid with a 2-D scorer."""
    if scorer.dimension != 2:
        raise ValueError(f"score maps need a 2-D scorer, got dimension {scorer.dimension}")
    nx, ny = _check_count("nx", nx, 2), _check_count("ny", ny, 2)
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


def _levelset_stats(scorer, levels, name: str, n_probe: int, mismatch, seed: int, draw):
    """Score ``draw(level, seed_k)`` for each level k and summarise each set.

    ``mismatch`` is the caller's dimension error, or None when the scorer
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
        s = scorer.score(draw(level, fold_seed(seed, k)))
        out.append(LevelSetStats(level=float(level), mean=float(s.mean()),
                                 variance=_population_variance(s), n_probe=n_probe))
    return out


def levelset_stats(scorer, radii, n_probe: int, seed: int) -> list[LevelSetStats]:
    """Mean and population variance of scores on spheres of the given radii,
    in the scorer's dimension.

    Probe sets are drawn per radius from seeds folded out of ``seed``.
    """
    dim = scorer.dimension
    mismatch = None
    if dim < 2:
        mismatch = f"sphere level sets need a scorer of dimension at least 2, got dimension {dim}"
    return _levelset_stats(scorer, radii, "radii", n_probe, mismatch, seed,
                           lambda r, s: gen_sphere_levelset(r, n_probe, dim, seed=s))


def line_levelset_stats(
    scorer,
    offsets,
    n_probe: int,
    amplitude: float,
    x_max: float,
    seed: int,
) -> list[LevelSetStats]:
    """Level-set statistics along offset copies of the sinusoid center curve."""
    mismatch = None
    if scorer.dimension != 2:
        mismatch = f"line level sets need a 2-D scorer, got dimension {scorer.dimension}"
    return _levelset_stats(scorer, offsets, "offsets", n_probe, mismatch, seed,
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

    One forest of ``max(t_values)`` trees is trained; the curve point for t
    scores the probes with its first t trees. Tree i consumes only its own
    derived stream, so that prefix is exactly the forest ``build_forest``
    returns for t, and the per-tree depths are summed in tree order, so
    every point equals scoring a separately trained t-tree forest
    bit-for-bit.
    """
    t_values = [_check_count(f"t_values[{k}]", t, 1) for k, t in enumerate(t_values)]
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
    forest = build_forest(x, t_values[-1], psi, extension_level, seed)
    wanted = set(t_values)
    probe_t = _columns(probe)
    total = np.zeros(probe.shape[0])
    means, variances = [], []
    for t, tree in enumerate(forest.trees, start=1):
        total += _path_lengths(probe_t, tree)
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
