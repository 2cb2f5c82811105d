"""Rotated-trees baseline: per-tree in-plane rotation, axis-parallel splits.

Each tree trains on a subsample rotated about the origin by its own random
angle, then splits axis-parallel (extension level 0). Scoring applies the
same rotation to the query point before it runs down that tree, so every
tree carries its angle. The per-tree bias of axis-parallel cuts is still
there, but the ensemble averages it out across angles. 2-D only; there is
no single natural choice of rotation in higher dimensions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forest import (
    IsolationTree,
    _batch_path_lengths,
    _grow,
    _pow2,
    _require_finite,
    _scores_from_depth_totals,
    as_dataset,
    c_factor,
    height_limit_for,
    path_length,
)
from .rng import make_rng, subsample

TWO_PI = 2.0 * math.pi


@dataclass
class RotatedTree:
    tree: IsolationTree
    angle: float


@dataclass
class RotatedForest:
    trees: list[RotatedTree]
    psi: int
    dimension: int
    normalizer: float
    seed: int
    variant: str = "rotated"

    @property
    def t(self) -> int:
        return len(self.trees)

    def score(self, data: np.ndarray) -> np.ndarray:
        return rotated_score_batch(data, self)


def _rotate_rows(x: np.ndarray, angle: float) -> np.ndarray:
    # Same operation order as rotate_point so batch and single-point
    # rotations agree bit-for-bit.
    c = math.cos(angle)
    s = math.sin(angle)
    out = np.empty_like(x)
    out[:, 0] = x[:, 0] * c - x[:, 1] * s
    out[:, 1] = x[:, 0] * s + x[:, 1] * c
    return out


def rotate_point(x, angle: float) -> np.ndarray:
    """Rotate a 2-D point by ``angle`` radians about the origin."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != 2:
        raise ValueError(f"rotation is 2-D only, got point shape {x.shape}")
    return _rotate_rows(x[np.newaxis, :], angle)[0]


def build_rotated_forest(
    data: np.ndarray,
    t: int,
    psi: int,
    seed: int,
    *,
    threads: int = 1,
    angles: Sequence[float] | None = None,
) -> RotatedForest:
    """Train the rotated baseline on 2-D data.

    Per tree i: subsample with the tree's derived stream, draw an angle
    uniform on [0, 2*pi) from the same stream, rotate the subsample, and
    grow an extension-level-0 tree on the rotated points.

    ``angles`` forces the per-tree angles instead of drawing them (the draw
    is skipped entirely, leaving the rest of the stream untouched); with all
    angles 0 the build is draw-for-draw identical to an extension-level-0
    forest, which pins the identity reduction in tests.
    """
    x = as_dataset(data)
    n, dim = x.shape
    if dim != 2:
        raise ValueError(f"rotated variant supports dimension 2 only, got {dim}")
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if psi < 2:
        raise ValueError(f"psi must be at least 2, got {psi}")
    if psi > n:
        raise ValueError(f"insufficient data: psi={psi} exceeds dataset size {n}")
    if angles is not None and len(angles) != t:
        raise ValueError(f"expected {t} forced angles, got {len(angles)}")

    limit = height_limit_for(psi)
    root = make_rng(seed)

    def build(i: int) -> RotatedTree:
        stream = root.derive(i)
        sample = subsample(stream, x, psi)
        angle = float(stream.uniform(0.0, TWO_PI)) if angles is None else float(angles[i])
        node = _grow(_rotate_rows(sample, angle), 0, limit, 0, stream)
        return RotatedTree(tree=IsolationTree(root=node, height_limit=limit, psi=psi), angle=angle)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(t)))
    else:
        trees = [build(i) for i in range(t)]

    return RotatedForest(
        trees=trees, psi=psi, dimension=2, normalizer=c_factor(psi), seed=seed
    )


def rotated_expected_depth(x, forest: RotatedForest) -> float:
    """Mean path length over trees, each entered in its own rotated frame."""
    if not forest.trees:
        raise ValueError("forest has no trees")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != 2:
        raise ValueError(f"dimension mismatch: rotated forest scores 2-D points, got shape {x.shape}")
    total = 0.0
    for rt in forest.trees:
        total += path_length(rotate_point(x, rt.angle), rt.tree)
    return total / len(forest.trees)


def rotated_score(x, forest: RotatedForest) -> float:
    """Anomaly score of one point under the rotated baseline."""
    return _pow2(-rotated_expected_depth(x, forest) / forest.normalizer)


def rotated_score_batch(data, forest: RotatedForest) -> np.ndarray:
    """Batch scores, order preserved; bit-identical to a per-point loop."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    if x.shape[0] == 0:
        return np.empty(0)
    if x.shape[1] != 2:
        raise ValueError(f"dimension mismatch: rotated forest scores 2-D data, got {x.shape[1]} columns")
    _require_finite(x, "data")
    if not forest.trees:
        raise ValueError("forest has no trees")
    total = np.zeros(x.shape[0])
    for rt in forest.trees:
        total += _batch_path_lengths(_rotate_rows(x, rt.angle), rt.tree)
    return _scores_from_depth_totals(total, len(forest.trees), forest.normalizer)
