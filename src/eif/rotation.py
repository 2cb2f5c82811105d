"""Rotated-trees baseline: per-tree in-plane rotation, axis-parallel splits.

Each tree trains on a subsample rotated about the origin by its own random
angle, then splits axis-parallel (extension level 0). The result is an
ordinary level-0 :class:`~eif.forest.Forest` whose trees carry their angles,
which is what makes its ``variant`` "rotated"; the shared scorer turns a query point by each tree's
angle before it enters that tree. The per-tree bias of axis-parallel cuts is
still there, but the ensemble averages it out across angles. 2-D only; there
is no single natural choice of rotation in higher dimensions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .forest import (
    Forest,
    _build_forest,
    _rotate_rows,
    anomaly_score,
    as_dataset,
    score_batch,
)


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
    angles: Sequence[float] | None = None,
) -> Forest:
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
    if x.shape[1] != 2:
        raise ValueError(f"rotated variant supports dimension 2 only, got {x.shape[1]}")
    if angles is not None and len(angles) != t:
        raise ValueError(f"expected {t} forced angles, got {len(angles)}")
    return _build_forest(x, t, psi, 0, seed, rotated=True, angles=angles)


#: A rotated forest is scored like any other; these names are kept for
#: callers of the baseline's own scorers.
rotated_score = anomaly_score
rotated_score_batch = score_batch
