"""Isolation forest core: oblique splits, tree growth, and anomaly scoring.

Each split is a hyperplane (normal vector n, intercept point p); a point x
goes left when ``(x - p) . n <= 0``. The extension level controls how many
normal coordinates stay nonzero: level 0 leaves exactly one, which makes
every split an axis-parallel threshold (the classic isolation forest), while
level N-1 draws all N coordinates from N(0, 1) so splits can slope freely.

Scores follow ``s(x) = 2 ** (-E[h(x)] / c(psi))`` where h(x) is the depth at
which x lands in a tree plus a credit of ``c(size)`` for the unresolved leaf
population, and c(n) is the expected unsuccessful-search depth in a binary
search tree of n points.

Numerical contract: dot products are accumulated coordinate-by-coordinate in
index order, and per-tree depths are summed in tree order, in both the
single-point and the batch code paths. Batch scoring is therefore
bit-identical to a per-point loop, and replays with an equal seed reproduce
every output bit-for-bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import RngStream, choose_indices, make_rng, subsample

#: Euler-Mascheroni constant, at the precision used by the harmonic estimate.
EULER_GAMMA = 0.5772156649

VARIANT_STANDARD = "standard-equivalent"
VARIANT_EXTENDED = "extended"


@dataclass(frozen=True)
class Hyperplane:
    """One split: normal vector and intercept point, both of length N."""

    normal: np.ndarray
    intercept: np.ndarray


@dataclass
class Internal:
    split: Hyperplane
    left: "TreeNode"
    right: "TreeNode"


@dataclass
class External:
    """Leaf holding the count of training points that reached it."""

    size: int


TreeNode = Union[Internal, External]


@dataclass
class IsolationTree:
    root: TreeNode
    height_limit: int
    psi: int


@dataclass
class Forest:
    trees: list[IsolationTree]
    psi: int
    dimension: int
    extension_level: int
    normalizer: float
    variant: str
    seed: int

    @property
    def t(self) -> int:
        return len(self.trees)

    def score(self, data: np.ndarray) -> np.ndarray:
        return score_batch(data, self)


def harmonic_estimate(i: int) -> float:
    """ln(i) plus Euler's constant, the usual harmonic-number estimate."""
    if i < 1:
        raise ValueError(f"harmonic_estimate requires i >= 1, got {i}")
    return math.log(i) + EULER_GAMMA


def c_factor(n: int) -> float:
    """Average depth of an unsuccessful binary-search-tree search over n points.

    Exact values below n = 3 (the log estimate is badly off there: it would
    credit a 2-point leaf 0.154 instead of the exact 1).
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * harmonic_estimate(n - 1) - 2.0 * (n - 1) / n


def as_dataset(data, name: str = "data") -> np.ndarray:
    """Coerce to a (rows, dimension) float64 array of finite values."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (rows, dimension), got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    _require_finite(arr, name)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite cell (0-based row, column)."""
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(
            f"{name} contains non-finite value {arr[row, col]} at row {row}, column {col}"
        )


def _margins(points: np.ndarray, normal: np.ndarray, intercept: np.ndarray) -> np.ndarray:
    """(x - p) . n for each row, accumulated per coordinate in index order."""
    acc = np.zeros(points.shape[0])
    for d in range(points.shape[1]):
        acc += (points[:, d] - intercept[d]) * normal[d]
    return acc


def branch_left(x, h: Hyperplane) -> bool:
    """True when x belongs to the left branch: (x - p) . n <= 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != h.normal.shape[0]:
        raise ValueError(
            f"dimension mismatch: point has shape {x.shape}, "
            f"hyperplane dimension is {h.normal.shape[0]}"
        )
    return bool(_margins(x[np.newaxis, :], h.normal, h.intercept)[0] <= 0.0)


def sample_hyperplane(node_data: np.ndarray, extension_level: int, rng: RngStream) -> Hyperplane:
    """Draw one split for the points at a node.

    Normal coordinates come from N(0, 1); then N - 1 - extension_level of
    them, chosen uniformly without replacement, are zeroed. If the surviving
    coordinates all happen to be exactly zero the survivors are redrawn. The
    intercept draws every coordinate uniformly over that coordinate's range
    in ``node_data`` (coordinates under a zeroed normal entry are inert but
    drawn anyway, keeping stream consumption fixed).

    Draw order (normal, zero choice, redraws, intercept) is part of the
    reproducibility contract.
    """
    x = np.asarray(node_data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("sample_hyperplane requires at least 2 points")
    dim = x.shape[1]
    if not 0 <= extension_level <= dim - 1:
        raise ValueError(
            f"extension_level must be in [0, {dim - 1}] for dimension {dim}, "
            f"got {extension_level}"
        )

    normal = rng.standard_normal(dim)
    n_zero = dim - 1 - extension_level
    if n_zero > 0:
        keep = np.ones(dim, dtype=bool)
        keep[choose_indices(rng, dim, n_zero)] = False
        normal[~keep] = 0.0
    else:
        keep = np.ones(dim, dtype=bool)
    while not np.any(normal != 0.0):
        normal[keep] = rng.standard_normal(int(keep.sum()))

    intercept = rng.uniform(x.min(axis=0), x.max(axis=0))
    return Hyperplane(normal=normal, intercept=np.asarray(intercept, dtype=np.float64))


def build_tree(
    subsample_data: np.ndarray,
    current_height: int,
    height_limit: int,
    extension_level: int,
    rng: RngStream,
) -> TreeNode:
    """Grow a tree node recursively.

    A node becomes a leaf when the height limit is reached, one point or
    fewer remains, or every remaining point is identical (no hyperplane can
    separate duplicates, so spending depth on them is wasted).
    """
    x = np.asarray(subsample_data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"subsample must be 2-D, got shape {x.shape}")
    return _grow(x, current_height, height_limit, extension_level, rng)


def _grow(x, height, limit, extension_level, rng) -> TreeNode:
    n = x.shape[0]
    if height >= limit or n <= 1 or bool((x == x[0]).all()):
        return External(size=n)
    split = sample_hyperplane(x, extension_level, rng)
    went_left = _margins(x, split.normal, split.intercept) <= 0.0
    left = _grow(x[went_left], height + 1, limit, extension_level, rng)
    right = _grow(x[~went_left], height + 1, limit, extension_level, rng)
    return Internal(split=split, left=left, right=right)


def height_limit_for(psi: int) -> int:
    """ceiling(log2 psi), the depth cap used for every tree."""
    if psi < 1:
        raise ValueError(f"psi must be at least 1, got {psi}")
    return int(math.ceil(math.log2(psi))) if psi > 1 else 0


def _build_one_tree(
    data: np.ndarray,
    tree_index: int,
    root: RngStream,
    psi: int,
    limit: int,
    extension_level: int,
) -> IsolationTree:
    # Each tree owns its derived stream, so build order (or thread
    # scheduling) cannot change the result.
    stream = root.derive(tree_index)
    sample = subsample(stream, data, psi)
    node = _grow(sample, 0, limit, extension_level, stream)
    return IsolationTree(root=node, height_limit=limit, psi=psi)


def build_forest(
    data: np.ndarray,
    t: int,
    psi: int,
    extension_level: int,
    seed: int,
    *,
    threads: int = 1,
) -> Forest:
    """Train a forest of t trees, each on its own psi-point subsample.

    Tree i consumes only the child stream derived at index i, which makes
    training embarrassingly parallel; ``threads`` > 1 builds trees on a
    thread pool with output identical to the sequential build.
    """
    x = as_dataset(data)
    n, dim = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if psi < 2:
        raise ValueError(f"psi must be at least 2, got {psi}")
    if psi > n:
        raise ValueError(f"insufficient data: psi={psi} exceeds dataset size {n}")
    if not 0 <= extension_level <= dim - 1:
        raise ValueError(
            f"extension_level must be in [0, {dim - 1}] for dimension {dim}, "
            f"got {extension_level}"
        )

    limit = height_limit_for(psi)
    root = make_rng(seed)

    def build(i: int) -> IsolationTree:
        return _build_one_tree(x, i, root, psi, limit, extension_level)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(t)))
    else:
        trees = [build(i) for i in range(t)]

    variant = VARIANT_STANDARD if extension_level == 0 else VARIANT_EXTENDED
    return Forest(
        trees=trees,
        psi=psi,
        dimension=dim,
        extension_level=extension_level,
        normalizer=c_factor(psi),
        variant=variant,
        seed=seed,
    )


def _tree_dimension(tree: IsolationTree) -> int | None:
    node = tree.root
    if isinstance(node, Internal):
        return node.split.normal.shape[0]
    return None


def path_length(x, tree: IsolationTree) -> float:
    """Depth at which x lands, plus c(size) credit for the leaf population."""
    x = np.asarray(x, dtype=np.float64)
    dim = _tree_dimension(tree)
    if dim is not None and (x.ndim != 1 or x.shape[0] != dim):
        raise ValueError(f"dimension mismatch: point shape {x.shape}, tree dimension {dim}")
    row = x[np.newaxis, :]
    node = tree.root
    depth = 0
    while isinstance(node, Internal):
        margin = _margins(row, node.split.normal, node.split.intercept)[0]
        node = node.left if margin <= 0.0 else node.right
        depth += 1
    return depth + c_factor(node.size)


def _batch_path_lengths(x: np.ndarray, tree: IsolationTree) -> np.ndarray:
    out = np.empty(x.shape[0])
    stack = [(tree.root, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, External):
            out[idx] = depth + c_factor(node.size)
            continue
        went_left = _margins(x[idx], node.split.normal, node.split.intercept) <= 0.0
        stack.append((node.left, idx[went_left], depth + 1))
        stack.append((node.right, idx[~went_left], depth + 1))
    return out


def _pow2(exponent: float) -> float:
    # Scalar libm pow in every code path: numpy's array power can differ
    # from Python's by an ulp, which would break batch == loop bit equality.
    return 2.0 ** float(exponent)


def expected_depth(x, forest: Forest) -> float:
    """Mean path length over all trees (summed in tree order)."""
    if not forest.trees:
        raise ValueError("forest has no trees")
    total = 0.0
    for tree in forest.trees:
        total += path_length(x, tree)
    return total / len(forest.trees)


def anomaly_score(x, forest: Forest) -> float:
    """2 ** (-expected_depth / c(psi)); near 1 is anomalous, near 0.5 nominal."""
    return _pow2(-expected_depth(x, forest) / forest.normalizer)


def score_batch(data, forest: Forest) -> np.ndarray:
    """Scores for every row, order preserved; bit-identical to a per-point loop."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    if x.shape[0] == 0:
        return np.empty(0)
    if x.shape[1] != forest.dimension:
        raise ValueError(
            f"dimension mismatch: data has {x.shape[1]} columns, "
            f"forest dimension is {forest.dimension}"
        )
    _require_finite(x, "data")
    if not forest.trees:
        raise ValueError("forest has no trees")
    total = np.zeros(x.shape[0])
    for tree in forest.trees:
        total += _batch_path_lengths(x, tree)
    return _scores_from_depth_totals(total, len(forest.trees), forest.normalizer)


def _scores_from_depth_totals(total: np.ndarray, t: int, normalizer: float) -> np.ndarray:
    """Scores from per-row path lengths summed in tree order over t trees."""
    exponents = -(total / t) / normalizer
    return np.array([_pow2(e) for e in exponents])
