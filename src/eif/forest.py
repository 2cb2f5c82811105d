"""Isolation forest core: oblique splits, tree growth, and anomaly scoring.

Each split is a hyperplane (normal vector n, intercept point p); a point x
goes left when ``(x - p) . n <= 0``. The extension level controls how many
normal coordinates stay nonzero: level 0 leaves exactly one, which makes
every split an axis-parallel threshold (the classic isolation forest), while
level N-1 draws all N coordinates from N(0, 1) so splits can slope freely.
The rotated baseline (``build_rotated_forest``, 2-D only) is the same forest
at level 0 whose trees each carry a random angle: a tree's sample is turned by
it before growth, and so is every query point before it enters that tree. Each
tree keeps the bias of axis-parallel cuts, but the ensemble averages it out
across angles.

Scores follow ``s(x) = 2 ** (-E[h(x)] / c(psi))`` where h(x) is the depth at
which x lands in a tree plus a credit of ``c(size)`` for the unresolved leaf
population, and c(n) is the expected unsuccessful-search depth in a binary
search tree of n points.

Numerical contract: dot products are accumulated coordinate-by-coordinate in
index order, and per-tree depths are summed in tree order. ``score_batch`` is
the only scorer; the single-point functions are 1-row calls of it, so batch
scoring equals a per-point loop by construction, and replays with an equal
seed reproduce every output bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, choose_indices, make_rng, subsample

#: Euler-Mascheroni constant, at the precision used by the harmonic estimate.
EULER_GAMMA = 0.5772156649

TWO_PI = 2.0 * math.pi

VARIANT_STANDARD = "standard-equivalent"
VARIANT_EXTENDED = "extended"
VARIANT_ROTATED = "rotated"


@dataclass(frozen=True)
class Hyperplane:
    """One split: normal vector and intercept point, both of length N."""

    normal: np.ndarray
    intercept: np.ndarray


@dataclass(frozen=True)
class IsolationTree:
    """One tree as the node arrays the model file stores.

    The root is node 0. ``normal[k]`` and ``intercept[k]`` (shape
    ``(nodes, N)``) hold node k's split, zeros at leaves; ``left[k]`` and
    ``right[k]`` are its children, -1 at leaves; ``size[k]`` is the number of
    training points a leaf holds, 0 at internal nodes. ``angle`` is set on
    rotated-baseline trees only. A grown tree is in preorder (an internal
    node k has its left child at k + 1); a loaded one keeps the file's order.

    It is frozen and holds read-only views of the arrays it is given, so a
    tree a Forest has checked stays as checked; the caller's arrays keep
    their own flags.
    """

    normal: np.ndarray
    intercept: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    angle: float | None = None

    def __post_init__(self) -> None:
        for name in ("normal", "intercept", "left", "right", "size"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


@dataclass(frozen=True)
class Forest:
    """Trees plus the settings they were grown with. ``t``, ``dimension`` (the
    trees' split width), ``normalizer`` (c(psi)) and ``variant`` derive from them.

    Making one checks every model invariant, here and in ``_check_tree``, so
    built, loaded and hand-made forests pass the same checks. It is frozen,
    with its trees in a tuple, so it stays as checked.
    """

    trees: tuple[IsolationTree, ...]
    psi: int
    extension_level: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("forest has no trees")
        if not 2 <= self.psi < 2**63:
            raise ValueError(f"psi must be in [2, 2**63), got {self.psi}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        first, dim, level = self.trees[0], self.dimension, self.extension_level
        if not 0 <= level <= dim - 1:
            raise ValueError(f"extension_level must be in [0, {dim - 1}] for dimension {dim}, got {level}")
        if self.variant == VARIANT_ROTATED and dim != 2:
            raise ValueError(f"rotated variant requires dimension 2, got {dim}")
        if self.variant == VARIANT_ROTATED and level != 0:
            raise ValueError(f"rotated variant requires extension_level 0, got {level}")
        limit = height_limit_for(self.psi)
        for k, tree in enumerate(self.trees):
            if tree.normal.shape[1] != dim:
                raise ValueError(f"tree {k} splits in dimension {tree.normal.shape[1]}, tree 0 in dimension {dim}")
            if (tree.angle is None) != (first.angle is None):
                raise ValueError(f"tree {k} has angle {tree.angle} but tree 0 has angle {first.angle}: "
                                 "either every tree is rotated or none is")
            _check_tree(tree, f"tree {k}", self.psi, level + 1, limit)

    @property
    def t(self) -> int:
        return len(self.trees)

    @property
    def dimension(self) -> int:
        return self.trees[0].normal.shape[1]

    @property
    def normalizer(self) -> float:
        return c_factor(self.psi)

    @property
    def variant(self) -> str:
        if self.trees[0].angle is not None:
            return VARIANT_ROTATED
        return VARIANT_STANDARD if self.extension_level == 0 else VARIANT_EXTENDED

    def score(self, data: np.ndarray) -> np.ndarray:
        return score_batch(data, self)


def _check_tree(tree: IsolationTree, where: str, psi: int, nonzeros: int, limit: int) -> None:
    """Raise ValueError naming the first thing in ``tree`` that no grown tree
    has: a non-finite angle; for internal rows (``left >= 0``) children out of
    range or equal; a node that a level-by-level walk from the root reaches
    twice, beyond ``limit`` or never; leaf sizes below 0 or not summing to psi;
    non-finite split vectors, or normals without ``nonzeros`` nonzero entries.
    """
    left, right, size = tree.left, tree.right, tree.size
    n = len(left)
    if tree.angle is not None and not math.isfinite(tree.angle):
        raise ValueError(f"{where} has non-finite angle {tree.angle}")

    inner = np.flatnonzero(left >= 0)
    children = np.column_stack((left[inner], right[inner]))
    bad = np.argwhere((children < 0) | (children >= n))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"node {inner[i]} of {where} has child index {children[i, j]} out of range")
    same = np.flatnonzero(children[:, 0] == children[:, 1])
    if same.size:
        raise ValueError(f"node {inner[same[0]]} of {where} has identical children")

    visits = np.zeros(n, dtype=np.int64)
    frontier, depth = np.zeros(1, dtype=np.int64), 0
    while frontier.size:
        visits += np.bincount(frontier, minlength=n)
        twice = frontier[visits[frontier] > 1]
        if twice.size:
            raise ValueError(f"node {twice[0]} of {where} is reached twice (cycle or shared subtree)")
        if depth > limit:
            raise ValueError(f"node {frontier[0]} of {where} is at depth {depth}, beyond height_limit {limit}")
        split = frontier[left[frontier] >= 0]
        frontier, depth = np.column_stack((left[split], right[split])).ravel(), depth + 1
    unreached = np.flatnonzero(visits == 0)
    if unreached.size:
        raise ValueError(f"{where} has {unreached.size} unreachable node(s), the first is node {unreached[0]}")

    leaves = left < 0
    negative = np.flatnonzero(leaves & (size < 0))
    if negative.size:
        raise ValueError(f"node {negative[0]} of {where} has negative size {size[negative[0]]}")
    mass = sum(size[leaves].tolist())  # Python ints: an int64 sum could wrap
    if mass != psi:
        raise ValueError(f"{where} has leaf sizes summing to {mass}, expected psi={psi}")

    normal = tree.normal[inner]
    bad = np.flatnonzero(~(np.isfinite(normal).all(axis=1) & np.isfinite(tree.intercept[inner]).all(axis=1)))
    if bad.size:
        raise ValueError(f"node {inner[bad[0]]} of {where} has a non-finite split vector")
    counts = np.count_nonzero(normal, axis=1)
    wrong = np.flatnonzero(counts != nonzeros)
    if wrong.size:
        node, count = f"node {inner[wrong[0]]} of {where}", counts[wrong[0]]
        raise ValueError(f"{node} has an all-zero normal" if count == 0
                         else f"{node} has {count} nonzero normal entries, expected {nonzeros}")


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
    """(x - p) . n for each row, summed in index order over n's nonzero entries
    (a zero entry adds a signed zero, or NaN where x - p overflows)."""
    acc = np.zeros(points.shape[0])
    for d in np.flatnonzero(normal).tolist():
        acc += (points[:, d] - intercept[d]) * normal[d]
    return acc


def _rotate_rows(x: np.ndarray, angle: float) -> np.ndarray:
    """Turn each 2-D row by ``angle`` radians about the origin."""
    c = math.cos(angle)
    s = math.sin(angle)
    out = np.empty_like(x)
    out[:, 0] = x[:, 0] * c - x[:, 1] * s
    out[:, 1] = x[:, 0] * s + x[:, 1] * c
    return out


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


def _grow(x, height, limit, extension_level, rng, angle=None) -> IsolationTree:
    """Grow a tree on the rows of ``x`` whose root sits at ``height``.

    A node becomes a leaf when the height limit is reached, one point or
    fewer remains, or every remaining point is identical (no hyperplane can
    separate duplicates, so spending depth on them is wasted).
    """
    if x.shape[0] > 1:
        _require_finite_span(x)
    rows = []

    def grow(x, height) -> None:
        n = x.shape[0]
        if height >= limit or n <= 1 or bool((x == x[0]).all()):
            rows.append([None, None, -1, -1, n])
            return
        split = sample_hyperplane(x, extension_level, rng)
        row = [split.normal, split.intercept, len(rows) + 1, -1, 0]
        rows.append(row)
        went_left = _margins(x, split.normal, split.intercept) <= 0.0
        grow(x[went_left], height + 1)
        row[3] = len(rows)
        grow(x[~went_left], height + 1)

    grow(x, height)
    return tree_from_rows(rows, x.shape[1], angle)


def _require_finite_span(x: np.ndarray) -> None:
    """Intercepts are drawn over each column's range, which must have a finite width."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(hi - lo)
    if wide.any():
        col = int(np.flatnonzero(wide)[0])
        raise ValueError(f"training sample column {col} spans [{lo[col]}, {hi[col]}], whose width overflows float64")


def tree_from_rows(rows, dimension: int, angle: float | None = None) -> IsolationTree:
    """Tree from per-node ``[normal, intercept, left, right, size]`` rows.

    Leaf rows carry None vectors and get zeros. A lone leaf has no split to
    confirm ``dimension``, so its zero row is a read-only view of one value.
    Raises OverflowError for an index or size beyond int64.
    """
    left, right, size = (np.array(column, dtype=np.int64) for column in list(zip(*rows))[2:])
    normal = intercept = np.broadcast_to(np.float64(0.0), (len(rows), dimension))
    if len(rows) > 1:
        normal, intercept = np.zeros(normal.shape), np.zeros(normal.shape)
        for k in np.flatnonzero(left >= 0):
            normal[k], intercept[k] = rows[k][0], rows[k][1]
    return IsolationTree(normal=normal, intercept=intercept, left=left, right=right, size=size, angle=angle)


def height_limit_for(psi: int) -> int:
    """ceiling(log2 psi), the depth cap used for every tree."""
    if psi < 1:
        raise ValueError(f"psi must be at least 1, got {psi}")
    return int(psi - 1).bit_length()


def _build_one_tree(
    data: np.ndarray,
    tree_index: int,
    root: RngStream,
    psi: int,
    limit: int,
    extension_level: int,
    rotated: bool = False,
    angle: float | None = None,
) -> IsolationTree:
    # Each tree owns its derived stream, so build order cannot change the
    # result.
    stream = root.derive(tree_index)
    sample = subsample(stream, data, psi)
    if rotated:
        # A forced angle skips the draw, leaving the rest of the stream as
        # an unrotated level-0 tree would consume it.
        if angle is None:
            angle = float(stream.uniform(0.0, TWO_PI))
        sample = _rotate_rows(sample, angle)
    return _grow(sample, 0, limit, extension_level, stream, angle)


def build_forest(
    data: np.ndarray,
    t: int,
    psi: int,
    extension_level: int,
    seed: int,
) -> Forest:
    """Train a forest of t trees, each on its own psi-point subsample.

    Tree i consumes only the child stream derived at index i, so any prefix
    of the forest is the forest trained with that many trees.
    """
    return _build_forest(as_dataset(data), t, psi, extension_level, seed)


def build_rotated_forest(data: np.ndarray, t: int, psi: int, seed: int) -> Forest:
    """Train the rotated baseline on 2-D data.

    Per tree i: subsample with the tree's derived stream, draw an angle
    uniform on [0, 2*pi) from the same stream, rotate the subsample, and
    grow an extension-level-0 tree on the rotated points.
    """
    x = as_dataset(data)
    if x.shape[1] != 2:
        raise ValueError(f"rotated variant supports dimension 2 only, got {x.shape[1]}")
    return _build_forest(x, t, psi, 0, seed, rotated=True)


def _build_forest(x, t, psi, extension_level, seed, rotated=False, angles=None) -> Forest:
    """``angles`` forces rotated trees' angles, skipping their draw: at all 0 the
    build is draw-for-draw a level-0 forest. The Forest checks the settings."""
    limit = height_limit_for(psi)
    root = make_rng(seed)
    trees = [
        _build_one_tree(x, i, root, psi, limit, extension_level, rotated,
                        None if angles is None else float(angles[i]))
        for i in range(t)
    ]
    return Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)


def _path_lengths(x: np.ndarray, tree: IsolationTree) -> np.ndarray:
    """Per row: depth at which it lands, plus c(size) credit for the leaf."""
    if tree.angle is not None:
        x = _rotate_rows(x, tree.angle)
    left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
    out = np.empty(x.shape[0])
    stack = [(0, np.arange(x.shape[0]), 0)]
    while stack:
        k, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if left[k] < 0:
            out[idx] = depth + c_factor(size[k])
            continue
        went_left = _margins(x[idx], tree.normal[k], tree.intercept[k]) <= 0.0
        stack.append((left[k], idx[went_left], depth + 1))
        stack.append((right[k], idx[~went_left], depth + 1))
    return out


def _one_row(x, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != dimension:
        raise ValueError(f"dimension mismatch: point shape {x.shape}, dimension is {dimension}")
    return x[np.newaxis, :]


def path_length(x, tree: IsolationTree) -> float:
    """Depth at which x lands, plus c(size) credit for the leaf population."""
    row = _one_row(x, tree.normal.shape[1])
    _require_finite(row, "x")
    return float(_path_lengths(row, tree)[0])


def _pow2(exponent: float) -> float:
    # Scalar libm pow in every code path: numpy's array power can differ
    # from Python's by an ulp, which would break batch == loop bit equality.
    return 2.0 ** float(exponent)


def expected_depth(x, forest: Forest) -> float:
    """Mean path length over all trees (summed in tree order)."""
    return float(_depth_totals(_one_row(x, forest.dimension), forest)[0]) / forest.t


def anomaly_score(x, forest: Forest) -> float:
    """2 ** (-expected_depth / c(psi)); near 1 is anomalous, near 0.5 nominal."""
    return float(score_batch(_one_row(x, forest.dimension), forest)[0])


def score_batch(data, forest: Forest) -> np.ndarray:
    """Scores for every row, order preserved."""
    total = _depth_totals(data, forest)
    return _scores_from_depth_totals(total, forest.t, forest.normalizer)


def _depth_totals(data, forest: Forest) -> np.ndarray:
    """Per-row path lengths summed over the trees in tree order."""
    x = as_dataset(data)
    if x.shape[1] != forest.dimension:
        raise ValueError(
            f"dimension mismatch: data has {x.shape[1]} columns, "
            f"forest dimension is {forest.dimension}"
        )
    total = np.zeros(x.shape[0])
    for tree in forest.trees:
        total += _path_lengths(x, tree)
    return total


def _scores_from_depth_totals(total: np.ndarray, t: int, normalizer: float) -> np.ndarray:
    """Scores from per-row path lengths summed in tree order over t trees."""
    exponents = -(total / t) / normalizer
    return np.array([_pow2(e) for e in exponents])
