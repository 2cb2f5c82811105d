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

Numerical contract: a margin ``(x - p) . n`` sums the terms of n's nonzero
coordinates in index order, and per-tree depths are summed in tree order.
Building and scoring hold the points column-major, as a (dimension, points)
block, and ``_margins`` adds the terms either one at a time or as an axis-0
reduce over a C-contiguous block, which adds its rows in order. A reduce over
an F-ordered view or along ``axis=1`` must never sum them: numpy sums those
pairwise, which changes the bits from 9 terms up. ``score_batch`` is the
only scorer; the single-point functions are 1-row calls of it, so batch
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

    Making one checks every model invariant, in ``_check_settings``, here and
    in ``_check_tree``, so built, loaded and hand-made forests pass the same
    checks. The settings must be integers, not floats or bools, and are
    stored as Python ints. It is frozen, with its trees in a tuple, so it
    stays as checked.
    """

    trees: tuple[IsolationTree, ...]
    psi: int
    extension_level: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        dim = self.dimension if self.trees else 0
        _, psi, level, seed = _check_settings(len(self.trees), self.psi, self.extension_level, self.seed, dim)
        for name, value in (("psi", psi), ("extension_level", level), ("seed", seed)):
            object.__setattr__(self, name, value)  # a numpy integer would not save as JSON
        first = self.trees[0]
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


def _check_settings(t, psi, extension_level, seed, dimension: int) -> tuple[int, int, int, int]:
    """Return the settings as Python ints, or raise ValueError naming the
    first one that is not an integer (floats and bools are not) or is out of
    range for a forest of ``dimension`` columns."""
    values = {"t": t, "psi": psi, "extension_level": extension_level, "seed": seed}
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    t, psi, extension_level, seed = (int(value) for value in values.values())
    if t < 1:
        raise ValueError(f"forest has no trees: t must be at least 1, got {t}")
    if not 2 <= psi < 2**63:
        raise ValueError(f"psi must be in [2, 2**63), got {psi}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    _check_extension_level(extension_level, dimension)
    return t, psi, extension_level, seed


def _check_extension_level(extension_level: int, dimension: int) -> None:
    if not 0 <= extension_level <= dimension - 1:
        raise ValueError(f"extension_level must be in [0, {dimension - 1}] for dimension {dimension}, "
                         f"got {extension_level}")


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


def _margins(xt: np.ndarray, normal: np.ndarray, intercept: np.ndarray, idx=None) -> np.ndarray:
    """(x - p) . n for the points that are the columns of the (dimension,
    points) block ``xt``, or only for its columns ``idx``.

    Only n's nonzero entries add a term, in index order (a zero entry would
    add a signed zero, or NaN where x - p overflows). A single term is one
    1-D expression. For all the columns, which ``_grow`` uses, the terms are
    an axis-0 reduce over the nonzero rows of ``xt``, which must be
    C-contiguous: the reduce then adds one row at a time. For the columns
    ``idx``, which scoring uses, each term gathers one 1-D column and is
    added in place, so no (points, dimension) copy is made.
    """
    nz = np.flatnonzero(normal)
    if nz.size == 1:
        d = nz[0]
        return ((xt[d] if idx is None else xt[d][idx]) - intercept[d]) * normal[d]
    if idx is None:
        block = xt if nz.size == xt.shape[0] else xt[nz]
        return np.add.reduce((block - intercept[nz, None]) * normal[nz, None], axis=0)
    dims = nz.tolist()
    acc = (xt[dims[0]][idx] - intercept[dims[0]]) * normal[dims[0]]
    for d in dims[1:]:
        acc += (xt[d][idx] - intercept[d]) * normal[d]
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
    """Draw one split for the points at a node, as ``_grow`` does (see
    ``_draw_split``)."""
    x = np.asarray(node_data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("sample_hyperplane requires at least 2 points")
    dim = x.shape[1]
    _check_extension_level(extension_level, dim)
    normal, intercept = _draw_split(rng, dim, dim - 1 - extension_level, x.min(axis=0), x.max(axis=0))
    return Hyperplane(normal=normal, intercept=intercept)


def _draw_split(rng: RngStream, dim: int, n_zero: int, lo: np.ndarray, hi: np.ndarray):
    """Draw one split's normal and intercept for points spanning [lo, hi].

    Normal coordinates come from N(0, 1); then ``n_zero`` of them, chosen
    uniformly without replacement, are zeroed. If the surviving coordinates
    all happen to be exactly zero the survivors are redrawn. The intercept
    draws every coordinate uniformly over [lo, hi] (coordinates under a
    zeroed normal entry are inert but drawn anyway, keeping stream
    consumption fixed).

    Draw order (normal, zero choice, redraws, intercept) is part of the
    reproducibility contract.
    """
    normal = rng.standard_normal(dim)
    keep = np.ones(dim, dtype=bool)
    if n_zero:  # at full extension, skip the call: even an empty choice costs a numpy draw
        keep[choose_indices(rng, dim, n_zero)] = False
        normal[~keep] = 0.0
    while not np.any(normal != 0.0):
        normal[keep] = rng.standard_normal(int(keep.sum()))
    return normal, rng.uniform(lo, hi)


def _grow(x, *, limit, extension_level, rng, angle=None) -> IsolationTree:
    """Grow a tree on the rows of ``x``, drawing its splits from ``rng``.

    A node becomes a leaf when the height limit is reached, one point or
    fewer remains, or every remaining point is identical (no hyperplane can
    separate duplicates, so spending depth on them is wasted). The points
    are held as a C-contiguous (dimension, points) block, split by column.
    Each node takes its coordinates' range [lo, hi] once: it is both the
    leaf test (lo == hi in every coordinate means identical points) and the
    span of the intercept draw, and at the root it must have a finite width.
    """
    dim = x.shape[1]
    n_zero = dim - 1 - extension_level
    rows = []

    def grow(xt, height) -> None:
        n = xt.shape[1]
        if height < limit and n > 1:
            lo, hi = xt.min(axis=1), xt.max(axis=1)
            if height == 0:
                _require_finite_span(lo, hi)
            if not (lo == hi).all():
                normal, intercept = _draw_split(rng, dim, n_zero, lo, hi)
                row = [normal, intercept, len(rows) + 1, -1, 0]
                rows.append(row)
                went_left = _margins(xt, normal, intercept) <= 0.0
                # compress keeps the block C-contiguous, as _margins needs; xt[:, mask] is F-ordered
                grow(np.compress(went_left, xt, axis=1), height + 1)
                row[3] = len(rows)
                grow(np.compress(~went_left, xt, axis=1), height + 1)
                return
        rows.append([None, None, -1, -1, n])

    grow(np.ascontiguousarray(x.T), 0)
    return tree_from_rows(rows, dim, angle)


def _require_finite_span(lo: np.ndarray, hi: np.ndarray) -> None:
    """Intercepts are drawn over each column's range [lo, hi], which must have a finite width."""
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


def _build_forest(x, t, psi, extension_level, seed, rotated=False) -> Forest:
    """Per tree i, in this order: derive stream i from the seed's root stream,
    draw the psi-row subsample from it, and, for a rotated forest, draw the
    tree's angle uniform on [0, 2*pi) and turn the subsample by it; then grow
    the tree on the same stream. Tree i reads only stream i, so build order
    cannot change a tree. The settings are checked before any tree grows."""
    t, psi, extension_level, seed = _check_settings(t, psi, extension_level, seed, x.shape[1])
    limit = height_limit_for(psi)
    root = make_rng(seed)
    trees = []
    for i in range(t):
        stream = root.derive(i)
        sample = subsample(stream, x, psi)
        angle = None
        if rotated:
            angle = float(stream.uniform(0.0, TWO_PI))
            sample = _rotate_rows(sample, angle)
        trees.append(_grow(sample, limit=limit, extension_level=extension_level, rng=stream, angle=angle))
    return Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)


def _path_lengths(x: np.ndarray, tree: IsolationTree) -> np.ndarray:
    """Per row: depth at which it lands, plus c(size) credit for the leaf."""
    if tree.angle is not None:
        x = _rotate_rows(x, tree.angle)
    xt = np.ascontiguousarray(x.T)
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
        went_left = _margins(xt, tree.normal[k], tree.intercept[k], idx) <= 0.0
        stack.append((left[k], idx[went_left], depth + 1))
        stack.append((right[k], idx[~went_left], depth + 1))
    return out


def _one_row(x, dimension: int) -> np.ndarray:
    """A single point as a finite (1, dimension) array; errors name it ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != dimension:
        raise ValueError(f"dimension mismatch: point shape {x.shape}, dimension is {dimension}")
    row = x[np.newaxis, :]
    _require_finite(row, "x")
    return row


def path_length(x, tree: IsolationTree) -> float:
    """Depth at which x lands, plus c(size) credit for the leaf population."""
    return float(_path_lengths(_one_row(x, tree.normal.shape[1]), tree)[0])


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
    # Python's scalar 2.0 ** e, one exponent at a time: np.power and np.exp2
    # differ from it in the last bit on about 5% of exponents, and the PINNED
    # score hashes and the scalar oracle in the tests are held to these bits.
    exponents = -(total / t) / normalizer
    return np.array([2.0 ** e for e in exponents.tolist()])
