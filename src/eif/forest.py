"""Isolation forest core: oblique splits, tree growth, and anomaly scoring.

Each split is a hyperplane (normal vector n, intercept point p); a point x
goes left when ``(x - p) . n <= 0``. The extension level controls how many
normal coordinates stay nonzero: level 0 leaves exactly one, which makes
every split an axis-parallel threshold (the classic isolation forest), while
level N-1 draws all N coordinates from N(0, 1) so splits can slope freely.
Every level draws N normals per node; level 0 keeps the largest in magnitude,
a uniform choice of axis, and an intermediate level zeroes those under the
node's smallest uniform keys, a uniform choice of coordinates.
The rotated baseline (``build_rotated_forest``, 2-D only) is the same forest
at level 0 whose trees each carry a random angle: a tree's sample is turned by
it before growth, and so is every query point before it enters that tree. Each
tree keeps the bias of axis-parallel cuts, but the ensemble averages it out
across angles.

Scores follow ``s(x) = 2 ** (-E[h(x)] / c(psi))`` where h(x) is the depth at
which x lands in a tree plus a credit of ``c(size)`` for the unresolved leaf
population, and c(n) is the expected unsuccessful-search depth in a binary
search tree of n points.

Training grows the trees of a forest a chunk at a time (``_grow_chunk``),
level by level (``_grow_levels``): each step makes one numpy pass over every
node, of every tree, at one depth, so a chunk takes at most one step per
depth, and draws the step's splits in one call (``_draw_splits``). There
each tree draws its own nodes' splits from its own stream, left to right,
one kind of draw at a time. So a tree is the same grown alone or with
others, and the forest is the same for any chunk size. A chunk grows on one
(dimension, points) block of its trees' samples, which the step reorders in
place, a row at a time, so that the points of the nodes that may still split
are its leading columns; no step copies it, and it is freed, with the step's
temporaries, before the chunk's node arrays are made (``_tree_arrays``; 16-D
full, 100 trees at psi 256: a tracemalloc peak of 2.3 times the block). The
trees are checked a chunk per pass too, in one ``_check_trees`` call, which
``Forest`` and ``_tree_stream`` both make, so both name the first faulty
tree in tree order.

Numerical contract: a margin ``(x - p) . n`` sums the terms of n's nonzero
coordinates in index order, and per-tree depths are summed in tree order.
Building and scoring hold the points column-major, as a (dimension, points)
block. Training's ``_split_margins`` adds the terms one at a time, a row of
terms per coordinate at full extension. Scoring's ``_margins`` does too,
or, where every normal entry of more than two is nonzero, sums them by an
axis-0 reduce over a C-contiguous block of two or more points, which adds
its rows in order: the same bits. A reduce over one point's (k, 1) block,
over an F-ordered view or along ``axis=1`` must never sum them: numpy sums
those pairwise, which changes the bits from 9 terms up. ``_prefix_scores``
is the one place depths are summed in tree order and turned into scores.
It reads trees once, in order, from any iterable:
``score_batch`` gives it a forest's trees, and ``convergence_curve`` gives it
``_tree_stream``, which grows and checks one chunk at a time, so the curve
holds one chunk of trees, not the whole forest (on 20k 8-D rows at level 0
with 1,000 probes, a tracemalloc peak of 4.3 MB at 2,000 trees, where the
whole forest took 41.9 MB). ``path_lengths`` gives its per-tree terms. A
point scores the same alone or in any batch, and replays with an equal seed
reproduce every output bit-for-bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .rng import RngStream, _check_count, _check_integer, derive_stream, make_rng, subsample

#: Euler-Mascheroni constant: ``c_factor`` estimates the harmonic number H(i) as ln(i) + EULER_GAMMA.
EULER_GAMMA = 0.5772156649

TWO_PI = 2.0 * math.pi

#: Trees that ``_grow_chunk`` grows together, level by level, and that
#: ``Forest`` and ``_tree_stream`` check in one ``_check_trees`` call. The
#: block of their points grows with it; fewer trees share each step's numpy
#: calls among fewer nodes. In two sets of 8 alternated rounds of 500
#: level-0 trees on 20k 8-D rows (CPU seconds), 50 took a median 1.08x and
#: 1.01x as long as 100, and 200 took 1.02x and 0.97x but held 1.8 MB more
#: at its tracemalloc peak (15.6 against 13.7 MB).
_CHUNK_TREES = 100

VARIANT_STANDARD = "standard-equivalent"
VARIANT_EXTENDED = "extended"
VARIANT_ROTATED = "rotated"


@dataclass(frozen=True)
class IsolationTree:
    """One tree as the node arrays the model file stores.

    The root is node 0. ``normal[k]`` and ``intercept[k]`` (shape
    ``(nodes, N)``) hold node k's split, zeros at leaves; ``left[k]`` and
    ``right[k]`` are its children, -1 at leaves; ``size[k]`` is the number of
    training points a leaf holds, 0 at internal nodes. ``angle`` is set on
    rotated-baseline trees only. A grown tree is in preorder (an internal
    node k has its left child at k + 1); a loaded one keeps the file's order.

    It is frozen and holds read-only views of the arrays it is given (of
    ``np.asarray`` of anything else), so a tree a Forest has checked stays as
    checked; the caller's arrays keep their own flags. An angle that is a
    real number other than a bool is held as a Python float, so it saves as
    JSON, or as +-inf beyond the float range; ``Forest`` rejects any other
    angle, and a non-finite one.
    """

    normal: np.ndarray
    intercept: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    angle: float | None = None

    def __post_init__(self) -> None:
        for name in ("normal", "intercept", "left", "right", "size"):
            view = np.asarray(getattr(self, name)).view()  # an ndarray is not copied
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if isinstance(self.angle, numbers.Real) and not isinstance(self.angle, bool):
            try:
                angle = float(self.angle)
            except OverflowError:  # an int beyond the float range: Forest names it as non-finite
                angle = math.inf if self.angle > 0 else -math.inf
            object.__setattr__(self, "angle", angle)


@dataclass(frozen=True)
class Forest:
    """Trees plus the settings they were grown with. ``t``, ``dimension`` (the
    trees' split width), ``normalizer`` (c(psi)) and ``variant`` derive from them.

    Making one checks every model invariant, so built, loaded and hand-made
    forests pass the same checks, in this order: tree 0's node arrays
    (``_check_arrays``: its ``normal`` sets the dimension), the settings
    (``_check_settings``, the rotated variant's rules too), then
    ``_check_trees`` once per ``_CHUNK_TREES`` trees, which states the tree
    invariants once and names the first faulty tree in tree order, with no
    second path. The settings must be integers, not floats or bools, and are
    stored as Python ints. It is frozen, with its trees in a tuple, so it
    stays as checked.
    """

    trees: tuple[IsolationTree, ...]
    psi: int
    extension_level: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        if self.trees:
            _check_arrays(self.trees[0], "tree 0", None)
        dim = self.dimension if self.trees else 0
        rotated = bool(self.trees) and self.trees[0].angle is not None
        _, psi, level, seed = _check_settings(len(self.trees), self.psi, self.extension_level, self.seed, dim, rotated)
        for name, value in (("psi", psi), ("extension_level", level), ("seed", seed)):
            object.__setattr__(self, name, value)  # a numpy integer would not save as JSON
        for start in range(0, self.t, _CHUNK_TREES):
            _check_trees(self.trees[start:start + _CHUNK_TREES], start, self.trees[0].angle, psi, level, dim)

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
        """``score_batch(data, self)``, kept for ``bench/`` until ROADMAP item 2; the package calls that."""
        return score_batch(data, self)


def _check_settings(t, psi, extension_level, seed, dimension: int, rotated: bool) -> tuple[int, int, int, int]:
    """Return the settings as Python ints, or raise ValueError naming the
    first one that is not an integer (floats and bools are not) or is out of
    range for a forest of ``dimension`` columns. A ``rotated`` forest must
    also be 2-D and of extension level 0: these are the only statements of
    the rotated variant's rules, for built and made forests alike."""
    values = {"t": t, "psi": psi, "extension_level": extension_level, "seed": seed}
    t, psi, extension_level, seed = (_check_integer(name, value) for name, value in values.items())
    if t < 1:
        raise ValueError(f"forest has no trees: t must be at least 1, got {t}")
    if t >= 2**63:
        raise ValueError(f"t must be in [1, 2**63), got {t}")
    if not 2 <= psi < 2**63:
        raise ValueError(f"psi must be in [2, 2**63), got {psi}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    _check_extension_level(extension_level, dimension)
    if rotated and dimension != 2:
        raise ValueError(f"rotated variant requires dimension 2, got {dimension}")
    if rotated and extension_level != 0:
        raise ValueError(f"rotated variant requires extension_level 0, got {extension_level}")
    return t, psi, extension_level, seed


def _check_extension_level(extension_level: int, dimension: int) -> None:
    if not 0 <= extension_level <= dimension - 1:
        raise ValueError(f"extension_level must be in [0, {dimension - 1}] for dimension {dimension}, "
                         f"got {extension_level}")


def _check_arrays(tree: IsolationTree, where: str, dim: int | None) -> None:
    """Raise ValueError if ``tree`` is not an IsolationTree, or naming the
    first node array of it of the wrong kind or shape: ``left``, ``right``
    and ``size`` 1-D integer arrays of one entry per node (at least one), and
    ``normal`` and ``intercept`` 2-D float arrays, no wider than float64, of
    one row per node, ``dim`` wide if ``dim`` is given."""
    if not isinstance(tree, IsolationTree):
        raise ValueError(f"{where} is {type(tree).__name__}, expected an IsolationTree")
    n = len(tree.left) if tree.left.ndim == 1 else 0
    for name, kind, ndim in (("left", np.integer, 1), ("right", np.integer, 1), ("size", np.integer, 1),
                             ("normal", np.floating, 2), ("intercept", np.floating, 2)):
        arr = getattr(tree, name)
        if not np.issubdtype(arr.dtype, kind):
            raise ValueError(f"{where} has {name} of dtype {arr.dtype}, expected {kind.__name__} values")
        if kind is np.floating and arr.dtype.itemsize > 8:  # a longdouble would not save as JSON
            raise ValueError(f"{where} has {name} of dtype {arr.dtype}, expected floating values of at most 64 bits")
        if arr.ndim != ndim or len(arr) != n or n == 0:
            raise ValueError(f"{where} has {name} of shape {arr.shape}, expected {ndim}-D with "
                             f"{n or 'at least 1'} row(s), one per node")
    if dim is not None and tree.normal.shape[1] != dim:
        raise ValueError(f"{where} splits in dimension {tree.normal.shape[1]}, tree 0 in dimension {dim}")
    if tree.intercept.shape != tree.normal.shape:
        raise ValueError(f"{where} has intercept of shape {tree.intercept.shape}, expected {tree.normal.shape}")


def _joined(arrays) -> np.ndarray:
    """Integer arrays end to end as int64, a uint64 value beyond it as its maximum: still an out-of-range child."""
    return np.concatenate([np.minimum(a, 2**63 - 1) if a.dtype == np.uint64 else a for a in arrays], dtype=np.int64)


def _check_trees(trees, first: int, angle, psi: int, extension_level: int, dim: int) -> None:
    """Raise ValueError naming the first fault in ``trees``, trees ``first``
    on of a forest of ``psi`` and ``extension_level`` whose tree 0 has
    ``angle`` and splits in ``dim`` dimensions. In tree order, and in each
    tree in this order, a fault is: node arrays of the wrong kind or shape
    (``_check_arrays``); an angle set where tree 0's is not (or unset where it
    is), or not a finite float; for internal rows (``left >= 0``), children
    out of range or equal; a node that a level-by-level walk from the root
    reaches twice, beyond psi's height limit or never; leaf sizes below 0 or
    not summing to psi; non-finite split vectors, or normals without
    ``extension_level + 1`` nonzero entries.

    The array checks run first, tree by tree, up to the first faulty tree.
    Each other check runs once over the trees before it, on their node arrays
    joined end to end with child indices offset into global node ids, and
    looks only at the trees before the first fault found so far (``end``), so
    a later check can only name an earlier tree. The walk starts at every
    root at once and keeps each tree's frontier order: per split, left child,
    then right. Leaf sizes are summed exactly, in 32-bit halves.
    """
    end, fault = len(trees), None  # the trees before the first fault found so far, and its message
    for k, tree in enumerate(trees):
        try:
            _check_arrays(tree, f"tree {first + k}", dim)
        except ValueError as err:
            if k == 0:  # no tree is left to check before it
                raise
            end, fault = k, str(err)
            break
    trees, limit, nonzeros = trees[:end], height_limit_for(psi), extension_level + 1
    lens = [len(tree.left) for tree in trees]
    bounds = np.cumsum([0] + lens)  # tree k's nodes have the global ids bounds[k] to bounds[k + 1] - 1
    roots, owner = bounds[:-1], np.repeat(np.arange(len(trees)), lens)
    left, right, size = (_joined([getattr(tree, name) for tree in trees]) for name in ("left", "right", "size"))

    def fail(nodes, message) -> None:
        """Make ``message(k, node, where)`` the fault if the global id ``nodes[0]`` is in a tree k before end."""
        nonlocal end, fault
        if nodes.size and nodes[0] < bounds[end]:
            end = int(owner[nodes[0]])
            fault = message(end, int(nodes[0] - bounds[end]), f"tree {first + end}")

    fail(roots[[(tree.angle is None) != (angle is None) for tree in trees]],
         lambda k, _, where: f"{where} has angle {trees[k].angle} but tree 0 has angle {angle}: "
                             "either every tree is rotated or none is")
    fail(roots[[not math.isfinite(tree.angle) if type(tree.angle) is float else tree.angle is not None
                for tree in trees]],
         lambda k, _, where: f"{where} has non-finite angle {trees[k].angle}" if type(trees[k].angle) is float
         else f"{where} has angle {trees[k].angle!r}, expected a real number other than a bool")

    def out_of_range(k, node, where):  # the left child is named if both are out
        child = trees[k].left[node] if trees[k].left[node] >= lens[k] else trees[k].right[node]
        return f"node {node} of {where} has child index {child} out of range"

    inner = np.flatnonzero(left >= 0)
    lo, hi, n = left[inner], right[inner], np.repeat(lens, lens)[inner]
    fail(inner[(hi < 0) | (lo >= n) | (hi >= n)], out_of_range)
    fail(inner[lo == hi], lambda k, node, where: f"node {node} of {where} has identical children")

    down = np.full((bounds[-1], 2), -1)  # each internal node's children, as global ids; read only before tree end
    down[inner] = np.column_stack((lo, hi)) + roots[owner[inner], None]
    visits = np.zeros(bounds[end], dtype=np.int64)
    frontier, depth = roots[:end], 0
    while frontier.size:
        visits += np.bincount(frontier, minlength=len(visits))
        fail(frontier[visits[frontier] > 1],
             lambda k, node, where: f"node {node} of {where} is reached twice (cycle or shared subtree)")
        if depth > limit:  # every tree left in the frontier is too deep; the first of them is named
            fail(frontier, lambda k, node, where: f"node {node} of {where} is at depth {depth}, "
                                                  f"beyond height_limit {limit}")
        frontier = frontier[frontier < bounds[end]]
        frontier, depth = down[frontier[down[frontier, 0] >= 0]].ravel(), depth + 1
    fail(np.flatnonzero(visits == 0),
         lambda k, node, where: f"{where} has {np.count_nonzero(visits[bounds[k]:bounds[k + 1]] == 0)} "
                                f"unreachable node(s), the first is node {node}")

    leaf = left < 0
    fail(np.flatnonzero(leaf & (size < 0)),
         lambda k, node, where: f"node {node} of {where} has negative size {trees[k].size[node]}")
    # as uint64 every size of at least 0 is exact, and so is every leaf size of the trees before end
    mass = np.where(leaf, np.concatenate([tree.size for tree in trees], dtype=np.uint64, casting="unsafe"), 0)
    high, low = (np.add.reduceat(half, roots) for half in (mass >> 32, mass & 0xFFFFFFFF))
    fail(roots[(high + (low >> 32) != psi >> 32) | (low & 0xFFFFFFFF != psi & 0xFFFFFFFF)],
         lambda k, _, where: f"{where} has leaf sizes summing to "
                             f"{sum(trees[k].size[trees[k].left < 0].tolist())}, expected psi={psi}")

    splits = np.split(left >= 0, bounds[1:-1].tolist())  # internal rows only: leaf rows go unread, at any width
    finite = np.concatenate([np.isfinite(tree.normal[split]).all(axis=1)
                             & np.isfinite(tree.intercept[split]).all(axis=1) for tree, split in zip(trees, splits)])
    fail(inner[~finite], lambda k, node, where: f"node {node} of {where} has a non-finite split vector")
    counts = np.concatenate([np.count_nonzero(tree.normal[split], axis=1) for tree, split in zip(trees, splits)])
    wrong = np.flatnonzero(counts != nonzeros)
    fail(inner[wrong],
         lambda k, node, where: f"node {node} of {where} has an all-zero normal" if counts[wrong[0]] == 0
         else f"node {node} of {where} has {counts[wrong[0]]} nonzero normal entries, expected {nonzeros}")
    if fault:
        raise ValueError(fault)


def c_factor(n: int) -> float:
    """Average depth of an unsuccessful binary-search-tree search over n points.

    Exact values below n = 3 (the log estimate is badly off there: it would
    credit a 2-point leaf 0.154 instead of the exact 1).
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n


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


def _columns(x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` as the columns of a C-contiguous (dimension, rows) block."""
    return np.ascontiguousarray(x.T)


def _margins(xt: np.ndarray, normal: np.ndarray, intercept: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(x - p) . n for the points that are the columns ``idx`` of the
    (dimension, points) block ``xt``, as scoring sends them down a tree.

    Only n's nonzero entries add a term, in index order (a zero entry would
    add a signed zero, or NaN where x - p overflows). When every entry is
    nonzero, more than two coordinates and more than one point, the points
    are gathered as one C-contiguous (dimension, points) block, the terms are
    formed in place, and an axis-0 reduce adds its rows in order, which gives
    the bits of training's ``_split_margins``, whose sum adds one row of
    terms at a time. Each guard keeps a case where the block is slower or
    changes bits:

    - two coordinates: the block took 1.00-1.21x as long as two column terms
      on a 200x200 2-D score map, so 2-D scoring keeps its code;
    - one point: numpy reduces a (k, 1) block as a contiguous line, pairwise,
      which from 9 terms can differ in the last bit from the in-order sum;
    - a zero entry: the block would add its term. Counting ``dims``, which the
      column loop needs anyway, costs no numpy call on the level-0 path.

    Otherwise each term gathers one 1-D column and is added in place, so no
    (points, dimension) copy is made.
    """
    dims = normal.nonzero()[0].tolist()
    if len(dims) == len(xt) > 2 and len(idx) > 1:
        block = xt.take(idx, axis=1)
        block -= intercept[:, None]
        block *= normal[:, None]
        return np.add.reduce(block, axis=0)
    acc = (xt[dims[0]][idx] - intercept[dims[0]]) * normal[dims[0]]
    for d in dims[1:]:
        acc += (xt[d][idx] - intercept[d]) * normal[d]
    return acc


def _rotate(xt: np.ndarray, angle: float) -> np.ndarray:
    """Turn each column of the (2, points) block ``xt`` by ``angle`` radians
    about the origin, into a C-contiguous block of its own."""
    c = math.cos(angle)
    s = math.sin(angle)
    out = np.empty(xt.shape)
    out[0] = xt[0] * c - xt[1] * s
    out[1] = xt[0] * s + xt[1] * c
    return out


def sample_hyperplane(node_data: np.ndarray, extension_level: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Draw one split ``(normal, intercept)`` for the points at a node, as
    training draws the split of a node alone on its level (see
    ``_draw_splits``, where the nodes that share a level take each kind of
    draw in turn). The points must be a finite (rows, dimension) dataset
    (``as_dataset``) of at least 2 rows, each column's range must have a
    finite width, and ``extension_level`` must be an integer in
    [0, dimension - 1]; nothing is drawn otherwise."""
    x = as_dataset(node_data, "node_data")
    if x.shape[0] < 2:
        raise ValueError("sample_hyperplane requires at least 2 points")
    dim = x.shape[1]
    level = _check_integer("extension_level", extension_level)
    _check_extension_level(level, dim)
    lo, hi = x.min(axis=0), x.max(axis=0)
    _require_finite_span(lo, hi, "node_data")
    normal, intercept, _ = _draw_splits([rng], [1], dim, dim - 1 - level, lo[:, None], (hi - lo)[:, None])
    return normal[0], intercept[0]


def _draw_splits(streams, counts, dim: int, n_zero: int, lo: np.ndarray, span: np.ndarray):
    """Draw one split per node: row r of the returned ``(normal, intercept)``,
    each ``(nodes, dim)``, is the split of node r, whose points span [lo, lo +
    span] in column r of the ``(dim, nodes)`` arrays ``lo`` and ``span``.
    The nodes are in groups, one per stream: ``streams[g]`` draws the next
    ``counts[g]`` rows. So no stream may appear twice: its groups' draws
    would interleave. The third array returned, ``(nodes, dim - n_zero)``,
    holds each row's kept coordinates in ascending order, for
    ``_split_margins``.

    Per node, normal coordinates come from N(0, 1). At an intermediate level
    the node then draws ``dim`` uniform keys, and the coordinates of its
    ``n_zero`` smallest keys (the first of equal keys counts as smaller) are
    zeroed. The keys are i.i.d. and independent of the normals, so the
    zeroed set is uniform and the kept values stay N(0, 1). If the kept
    coordinates all happen to be exactly zero they are redrawn, from the
    node's own stream, until one is not. At level 0 (``n_zero == dim - 1``,
    which the rotated baseline uses too) the whole row may survive, so a row
    of exact zeros is redrawn whole; then each row keeps its first largest
    ``|z|`` entry, with its drawn value, and the rest are zeroed, by one
    argmax over every row. The normals are i.i.d., so the kept coordinate is
    a uniform choice of axis, as the classic isolation forest picks its
    attribute. No level makes a bounded draw.

    The intercept is ``lo + span * u`` with span = hi - lo and u uniform on
    [0, 1), which is the formula and the draws of numpy's
    ``Generator.uniform(lo, hi)``, so for a lone node it equals that call bit
    for bit, leaves the stream where that call does, and gives lo exactly
    where lo == hi. Every coordinate is drawn, also under a zeroed normal
    entry, where it is inert, so stream consumption is fixed. The caller
    checks that the span is finite: the formula would not fail on an
    overflowing one.

    Draw order is part of the reproducibility contract. Each group draws, in
    this order: all its normals, one ``standard_normal`` call that fills its
    ``(counts[g], dim)`` rows; at an intermediate level all its keys, one
    ``random`` call; each all-zero row's redraws, row by row; and all its
    intercept uniforms, one ``random`` call. A row's values are row-major in
    each call, so a lone node draws exactly what ``sample_hyperplane``'s
    separate calls draw. The key sort, the zeroing, the all-zero test and
    the intercept formula each run once over every row.
    """
    nodes = lo.shape[1]
    rows = np.arange(nodes)
    ends = np.cumsum(counts).tolist()
    groups = [slice(end - count, end) for end, count in zip(ends, counts)]
    normal, u = np.empty((nodes, dim)), np.empty((nodes, dim))
    for stream, group in zip(streams, groups):
        stream.standard_normal(out=normal[group])
    kept = np.broadcast_to(np.arange(dim), normal.shape)  # full extension and level 0 keep every row whole so far
    if 0 < n_zero < dim - 1:  # intermediate levels zero the coordinates of the smallest keys
        for stream, group in zip(streams, groups):
            stream.random(out=u[group])
        order = u.argsort(axis=1, kind="stable")
        normal[rows[:, None], order[:, :n_zero]] = 0.0
        kept = np.sort(order[:, n_zero:], axis=1)
    zero = np.flatnonzero(~normal.any(axis=1)).tolist()
    if zero:  # the kept entries all drew exactly 0.0: redraw them, from the row's own stream
        owner = np.repeat(np.arange(len(streams)), counts)
        for r in zero:
            while not normal[r].any():
                normal[r, kept[r]] = streams[owner[r]].standard_normal(len(kept[r]))
    if 0 < n_zero == dim - 1:  # level 0: keep each row's first largest |z|
        axis = np.abs(normal).argmax(axis=1)
        value = normal[rows, axis]
        normal.fill(0.0)
        normal[rows, axis] = value
        kept = axis[:, None]
    for stream, group in zip(streams, groups):
        stream.random(out=u[group])
    return normal, lo.T + span.T * u, kept


def _grow_levels(block, streams, *, limit, extension_level) -> list[tuple]:
    """Grow one tree per stream on the points that are the columns of the
    C-contiguous (dimension, points) ``block``: tree j on the j-th of
    ``len(streams)`` equal column ranges, drawing its splits from
    ``streams[j]``. The block's columns are reordered in place. Return, per
    depth, the records ``_tree_arrays`` makes the node arrays from: each
    node's tree and point count, the positions of the nodes that split, and
    their normals and intercepts. No record refers to the block.

    A node becomes a leaf when the height limit is reached, one point or
    fewer remains, or every remaining point is identical (no hyperplane can
    separate duplicates, so spending depth on them is wasted).

    The trees grow level by level, one step per depth. A step holds every
    node of every tree at its depth, tree by tree and, in a tree, from left
    to right. The points of the nodes that may split there (more than one
    point) are the block's leading ``m`` columns, node after node in that
    order; the points of the other nodes lie behind them and are not read
    again. The step takes the span hi - lo of each such node in one numpy
    pass over those columns. The span is both the leaf test (a zero span in
    every coordinate means identical points; for finite doubles hi - lo == 0
    only when hi == lo) and the width of the intercept draw, and at the root
    it must be finite, which bounds every span below. Nodes of identical
    points move their columns behind the others'. The step draws the splits
    of all its splitting nodes in one call (``_draw_splits``): each tree
    draws its own nodes' splits from its own stream, left to right, so a
    tree reads its stream as it would grown alone. It then takes their
    margins in one pass (``_split_margins``), which reads the block and does
    not change it. Their children, left then right, are the next step's
    nodes, and one permutation of the leading columns, applied a row at a
    time, packs the points of the children that may split next in their
    order (each child's points in their order), with the rest behind. The
    last step below the height limit skips it: no child splits.
    """
    dim, n = block.shape[0], block.shape[1] // len(streams)
    n_zero = dim - 1 - extension_level
    owner, count = np.arange(len(streams)), np.full(len(streams), n)  # the step's nodes: each one's tree and size
    levels = []  # per depth: owner, count, the splitting nodes' positions, and their normals and intercepts
    for height in range(limit + 1):
        split = np.flatnonzero(count > 1) if height < limit else owner[:0]
        if split.size:  # the columns [0, m) hold these nodes' points, node after node
            counts = count[split]
            offsets = np.cumsum(counts) - counts
            m = int(offsets[-1] + counts[-1])
            lo = np.minimum.reduceat(block[:, :m], offsets, axis=1)
            hi = np.maximum.reduceat(block[:, :m], offsets, axis=1)
            if height == 0:
                with np.errstate(over="ignore"):
                    wide = np.flatnonzero(~np.isfinite(hi - lo).all(axis=0))
                if wide.size:
                    _require_finite_span(lo[:, wide[0]], hi[:, wide[0]], "training sample")
            span = hi - lo
            splitting = span.any(axis=0)
            if not splitting.all():  # identical points: these nodes stay leaves, their columns go behind
                _permute_columns(block, np.argsort(~np.repeat(splitting, counts), kind="stable"))
                split, counts = split[splitting], counts[splitting]
                lo, span = lo[:, splitting], span[:, splitting]
        if not split.size:  # every node here is a leaf, so there is no deeper level
            levels.append((owner, count, split, None, None))
            break
        trees, per_tree = np.unique(owner[split], return_counts=True)
        normals, intercepts, kept = _draw_splits([streams[j] for j in trees.tolist()], per_tree.tolist(),
                                                 dim, n_zero, lo, span)
        at = np.repeat(np.arange(split.size), counts)
        try:
            with np.errstate(over="raise", invalid="raise"):
                went_right = _split_margins(block, at, normals, intercepts, kept) > 0.0
        except FloatingPointError as err:
            raise ValueError("a split margin overflowed float64 while training: the sample's columns span "
                             "too wide a range for a split's terms to sum within the float limit") from err
        n_left = counts - np.bincount(at[went_right], minlength=split.size)
        levels.append((owner, count, split, normals, intercepts))
        owner = np.repeat(owner[split], 2)
        count = np.column_stack((n_left, counts - n_left)).ravel()
        if height + 1 < limit:  # each point's child, ranked behind every splitting child if its own will not split
            child = 2 * at + went_right
            _permute_columns(block, np.argsort(np.where(count[child] > 1, child, len(count)), kind="stable"))
    return levels


def _tree_arrays(levels, dim: int, angles=None) -> list[IsolationTree]:
    """The trees of ``_grow_levels``' records ``levels``, of splits ``dim``
    wide; tree j records ``angles[j]`` if angles are given. Subtree sizes
    summed from the deepest level up give every node its place in its tree's
    preorder, level by level from the roots down, and each level's split rows
    are written once into the chunk-wide node arrays, of which every tree's
    are row ranges.
    """
    subtree = [np.ones(len(level[1]), dtype=np.int64) for level in levels]  # each node's subtree node count
    for k in range(len(levels) - 2, -1, -1):  # the deepest level's nodes are all leaves
        subtree[k][levels[k][2]] += subtree[k + 1][0::2] + subtree[k + 1][1::2]
    first = np.cumsum(subtree[0]) - subtree[0]  # tree j's nodes are the rows first[j] on
    total = int(first[-1] + subtree[0][-1])
    normal, intercept = np.zeros((total, dim)), np.zeros((total, dim))
    left, right = np.full(total, -1, dtype=np.int64), np.full(total, -1, dtype=np.int64)
    size = np.zeros(total, dtype=np.int64)
    row = first  # each node's row, at the roots' depth
    for k, (owner, count, split, normals, intercepts) in enumerate(levels):
        size[row] = count
        if split.size:
            parent, left_size = row[split], subtree[k + 1][0::2]
            local = parent - first[owner[split]]
            normal[parent], intercept[parent] = normals, intercepts
            left[parent], right[parent], size[parent] = local + 1, local + 1 + left_size, 0
            row = np.column_stack((parent + 1, parent + 1 + left_size)).ravel()
    bounds = np.append(first, total).tolist()
    return [IsolationTree(normal=normal[a:b], intercept=intercept[a:b], left=left[a:b], right=right[a:b],
                          size=size[a:b], angle=angles[j] if angles else None)
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _permute_columns(block: np.ndarray, order: np.ndarray) -> None:
    """Put column ``order[c]`` of ``block`` at column c, for c below ``len(order)``, a row at a time."""
    m = len(order)
    for row in block:
        row[:m] = row[:m].take(order)


def _split_margins(block, at, normal, intercept, kept) -> np.ndarray:
    """(x - p) . n for each column x of the first ``len(at)`` columns of the
    C-contiguous (dimension, points) ``block``, under split ``at[c]`` for
    column c: the rows ``normal[at[c]]`` and ``intercept[at[c]]``, whose
    coordinates ``kept[at[c]]`` (ascending, as ``_draw_splits`` returns them)
    add terms. The block is read, not changed, and no column past those is
    read.

    As in ``_margins``, the terms are those of the kept entries, added in
    index order. At full extension, where every coordinate is kept, each term
    is formed from one row of the block and added to the sum in turn, which
    gives the bits of ``_margins``' axis-0 reduce. Below it, each term
    gathers one coordinate per column, the next kept one of its split's
    normal, from the flat block at ``d * width + column``, and is added in
    place.
    """
    m = len(at)
    if kept.shape[1] == len(block):  # full extension: the i-th kept coordinate of every split is i

        def term(i):
            x = block[i, :m] - intercept[:, i].take(at)
            x *= normal[:, i].take(at)
            return x
    else:
        flat, width, column, split = block.ravel(), block.shape[1], np.arange(m), np.arange(len(normal))

        def term(i):
            d = kept[:, i]
            x = flat.take(d.take(at) * width + column)
            x -= intercept[split, d].take(at)
            x *= normal[split, d].take(at)
            return x

    total = term(0)
    for i in range(1, kept.shape[1]):
        total += term(i)
    return total


def _require_finite_span(lo: np.ndarray, hi: np.ndarray, name: str) -> None:
    """Intercepts are drawn over each column's range [lo, hi], which must have a finite width."""
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(hi - lo)
    if wide.any():
        col = int(np.flatnonzero(wide)[0])
        raise ValueError(f"{name} column {col} spans [{lo[col]}, {hi[col]}], whose width overflows float64")


def height_limit_for(psi: int) -> int:
    """ceiling(log2 psi), the depth cap used for every tree."""
    return (_check_count("psi", psi, 1) - 1).bit_length()


def build_forest(data: np.ndarray, t: int, psi: int, extension_level: int, seed: int) -> Forest:
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
    return _build_forest(as_dataset(data), t, psi, 0, seed, rotated=True)


def _build_forest(x, t, psi, extension_level, seed, rotated=False) -> Forest:
    """The forest of ``_grow_chunk``'s trees. The settings, and a rotated
    forest's rules, are checked before any stream is derived."""
    t, psi, extension_level, seed = _check_settings(t, psi, extension_level, seed, x.shape[1], rotated)
    chunks = (_grow_chunk(x, first, t, psi, extension_level, seed, rotated) for first in range(0, t, _CHUNK_TREES))
    trees = [tree for chunk in chunks for tree in chunk]
    return Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)


def _grow_chunk(x, first, t, psi, extension_level, seed, rotated=False) -> list[IsolationTree]:
    """Trees ``first`` on of the t-tree forest on ``x``, ``_CHUNK_TREES`` of
    them or the rest.

    Per tree i, in this order: derive stream i from the seed's root stream,
    draw the psi-row subsample from it, and, for a rotated forest, draw the
    tree's angle uniform on [0, 2*pi) and turn the subsample by it; then the
    trees grow on the same streams, level by level together, on one block of
    their samples (``_grow_levels``). Tree i reads only stream i, so neither
    build order nor chunking can change a tree. The settings must have passed
    ``_check_settings``.

    The block is freed here, its one reference, before the node arrays are
    made (``_tree_arrays``), and the growth records go when this returns, so
    a caller that reads the chunk's trees, or grows the next chunk, holds
    neither.
    """
    root, angles = make_rng(seed), []
    streams = [derive_stream(root, i) for i in range(first, min(first + _CHUNK_TREES, t))]
    for j, stream in enumerate(streams):
        sample = subsample(stream, x, psi)
        if j == 0:  # subsample has checked psi against the rows: the block can be made
            block = np.empty((x.shape[1], len(streams) * psi))
        angle = float(stream.uniform(0.0, TWO_PI)) if rotated else None
        block[:, j * psi:(j + 1) * psi] = sample.T if angle is None else _rotate(sample.T, angle)
        angles.append(angle)
    levels = _grow_levels(block, streams, limit=height_limit_for(psi), extension_level=extension_level)
    del block  # the trees have grown: their node arrays are made with the block freed
    return _tree_arrays(levels, x.shape[1], angles)


def _tree_stream(x, t, psi, extension_level, seed):
    """c(psi), and the trees of ``build_forest(x, t, psi, extension_level,
    seed)`` as an iterator that holds one chunk of them at a time.

    The settings are checked here, with ``build_forest``'s messages. The
    iterator grows each chunk when its first tree is asked for, and checks it
    with ``Forest``'s ``_check_trees`` call for that chunk before it yields
    any of its trees, so a faulty tree is named as ``build_forest`` names it.
    """
    t, psi, extension_level, seed = _check_settings(t, psi, extension_level, seed, x.shape[1], False)

    def trees():
        for first in range(0, t, _CHUNK_TREES):
            chunk = _grow_chunk(x, first, t, psi, extension_level, seed)
            _check_trees(chunk, first, None, psi, extension_level, x.shape[1])
            yield from chunk
            del chunk  # so that the next chunk grows without this one (a tree is a view into it)

    return c_factor(psi), trees()


def _path_lengths(xt: np.ndarray, tree: IsolationTree) -> np.ndarray:
    """Per point, a column of the C-contiguous (dimension, points) block
    ``xt``: depth at which it lands, plus c(size) credit for the leaf. A
    rotated tree turns the points into a block of its own.

    Query rows are finite but not bounded, so a margin (or a rotated
    coordinate) can overflow float64; its sign, and so the branch, is then
    unknown, and a ValueError says so instead of routing the point by an
    inf or NaN margin.
    """
    left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
    out = np.empty(xt.shape[1])
    stack = [(0, np.arange(xt.shape[1]), 0)]
    try:
        with np.errstate(over="raise", invalid="raise"):
            if tree.angle is not None:
                xt = _rotate(xt, tree.angle)
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
    except FloatingPointError as err:
        raise ValueError("a split margin overflowed float64 while scoring: a query row lies too far "
                         "out for this forest's splits to tell its side") from err
    return out


def score_batch(data, forest: Forest) -> np.ndarray:
    """Scores for every row, order preserved: 2 ** (-E[h(x)] / c(psi)), with E[h(x)]
    the mean of the row's ``path_lengths``; near 1 is anomalous, near 0.5 nominal."""
    return next(_prefix_scores(_query_columns(data, forest), forest.trees, forest.normalizer, [forest.t]))


def path_lengths(data, forest: Forest) -> np.ndarray:
    """(rows, t) path lengths: entry [i, k] is the depth at which row i lands in
    tree k plus its leaf's c(size) credit, the terms ``score_batch`` sums in tree order."""
    xt = _query_columns(data, forest)
    out = np.empty((xt.shape[1], forest.t))
    for k, tree in enumerate(forest.trees):
        out[:, k] = _path_lengths(xt, tree)
    return out


def _query_columns(data, forest: Forest) -> np.ndarray:
    """Query rows, checked as finite and of the forest's dimension, as the block every tree reads."""
    x = as_dataset(data)
    if x.shape[1] != forest.dimension:
        raise ValueError(f"dimension mismatch: data has {x.shape[1]} columns, forest dimension is {forest.dimension}")
    return _columns(x)


def _prefix_scores(xt, trees, normalizer: float, t_values):
    """At each t of the strictly increasing ``t_values``, yield the score of
    every point, a column of the C-contiguous (dimension, points) block
    ``xt``, under the first t of ``trees``, with c(psi) ``normalizer``. The
    only place scores are made: ``trees`` is read once, in order, and each
    tree's path lengths are added in tree order into one (points,) vector, so
    no (points, t) matrix is held and no reduce reorders the sum. No name here
    holds a tree once it has been read: a grown tree's arrays are views into
    its whole chunk's, so one tree kept would keep the chunk that an iterator
    such as ``_tree_stream`` has dropped."""
    trees = iter(trees)
    total = np.zeros(xt.shape[1])
    for done, t in zip([0, *t_values], t_values):
        for depths in map(_path_lengths, repeat(xt), islice(trees, t - done)):
            total += depths
        # Python's scalar 2.0 ** e, one exponent at a time: np.power and np.exp2
        # differ from it in the last bit on about 5% of exponents, and the PINNED
        # score hashes and the scalar oracle in the tests are held to these bits.
        exponents = -(total / t) / normalizer
        yield np.array([2.0 ** e for e in exponents.tolist()])
