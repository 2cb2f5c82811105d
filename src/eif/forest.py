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

Training grows the trees of a forest in lockstep, a chunk of them at a time
(``_grow_trees``): each step makes one numpy pass over the next node of every
tree, and draws the step's splits together (``_draw_splits``), each node's
from its own tree's stream, in the tree's preorder. So a tree is the same
grown alone or with others, and the forest is the same for any chunk size.
``Forest`` checks them a chunk per pass too, all in one ``_check_trees``.

Numerical contract: a margin ``(x - p) . n`` sums the terms of n's nonzero
coordinates in index order, and per-tree depths are summed in tree order.
Building and scoring hold the points column-major, as a (dimension, points)
block. Scoring's ``_margins`` and training's ``_split_margins`` add the
terms one at a time, or, where every normal entry is nonzero (in scoring,
of more than two), sum them by an axis-0 reduce over a C-contiguous block
of two or more points, which adds its rows in order. A reduce over one
point's (k, 1) block, over an F-ordered view or along ``axis=1`` must never
sum them: numpy sums those pairwise, which changes the bits from 9 terms
up. ``_prefix_scores`` is the one place depths are summed in tree order and
turned into scores. It reads trees once, in order, from any iterable:
``score_batch`` gives it a forest's trees, and ``convergence_curve`` gives it
``_tree_stream``, which grows and checks one chunk at a time, so the curve
holds one chunk of trees, not the whole forest (on 20k 8-D rows at level 0
with 1,000 probes, a tracemalloc peak of 6.2 MB at 2,000 trees, where the
whole forest took 43.4 MB). ``path_lengths`` gives its per-tree terms. A
point scores the same alone or in any batch, and replays with an equal seed
reproduce every output bit-for-bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .rng import RngStream, _check_count, _check_integer, derive_stream, make_rng, subsample

#: Euler-Mascheroni constant: ``c_factor`` estimates the harmonic number H(i) as ln(i) + EULER_GAMMA.
EULER_GAMMA = 0.5772156649

TWO_PI = 2.0 * math.pi

#: Trees that ``_grow_chunks`` grows in lockstep at a time, and that
#: ``Forest`` checks in one pass. The block of their points, and its per-step
#: copies, grow with it; fewer trees share each step's numpy calls among
#: fewer nodes. In two sets of alternated rounds of 500 level-0 trees at 8-D
#: (CPU seconds), 50 took a median 1.07x and 1.13x as long as 100, and 200
#: took 0.98x and 1.01x but held 1.7 MB more at its tracemalloc peak.
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

    Making one checks every model invariant, in ``_check_arrays``,
    ``_check_settings`` (the rotated variant's rules too) and
    ``_check_trees``, so built, loaded and hand-made forests pass the same
    checks. ``_check_trees`` states the tree invariants once: it runs over
    ``_CHUNK_TREES`` trees per pass and names the first fault, with no
    second path. The settings must be integers, not
    floats or bools, and are stored as Python ints. It is frozen, with its
    trees in a tuple, so it stays as checked.
    """

    trees: tuple[IsolationTree, ...]
    psi: int
    extension_level: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        for k, tree in enumerate(self.trees):  # tree 0's normal sets the dimension
            _check_arrays(tree, f"tree {k}", self.dimension if k else None)
        dim = self.dimension if self.trees else 0
        rotated = bool(self.trees) and self.trees[0].angle is not None
        _, psi, level, seed = _check_settings(len(self.trees), self.psi, self.extension_level, self.seed, dim, rotated)
        for name, value in (("psi", psi), ("extension_level", level), ("seed", seed)):
            object.__setattr__(self, name, value)  # a numpy integer would not save as JSON
        limit = height_limit_for(self.psi)
        for start in range(0, self.t, _CHUNK_TREES):
            _check_trees(self.trees[start:start + _CHUNK_TREES], start, self.trees[0].angle, psi, level + 1, limit)

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
    """Raise ValueError naming the first node array of ``tree`` of the wrong
    kind or shape: ``left``, ``right`` and ``size`` 1-D integer arrays of one
    entry per node (at least one), and ``normal`` and ``intercept`` 2-D float
    arrays, no wider than float64, of one row per node, ``dim`` wide if ``dim``
    is given."""
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


def _check_trees(trees, first: int, angle, psi: int, nonzeros: int, limit: int) -> None:
    """Raise ValueError naming the first fault in ``trees``, trees ``first``
    on of a forest whose tree 0 has ``angle``. In tree order, and in each tree
    in this order, a fault is: an angle set where tree 0's is not (or unset
    where it is), or not a finite float; for internal rows (``left >= 0``),
    children out of range or equal; a node that a level-by-level walk from the
    root reaches twice, beyond ``limit`` or never; leaf sizes below 0 or not
    summing to psi; non-finite split vectors, or normals without ``nonzeros``
    nonzero entries.

    Each check runs once over the chunk, on its node arrays joined end to end
    with child indices offset into global node ids, and looks only at the
    trees before the first fault found so far (``end``), so a later check can
    only name an earlier tree. The walk starts at every root at once and keeps
    each tree's frontier order: per split, left child, then right. Leaf sizes
    are summed exactly, in 32-bit halves.
    """
    lens = [len(tree.left) for tree in trees]
    bounds = np.cumsum([0] + lens)  # tree k's nodes have the global ids bounds[k] to bounds[k + 1] - 1
    roots, owner = bounds[:-1], np.repeat(np.arange(len(trees)), lens)
    left, right, size = (_joined([getattr(tree, name) for tree in trees]) for name in ("left", "right", "size"))
    end, fault = len(trees), None  # the trees before the first fault found so far, and its message

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
    formed in place, and an axis-0 reduce adds its rows in order, as
    training's ``_split_margins`` does. Each guard keeps a case where that is
    slower or changes bits:

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
    training draws each node's split (see ``_draw_splits``). The points must
    be finite, each column's range must have a finite width, and
    ``extension_level`` must be an integer in [0, dimension - 1]; nothing is
    drawn otherwise."""
    x = np.asarray(node_data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("sample_hyperplane requires at least 2 points")
    dim = x.shape[1]
    level = _check_integer("extension_level", extension_level)
    _check_extension_level(level, dim)
    _require_finite(x, "node_data")
    lo, hi = x.min(axis=0), x.max(axis=0)
    _require_finite_span(lo, hi, "node_data")
    normal, intercept, _ = _draw_splits([rng], dim, dim - 1 - level, lo[:, None], (hi - lo)[:, None])
    return normal[0], intercept[0]


def _draw_splits(streams, dim: int, n_zero: int, lo: np.ndarray, span: np.ndarray):
    """Draw one split per stream: row r of the returned ``(normal,
    intercept)``, each ``(len(streams), dim)``, is the split of node r, whose
    points span [lo, lo + span] in column r of the ``(dim, nodes)`` arrays
    ``lo`` and ``span``. Each kind of draw runs over every stream in turn, so
    no stream may appear twice: it would interleave two nodes' draws. The
    third array returned, ``(len(streams), dim - n_zero)``, holds each row's
    kept coordinates in ascending order, for ``_split_margins``.

    Per node, normal coordinates come from N(0, 1). At an intermediate level
    the node then draws ``dim`` uniform keys, ``stream.random(dim)``, and the
    coordinates of its ``n_zero`` smallest keys (the first of equal keys
    counts as smaller) are zeroed. The keys are i.i.d. and independent of
    the normals, so the zeroed set is uniform and the kept values stay
    N(0, 1). If the kept coordinates all happen to be exactly zero they are
    redrawn, from the node's own stream, until one is not. At level 0
    (``n_zero == dim - 1``, which the rotated baseline uses too) the whole
    row may survive, so a row of exact zeros is redrawn whole; then each row
    keeps its first largest ``|z|`` entry, with its drawn value, and the
    rest are zeroed, by one argmax over every row. The normals are i.i.d.,
    so the kept coordinate is a uniform choice of axis, as the classic
    isolation forest picks its attribute. No level makes a bounded draw.

    The intercept is ``lo + span * u`` with span = hi - lo and u =
    ``stream.random(dim)``, which is the formula and the draws of numpy's
    ``Generator.uniform(lo, hi)``, so it equals that call bit for bit, leaves
    the stream where that call does, and gives lo exactly where lo == hi.
    Every coordinate is drawn, also under a zeroed normal entry, where it is
    inert, so stream consumption is fixed. The caller checks that the span is
    finite: the formula would not fail on an overflowing one.

    Draw order (normals, keys at an intermediate level, redraws, intercept)
    is part of the reproducibility contract. The key sort, the zeroing, the
    all-zero test and the intercept formula each run once over every row.
    """
    rows = np.arange(len(streams))
    normal, u = np.empty((len(streams), dim)), np.empty((len(streams), dim))
    for stream, row in zip(streams, normal):
        stream.standard_normal(out=row)
    kept = np.broadcast_to(np.arange(dim), normal.shape)  # full extension and level 0 keep every row whole so far
    if 0 < n_zero < dim - 1:  # intermediate levels zero the coordinates of the smallest keys
        for stream, row in zip(streams, u):
            stream.random(out=row)
        order = u.argsort(axis=1, kind="stable")
        normal[rows[:, None], order[:, :n_zero]] = 0.0
        kept = np.sort(order[:, n_zero:], axis=1)
    for r in np.flatnonzero(~normal.any(axis=1)).tolist():  # the kept entries all drew exactly 0.0: redraw them
        while not normal[r].any():
            normal[r, kept[r]] = streams[r].standard_normal(len(kept[r]))
    if 0 < n_zero == dim - 1:  # level 0: keep each row's first largest |z|
        axis = np.abs(normal).argmax(axis=1)
        value = normal[rows, axis]
        normal.fill(0.0)
        normal[rows, axis] = value
        kept = axis[:, None]
    for stream, row in zip(streams, u):
        stream.random(out=row)
    return normal, lo.T + span.T * u, kept


def _grow_trees(block, streams, angles=None, *, limit, extension_level) -> list[IsolationTree]:
    """Grow one tree per stream on the points that are the columns of the
    C-contiguous (dimension, points) ``block``, which it reorders in place:
    tree j on the j-th of ``len(streams)`` equal column ranges, drawing its
    splits from ``streams[j]``. Record ``angles[j]`` on it if angles are given.

    A node becomes a leaf when the height limit is reached, one point or
    fewer remains, or every remaining point is identical (no hyperplane can
    separate duplicates, so spending depth on them is wasted).

    The trees grow in lockstep. Each keeps a preorder stack of the column
    ranges ``[a, b)`` of ``block`` it has yet to visit. Each step pops, per
    tree, the next node that may split, and takes every popped node's span
    hi - lo in one numpy pass. The span is both the leaf test (a zero span
    in every coordinate means identical points; for finite doubles
    hi - lo == 0 only when hi == lo) and the width of the intercept draw,
    and at the root it must be finite, which bounds every span below. The
    step draws the splits of all its splitting nodes in one call
    (``_draw_splits``), each from its own tree's stream; a step holds one
    node per tree, and a tree visits its nodes in preorder, so each stream
    is read as by the tree grown alone. The step then takes the splitting
    nodes' margins in one pass (``_split_margins``) and sorts each node's
    range in place, stably: left points first, each side in order.
    """
    dim, n = block.shape[0], block.shape[1] // len(streams)
    nonzeros = extension_level + 1
    # per tree, the ranges to visit: (a, b, height, node whose right child it is or -1)
    stacks = [[(j * n, (j + 1) * n, 0, -1)] for j in range(len(streams))]
    # per tree and node in preorder, the right child and the point count; a
    # split's left child is the next node, and its count is set to 0 at the end
    rights, sizes = [[] for _ in streams], [[] for _ in streams]
    splits = []  # per step: tree, node, normal and intercept of each split
    live = range(len(streams))
    while True:
        popped = []  # (tree, a, b, height, node) of each node that may split
        for j in live:
            stack, right, size = stacks[j], rights[j], sizes[j]
            while stack:
                a, b, height, parent = stack.pop()
                node = len(size)
                if parent >= 0:
                    right[parent] = node
                right.append(-1)
                size.append(b - a)
                if height < limit and b - a > 1:
                    popped.append((j, a, b, height, node))
                    break
        if not popped:
            break
        starts = np.array([entry[1] for entry in popped])
        counts = np.array([entry[2] for entry in popped]) - starts
        offsets = np.cumsum(counts) - counts
        idx = np.arange(offsets[-1] + counts[-1]) + np.repeat(starts - offsets, counts)
        points = block.take(idx, axis=1)
        lo = np.minimum.reduceat(points, offsets, axis=1)
        hi = np.maximum.reduceat(points, offsets, axis=1)
        if popped[0][3] == 0:  # only the first step pops roots
            with np.errstate(over="ignore"):
                wide = np.flatnonzero(~np.isfinite(hi - lo).all(axis=0))
            if wide.size:
                _require_finite_span(lo[:, wide[0]], hi[:, wide[0]], "training sample")
        span = hi - lo
        splitting = span.any(axis=0)
        live = [entry[0] for entry in popped]
        if not splitting.all():  # identical points: these nodes stay leaves
            keep = np.repeat(splitting, counts)
            points, idx = points.compress(keep, axis=1), idx[keep]
            starts, counts = starts[splitting], counts[splitting]
            popped = [entry for entry, split in zip(popped, splitting.tolist()) if split]
            lo, span = lo[:, splitting], span[:, splitting]
            if not popped:
                continue
        normals, intercepts, kept = _draw_splits([streams[entry[0]] for entry in popped], dim, dim - nonzeros, lo, span)
        at = np.repeat(np.arange(len(popped)), counts)
        try:
            with np.errstate(over="raise", invalid="raise"):
                went_right = _split_margins(points, at, normals, intercepts, kept) > 0.0
        except FloatingPointError as err:
            raise ValueError("a split margin overflowed float64 while training: the sample's columns span "
                             "too wide a range for a split's terms to sum within the float limit") from err
        del points  # before the partition's copy, so that two copies of the block are never held
        block[:, idx] = block.take(idx[np.argsort(2 * at + went_right, kind="stable")], axis=1)
        n_left = counts - np.bincount(at[went_right], minlength=len(popped))
        for (j, a, b, height, node), mid in zip(popped, (starts + n_left).tolist()):
            stacks[j] += [(mid, b, height + 1, node), (a, mid, height + 1, -1)]
        splits.append(([entry[0] for entry in popped], [entry[4] for entry in popped], normals, intercepts))
    # every tree's node arrays are row ranges of chunk-wide ones
    first = np.cumsum([0] + [len(size) for size in sizes])
    normal, intercept = np.zeros((first[-1], dim)), np.zeros((first[-1], dim))
    left = np.full(first[-1], -1, dtype=np.int64)
    right = np.fromiter(chain.from_iterable(rights), np.int64, first[-1])
    size = np.fromiter(chain.from_iterable(sizes), np.int64, first[-1])
    if splits:
        trees, nodes, normals, intercepts = (np.concatenate(column) for column in zip(*splits))
        rows = first[trees] + nodes
        normal[rows], intercept[rows], left[rows], size[rows] = normals, intercepts, nodes + 1, 0
    return [IsolationTree(normal=normal[a:b], intercept=intercept[a:b], left=left[a:b], right=right[a:b],
                          size=size[a:b], angle=angles[j] if angles else None)
            for j, (a, b) in enumerate(zip(first[:-1].tolist(), first[1:].tolist()))]


def _split_margins(points, at, normal, intercept, kept) -> np.ndarray:
    """(x - p) . n for each column x of the C-contiguous (dimension, points)
    block ``points``, under split ``at[c]`` for column c: the rows
    ``normal[at[c]]`` and ``intercept[at[c]]``, whose coordinates
    ``kept[at[c]]`` (ascending, as ``_draw_splits`` returns them) add terms.

    As in ``_margins``, the terms are those of the kept entries, added in
    index order. At full extension, where every coordinate is kept, the
    terms are formed in place in ``points`` and summed by an axis-0 reduce,
    which adds the rows in order. Below it, each term gathers one coordinate
    per column, the next kept one of its split's normal, and is added in
    place.
    """
    if kept.shape[1] == points.shape[0]:
        points -= intercept.T.take(at, axis=1)
        points *= normal.T.take(at, axis=1)
        return np.add.reduce(points, axis=0)
    flat, width = points.ravel(), points.shape[1]
    split, column = np.arange(len(normal)), np.arange(width)

    def term(d):
        x = flat.take(d.take(at) * width + column)
        x -= intercept[split, d].take(at)
        x *= normal[split, d].take(at)
        return x

    total = term(kept[:, 0])
    for d in kept.T[1:]:
        total += term(d)
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
    return _build_forest(as_dataset(data), t, psi, 0, seed, rotated=True)


def _build_forest(x, t, psi, extension_level, seed, rotated=False) -> Forest:
    """The forest of ``_grow_chunks``' trees. The settings, and a rotated
    forest's rules, are checked before any stream is derived."""
    t, psi, extension_level, seed = _check_settings(t, psi, extension_level, seed, x.shape[1], rotated)
    trees = [tree for chunk in _grow_chunks(x, t, psi, extension_level, seed, rotated) for tree in chunk]
    return Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)


def _grow_chunks(x, t, psi, extension_level, seed, rotated=False):
    """Yield the t trees of a forest on ``x`` as lists of ``_CHUNK_TREES``
    (the last may be shorter), growing each list when it is asked for.

    Per tree i, in this order: derive stream i from the seed's root stream,
    draw the psi-row subsample from it, and, for a rotated forest, draw the
    tree's angle uniform on [0, 2*pi) and turn the subsample by it; then grow
    the tree on the same stream, in lockstep with the rest of its chunk. Tree
    i reads only stream i, so neither build order nor chunking can change a
    tree. The settings must have passed ``_check_settings``.
    """
    limit = height_limit_for(psi)
    root = make_rng(seed)
    for first in range(0, t, _CHUNK_TREES):
        chunk = range(first, min(first + _CHUNK_TREES, t))
        streams, angles = [], []
        for j, i in enumerate(chunk):
            stream = derive_stream(root, i)
            sample = subsample(stream, x, psi)
            if j == 0:  # subsample has checked psi against the rows: the block can be made
                block = np.empty((x.shape[1], len(chunk) * psi))
            angle = None
            if rotated:
                angle = float(stream.uniform(0.0, TWO_PI))
            block[:, j * psi:(j + 1) * psi] = sample.T if angle is None else _rotate(sample.T, angle)
            streams.append(stream)
            angles.append(angle)
        yield _grow_trees(block, streams, angles, limit=limit, extension_level=extension_level)


def _tree_stream(x, t, psi, extension_level, seed):
    """c(psi), and the trees of ``build_forest(x, t, psi, extension_level,
    seed)`` as an iterator that holds one chunk of them at a time.

    The settings are checked here, with ``build_forest``'s messages. The
    iterator grows each chunk when its first tree is asked for, and checks it
    as ``Forest`` does (each tree's arrays, then ``_check_trees`` from the
    chunk's first tree index) before it yields any of its trees, so a faulty
    tree is named as ``build_forest`` names it.
    """
    t, psi, extension_level, seed = _check_settings(t, psi, extension_level, seed, x.shape[1], False)
    limit = height_limit_for(psi)

    def trees():
        first = 0
        for chunk in _grow_chunks(x, t, psi, extension_level, seed):
            for k, tree in enumerate(chunk, first):
                _check_arrays(tree, f"tree {k}", x.shape[1] if k else None)
            _check_trees(chunk, first, None, psi, extension_level + 1, limit)
            first += len(chunk)
            yield from chunk
            del chunk, tree  # so that the next chunk grows without this one (a tree is a view into it)

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
