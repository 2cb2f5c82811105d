"""Brute-force reference implementations used to pin metric behavior."""

import base64
import csv
import math
import struct

import numpy as np

from eif.errors import CsvFormatError
from eif.evaluation import ConvergenceSeries, _population_variance, grid_points
from eif.forest import (
    Forest, IsolationTree, _grow_trees, _rotate, build_forest, c_factor, height_limit_for, score_batch,
)
from eif.model_io import FORMAT_MAGIC, FORMAT_VERSION, _fail, _floats, _require, format_score
from eif.rng import RNG_FAMILY, choose_indices, derive_stream, make_rng, subsample


def auroc_oracle(scores, labels):
    """Exhaustive pairwise count: anomaly beats nominal, ties worth 1/2."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    """Direct step sum down the descending-score ranking; equal scores are
    consumed as one block with precision read after the block."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    n_anom = labels.sum()
    seen = 0
    tp = 0
    total = 0.0
    for value in sorted(set(scores), reverse=True):
        group = labels[scores == value]
        seen += len(group)
        block_tp = int(group.sum())
        tp += block_tp
        if block_tp:
            total += (block_tp / n_anom) * (tp / seen)
    return total


def bounded_integer(rng, lo, hi):
    """One integer uniform on [lo, hi) from an ``RngStream``: the first swap
    target of ``choose_indices``, the value and draws of numpy's
    ``Generator.integers(lo, hi)``."""
    return lo + int(choose_indices(rng, hi - lo, 1)[0])


def random_labeled_instance(rng, max_size=50, allow_ties=True):
    """A random-scores instance with at least one anomaly; half the draws
    round scores to one decimal to exercise tie handling."""
    n = bounded_integer(rng, 2, max_size + 1)
    labels = np.zeros(n, dtype=int)
    labels[: bounded_integer(rng, 1, n)] = 1
    perm = np.argsort(rng.uniform(0.0, 1.0, n))
    labels = labels[perm]
    if allow_ties and rng.uniform(0.0, 1.0) < 0.5:
        scores = np.round(rng.uniform(0.0, 1.0, n), 1)
    else:
        scores = rng.uniform(0.0, 1.0, n)
    return scores, labels


def fisher_yates_oracle(targets):
    """The first len(targets) slots after swapping slot i with slot
    targets[i], in order. Slots not yet moved are implicit, so the
    population may exceed memory."""
    slot = {}
    for i, j in enumerate(targets):
        slot[i], slot[j] = slot.get(j, j), slot.get(i, i)
    return np.array([slot.get(i, i) for i in range(len(targets))], dtype=np.int64)


def choose_indices_oracle(gen, n, k):
    """Partial Fisher-Yates with one scalar draw per swap from numpy itself:
    ``gen`` is a ``np.random.Generator(np.random.Philox(key=[seed, index]))``
    (the key as uint64), and swap i takes ``gen.integers(i, n)``."""
    return fisher_yates_oracle([int(gen.integers(i, n)) for i in range(k)])


def document_oracle(forest, version=FORMAT_VERSION):
    """The model document of ``forest`` in format ``version`` as plain dicts
    and lists, the reference for what ``save_forest`` writes: its file is
    ``json.dumps(document_oracle(forest), indent=1)``. Version 2 packs each
    float of a tree's internal rows on its own with ``struct``; version 1
    lists them in the nodes."""
    height_limit = height_limit_for(forest.psi)
    trees = []
    for tree in forest.trees:
        doc = {"height_limit": height_limit}
        if tree.angle is not None:
            doc["angle"] = tree.angle
        normal, intercept = tree.normal.tolist(), tree.intercept.tolist()
        left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
        inner = [k for k in range(len(left)) if left[k] >= 0]
        vectors = {k: {"normal": normal[k], "intercept": intercept[k]} if version == 1 else {} for k in inner}
        doc["nodes"] = [
            {"kind": "internal", **vectors[k], "left_index": left[k], "right_index": right[k]}
            if left[k] >= 0 else {"kind": "external", "size": size[k]}
            for k in range(len(left))
        ]
        if version == 2:
            for key, rows in (("normal", normal), ("intercept", intercept)):
                values = [value for k in inner for value in rows[k]]
                doc[key] = base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")
        trees.append(doc)
    return {
        "format": FORMAT_MAGIC,
        "version": version,
        "variant": forest.variant,
        "dimension": forest.dimension,
        "t": forest.t,
        "psi": forest.psi,
        "extension_level": forest.extension_level,
        "seed": forest.seed,
        "rng_family": RNG_FAMILY,
        "trees": trees,
    }


def read_tree_oracle(td, where, dimension, rotated, version):
    """One tree of a model document in format ``version`` read node by node
    in file order, each field checked as it is met and each vector converted
    on its own (in version 2, each row unpacked from its block with
    ``struct``); the reference for ``model_io._read_tree``, with its
    signature."""
    if not isinstance(td, dict):
        raise _fail(f"{where} is not an object")
    _require(td, "height_limit", int, where)
    angle = None
    if rotated:
        angle = _floats([_require(td, "angle", (int, float), where)], f"angle of {where}")[0]
    elif "angle" in td:
        raise _fail(f"{where} has an angle, which only the rotated variant carries")
    for key in ("normal", "intercept"):
        if version == 1 and key in td:
            raise _fail(f"{where} has field {key!r}, which only a version 2 tree carries")
    nodes = _require(td, "nodes", list, where)
    if not nodes:
        raise _fail(f"{where} has no nodes")
    rows = []  # [normal, intercept, left, right, size] per node
    for i, rec in enumerate(nodes):
        node = f"node {i} of {where}"
        if not isinstance(rec, dict):
            raise _fail(f"{node} is not an object")
        kind = _require(rec, "kind", str, node)
        if kind == "external":
            rows.append([None, None, -1, -1, _require(rec, "size", int, node)])
        elif kind == "internal":
            if version == 2:
                for key in ("normal", "intercept"):
                    if key in rec:
                        raise _fail(f"{node} has field {key!r}, which a version 2 file keeps in the blocks of {where}")
            else:
                n_vec = _require(rec, "normal", list, node)
                p_vec = _require(rec, "intercept", list, node)
                if len(n_vec) != dimension or len(p_vec) != dimension:
                    raise _fail(f"{node} has vectors of length != dimension {dimension}")
            children = [_require(rec, key, int, node) for key in ("left_index", "right_index")]
            if min(children) < 0:
                raise _fail(f"{node} has child index {min(children)} out of range")
            vectors = [None, None] if version == 2 else [_floats(n_vec, f"split normal of {node}"),
                                                         _floats(p_vec, f"split intercept of {node}")]
            rows.append([*vectors, *children, 0])
        else:
            raise _fail(f"{node} has unknown kind {kind!r}")
    inner = [row for row in rows if row[2] >= 0]
    reachable = 1 + 2 * len(inner)
    if len(rows) > reachable:
        raise _fail(f"{where} has {len(rows)} nodes, but its splits reach at most {reachable}: some are unreachable")
    if version == 2:
        for column, key in enumerate(("normal", "intercept")):
            text = _require(td, key, str, where)
            try:
                data = base64.b64decode(text, validate=True)
            except ValueError:
                raise _fail(f"field {key!r} in {where} is not base64") from None
            if len(data) % 8:
                raise _fail(f"field {key!r} in {where} holds {len(data)} bytes, not a whole number of float64 values")
            if len(data) != len(inner) * dimension * 8:
                raise _fail(f"field {key!r} in {where} holds {len(data) // 8} floats, expected {len(inner)} "
                            f"split rows of dimension {dimension}")
            for j, row in enumerate(inner):
                row[column] = list(struct.unpack_from(f"<{dimension}d", data, 8 * dimension * j))
    try:
        return tree_from_rows(rows, dimension, angle)
    except OverflowError:
        raise _fail(f"{where} has a child index or size beyond 64 bits") from None


def grid_csv_oracle(grid):
    """The grid CSV text written one cell at a time: the cell's point from
    ``grid_points`` through ``repr``, then its score through ``format_score``."""
    points = grid_points(grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny)
    cells = zip(points.tolist(), grid.values.ravel().tolist(), strict=True)
    rows = [["x", "y", "score"]] + [[repr(x), repr(y), format_score(v)] for (x, y), v in cells]
    return "".join(",".join(row) + "\n" for row in rows)


def convergence_curve_oracle(data, probe_points, t_values, psi, extension_level, seed):
    """One forest trained and fully scored per entry of t_values."""
    means, variances = [], []
    for t in t_values:
        s = score_batch(probe_points, build_forest(data, t, psi, extension_level, seed))
        means.append(float(s.mean()))
        variances.append(_population_variance(s))
    return ConvergenceSeries(t_values=list(t_values), means=means, variances=variances)


def rotated_forest_with_angles(data, t, psi, seed, angles):
    """Rotated forest whose tree i is grown on its subsample turned by
    ``angles[i]``. No angle is drawn, so each stream is consumed as by a
    level-0 tree of ``build_forest``."""
    root = make_rng(seed)
    streams = [derive_stream(root, i) for i in range(t)]
    angles = [float(angles[i]) for i in range(t)]
    samples = [_rotate(subsample(stream, data, psi).T, angle) for stream, angle in zip(streams, angles)]
    trees = _grow_trees([np.concatenate(samples, axis=1)], streams, angles, limit=height_limit_for(psi),
                        extension_level=0)
    return Forest(trees=trees, psi=psi, extension_level=0, seed=seed)


def draw_level_oracle(rng, dim, n_zero, spans):
    """``_draw_splits`` for the nodes one tree splits at one depth, left to
    right, each node's ``(lo, hi)`` in ``spans``, with one numpy call per node
    and numpy's own uniform transform. In this order: every node's normals;
    at an intermediate level every node's ``dim`` uniform keys, each node's
    then ordered by one stable Python sort, its first ``n_zero`` zeroed;
    node by node, the redraws of a node whose kept entries are all zero (at
    level 0 the whole row); then every node's intercept, from
    ``Generator.uniform(lo, hi)``. At level 0 a loop keeps each node's first
    entry of largest magnitude: a later one must be strictly larger."""
    normals = [rng.standard_normal(dim) for _ in spans]
    keeps = [np.ones(dim, dtype=bool) for _ in spans]
    if 0 < n_zero < dim - 1:
        for normal, keep in zip(normals, keeps):
            keys = rng.random(dim).tolist()
            keep[sorted(range(dim), key=keys.__getitem__)[:n_zero]] = False
            normal[~keep] = 0.0
    for normal, keep in zip(normals, keeps):
        while not np.any(normal != 0.0):
            normal[keep] = rng.standard_normal(int(keep.sum()))
    if 0 < n_zero == dim - 1:
        for k, normal in enumerate(normals):
            first = 0
            for d in range(1, dim):
                if abs(normal[d]) > abs(normal[first]):
                    first = d
            normals[k] = np.where(np.arange(dim) == first, normal, 0.0)
    return [(normal, rng.uniform(lo, hi)) for normal, (lo, hi) in zip(normals, spans)]


def draw_split_oracle(rng, dim, n_zero, lo, hi):
    """One node's split, alone on its level: ``draw_level_oracle`` of one node."""
    return draw_level_oracle(rng, dim, n_zero, [(lo, hi)])[0]


def check_tree_oracle(tree: IsolationTree, where: str, psi: int, nonzeros: int, limit: int) -> None:
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
    # as Python ints: numpy would join uint64 and signed children as float64
    children = np.array([left[inner].tolist(), right[inner].tolist()], dtype=object).T
    bad = np.argwhere(((children < 0) | (children >= n)).astype(bool))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"node {inner[i]} of {where} has child index {children[i, j]} out of range")
    down = np.full((n, 2), -1, dtype=np.int64)  # each internal node's children, each in [0, n) now
    down[inner] = children.astype(np.int64)
    same = np.flatnonzero(down[inner, 0] == down[inner, 1])
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
        frontier, depth = down[frontier[down[frontier, 0] >= 0]].ravel(), depth + 1
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
        inner = np.flatnonzero(left >= 0)
        splits = [rows[k] for k in inner.tolist()]
        normal[inner] = [row[0] for row in splits]
        intercept[inner] = [row[1] for row in splits]
    return IsolationTree(normal=normal, intercept=intercept, left=left, right=right, size=size, angle=angle)


def grow_oracle(x, *, limit, extension_level, rng, angle=None):
    """One tree grown alone, breadth first, on row-major data, the reference
    for ``_grow_trees``: each node copies its rows with a mask, the nodes
    that split at a depth draw their splits left to right with
    ``draw_level_oracle``, and each adds the margin terms of its nonzero
    normal entries one coordinate at a time, in index order. The tree is
    written in preorder by ``tree_from_nested``."""
    dim = x.shape[1]
    top = [None]
    level = [(x, top, 0)]  # each node's rows, and where its nested value goes
    for height in range(limit + 1):
        splitting = []
        for rows, holder, key in level:
            if height >= limit or len(rows) <= 1 or bool((rows == rows[0]).all()):
                holder[key] = len(rows)
            else:
                splitting.append((rows, holder, key))
        spans = [(rows.min(axis=0), rows.max(axis=0)) for rows, _, _ in splitting]
        level = []
        for (rows, holder, key), (normal, intercept) in zip(
                splitting, draw_level_oracle(rng, dim, dim - 1 - extension_level, spans)):
            margins = np.zeros(len(rows))
            for d in np.flatnonzero(normal).tolist():
                margins += (rows[:, d] - intercept[d]) * normal[d]
            went_left = margins <= 0.0
            holder[key] = node = [normal, intercept, None, None]
            level += [(rows[went_left], node, 2), (rows[~went_left], node, 3)]
    return tree_from_nested(top[0], dim, angle)


def forest_oracle(data, t, psi, extension_level, seed, rotated=False):
    """The forest ``build_forest`` trains, or ``build_rotated_forest`` when
    ``rotated`` (at level 0), grown one tree at a time: derive tree i's
    stream, draw its subsample and, when rotated, its angle, turn the
    subsample by it, and grow the tree with ``grow_oracle``."""
    root = make_rng(seed)
    trees = []
    for i in range(t):
        stream = derive_stream(root, i)
        sample = subsample(stream, data, psi)
        angle = None
        if rotated:
            angle = float(stream.uniform(0.0, 2 * math.pi))
            sample = _rotate(sample.T, angle).T
        trees.append(grow_oracle(sample, limit=height_limit_for(psi), extension_level=extension_level,
                                 rng=stream, angle=angle))
    return Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)


def knife_edge_points(normal, intercept, lo, hi):
    """Points in the box [lo, hi] whose side of the split (normal, intercept)
    depends on the order the margin terms are added in.

    Over n's nonzero entries, a point's terms are a small e at the first, B
    and -B' at the third and fourth, and exact zeros elsewhere. Added one at
    a time in index order, e meets B first and is rounded to a whole number
    of B's last-place units. numpy's pairwise summation, which a reduce
    along a contiguous axis of 9 or more terms uses, adds B to -B' first and
    e to their difference. With e a quarter unit beyond -(B - B'), the two
    orders give margins on opposite sides of 0. Only candidates on which the
    orders really disagree are returned, possibly none.
    """
    normal, intercept = np.asarray(normal, float), np.asarray(intercept, float)
    nz = np.flatnonzero(normal)
    if nz.size < 9:
        return np.empty((0, normal.size))
    e, a, b = nz[0], nz[2], nz[3]
    found = []
    for sign in (1.0, -1.0):
        # B = sign * size moves coordinate a toward sign * n[a], and B' moves b the other way
        room_a = hi[a] - intercept[a] if sign * normal[a] > 0 else intercept[a] - lo[a]
        room_b = hi[b] - intercept[b] if sign * normal[b] < 0 else intercept[b] - lo[b]
        size = 0.5 * min(room_a * abs(normal[a]), room_b * abs(normal[b]))
        x = intercept.copy()
        x[a] = intercept[a] + sign * size / normal[a]
        big = (x[a] - intercept[a]) * normal[a]
        x[b] = intercept[b] - big / normal[b]
        rest = big + (x[b] - intercept[b]) * normal[b]
        x[e] = intercept[e] + (0.25 * np.spacing(abs(big)) - rest) / normal[e]
        terms = (x[nz] - intercept[nz]) * normal[nz]
        in_order = 0.0
        for term in terms.tolist():
            in_order += term
        inside = bool(((x >= lo) & (x <= hi)).all())
        if inside and (in_order <= 0.0) != (np.add.reduce(terms) <= 0.0):
            found.append(x)
    return np.array(found).reshape(-1, normal.size)


def tree_from_nested(node, dimension=None, angle=None):
    """Node arrays, in preorder, of a tree written as nested values: a leaf
    is its size, an internal node is ``(normal, intercept, left, right)``."""
    normal, intercept, left, right, size = [], [], [], [], []

    def add(node):
        k = len(left)
        if isinstance(node, int):
            normal.append(None)
            intercept.append(None)
            left.append(-1)
            right.append(-1)
            size.append(node)
            return
        n, p, lo, hi = node
        normal.append(list(n))
        intercept.append(list(p))
        left.append(k + 1)
        right.append(-1)
        size.append(0)
        add(lo)
        right[k] = len(left)
        add(hi)

    add(node)
    if dimension is None:
        dimension = len(next(v for v in normal if v is not None))
    zeros = [0.0] * dimension
    return IsolationTree(
        normal=np.array([zeros if v is None else v for v in normal], dtype=float),
        intercept=np.array([zeros if v is None else v for v in intercept], dtype=float),
        left=np.array(left), right=np.array(right), size=np.array(size), angle=angle,
    )


def leaf_depths(tree):
    """{leaf node index: depth}, found by walking the child arrays from node 0."""
    depths = {}
    stack = [(0, 0)]
    while stack:
        k, depth = stack.pop()
        if tree.left[k] < 0:
            depths[k] = depth
        else:
            stack.extend([(int(tree.left[k]), depth + 1), (int(tree.right[k]), depth + 1)])
    return depths


def path_length_oracle(x, tree):
    """One point's path length in one tree by a scalar walk over its node
    arrays: Python floats, each margin accumulated in coordinate order, then
    the leaf's c(size) credit."""
    p = [float(v) for v in x]
    if tree.angle is not None:
        c, s = math.cos(tree.angle), math.sin(tree.angle)
        p = [p[0] * c - p[1] * s, p[0] * s + p[1] * c]
    k, depth = 0, 0
    while tree.left[k] >= 0:
        margin = 0.0
        for d in range(len(p)):
            margin += (p[d] - float(tree.intercept[k, d])) * float(tree.normal[k, d])
        k = int(tree.left[k] if margin <= 0.0 else tree.right[k])
        depth += 1
    return depth + c_factor(int(tree.size[k]))


def score_oracle(x, forest):
    """One point's score from its ``path_length_oracle`` in each tree,
    summed in tree order."""
    total = 0.0
    for tree in forest.trees:
        total += path_length_oracle(x, tree)
    return 2.0 ** (-(total / forest.t) / forest.normalizer)


def read_csv_oracle(path, label_column=None):
    """Dataset CSV parsed cell by cell with ``float``, failing at the first
    fault in file order. The first line is a header when any of its cells is
    not a number, and it fixes the cell count of every line."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        raw = [(reader.line_num, row) for row in reader if row]
    if not raw:
        raise CsvFormatError(f"{path}: file is empty")
    width = len(raw[0][1])
    header = None
    try:
        for cell in raw[0][1]:
            float(cell)
    except ValueError:
        header = [c.strip() for c in raw[0][1]]
        raw = raw[1:]
        if not raw:
            raise CsvFormatError(f"{path}: no data rows after header") from None

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise CsvFormatError(f"label column {label_column!r} requested but the file has no header")
            if label_column not in header:
                raise CsvFormatError(f"unknown label column {label_column!r}; header has {header}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise CsvFormatError(f"label column index {label_idx} out of range for {width} columns")

    n = len(raw)
    features = np.empty((n, width - (1 if label_idx is not None else 0)))
    labels = np.empty(n, dtype=int) if label_idx is not None else None
    for r, (line_num, row) in enumerate(raw):
        if len(row) != width:
            raise CsvFormatError(f"ragged row at line {line_num}: expected {width} cells, got {len(row)}")
        c_out = 0
        for c, cell in enumerate(row):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(f"non-numeric cell {text!r} at line {line_num}, column {c + 1}") from None
            if not math.isfinite(value):
                raise CsvFormatError(f"non-finite value {text!r} at line {line_num}, column {c + 1}")
            if c == label_idx:
                if value not in (0.0, 1.0):
                    raise CsvFormatError(f"label at line {line_num} is {cell!r}, must be 0 or 1")
                labels[r] = int(value)
            else:
                features[r, c_out] = value
                c_out += 1
    if features.shape[1] < 1:
        raise CsvFormatError(f"{path}: no feature columns")
    return features, labels
