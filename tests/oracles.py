"""Brute-force reference implementations used to pin metric behavior."""

import csv
import math

import numpy as np

from eif.errors import CsvFormatError
from eif.evaluation import ConvergenceSeries, _population_variance, grid_points
from eif.forest import (
    Forest, IsolationTree, _columns, _grow_trees, _rotate_rows, build_forest, c_factor, height_limit_for,
    sample_hyperplane, score_batch,
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


def document_oracle(forest):
    """The v1 model document of ``forest`` as plain dicts and lists, the
    reference for what ``save_forest`` writes: its file is
    ``json.dumps(document_oracle(forest), indent=1)``."""
    height_limit = height_limit_for(forest.psi)
    trees = []
    for tree in forest.trees:
        doc = {"height_limit": height_limit}
        if tree.angle is not None:
            doc["angle"] = tree.angle
        normal, intercept = tree.normal.tolist(), tree.intercept.tolist()
        left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
        doc["nodes"] = [
            {"kind": "internal", "normal": normal[k], "intercept": intercept[k],
             "left_index": left[k], "right_index": right[k]}
            if left[k] >= 0 else {"kind": "external", "size": size[k]}
            for k in range(len(left))
        ]
        trees.append(doc)
    return {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "variant": forest.variant,
        "dimension": forest.dimension,
        "t": forest.t,
        "psi": forest.psi,
        "extension_level": forest.extension_level,
        "seed": forest.seed,
        "rng_family": RNG_FAMILY,
        "trees": trees,
    }


def read_tree_oracle(td, where, dimension, rotated):
    """One tree of a v1 model document read node by node in file order, each
    field checked as it is met and each vector converted on its own; the
    reference for ``model_io._read_tree``, with its signature."""
    if not isinstance(td, dict):
        raise _fail(f"{where} is not an object")
    _require(td, "height_limit", int, where)
    angle = None
    if rotated:
        angle = _floats([_require(td, "angle", (int, float), where)], f"angle of {where}")[0]
    elif "angle" in td:
        raise _fail(f"{where} has an angle, which only the rotated variant carries")
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
            n_vec = _require(rec, "normal", list, node)
            p_vec = _require(rec, "intercept", list, node)
            if len(n_vec) != dimension or len(p_vec) != dimension:
                raise _fail(f"{node} has vectors of length != dimension {dimension}")
            children = [_require(rec, key, int, node) for key in ("left_index", "right_index")]
            if min(children) < 0:
                raise _fail(f"{node} has child index {min(children)} out of range")
            rows.append([_floats(n_vec, f"split normal of {node}"),
                         _floats(p_vec, f"split intercept of {node}"), *children, 0])
        else:
            raise _fail(f"{node} has unknown kind {kind!r}")
    reachable = 1 + 2 * sum(row[2] >= 0 for row in rows)
    if len(rows) > reachable:
        raise _fail(f"{where} has {len(rows)} nodes, but its splits reach at most {reachable}: some are unreachable")
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
    samples = [_rotate_rows(subsample(stream, data, psi), angle) for stream, angle in zip(streams, angles)]
    trees = _grow_trees(_columns(np.concatenate(samples)), streams, angles, limit=height_limit_for(psi),
                        extension_level=0)
    return Forest(trees=trees, psi=psi, extension_level=0, seed=seed)


def draw_split_oracle(rng, dim, n_zero, lo, hi):
    """``_draw_split`` with numpy's own uniform transform: the same normal
    draws, then the intercept from ``Generator.uniform(lo, hi)``."""
    normal = rng.standard_normal(dim)
    keep = np.ones(dim, dtype=bool)
    if n_zero:
        keep[choose_indices(rng, dim, n_zero)] = False
        normal[~keep] = 0.0
    while not np.any(normal != 0.0):
        normal[keep] = rng.standard_normal(int(keep.sum()))
    return normal, rng.uniform(lo, hi)


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
    """One tree grown alone, recursively, on row-major data, the reference
    for ``_grow_trees``: each node copies its rows with a mask,
    draws its split with ``sample_hyperplane`` and adds the margin terms of
    the nonzero normal entries one coordinate at a time, in index order."""
    rows = []

    def grow(x, height):
        n = x.shape[0]
        if height >= limit or n <= 1 or bool((x == x[0]).all()):
            rows.append([None, None, -1, -1, n])
            return
        normal, intercept = sample_hyperplane(x, extension_level, rng)
        row = [normal, intercept, len(rows) + 1, -1, 0]
        rows.append(row)
        margins = np.zeros(n)
        for d in np.flatnonzero(normal).tolist():
            margins += (x[:, d] - intercept[d]) * normal[d]
        went_left = margins <= 0.0
        grow(x[went_left], height + 1)
        row[3] = len(rows)
        grow(x[~went_left], height + 1)

    grow(x, 0)
    return tree_from_rows(rows, x.shape[1], angle)


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
            sample = _rotate_rows(sample, angle)
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


def score_oracle(x, forest):
    """One point's score by a scalar walk over each tree's node arrays:
    Python floats, each margin accumulated in coordinate order, per-tree
    depths summed in tree order."""
    total = 0.0
    for tree in forest.trees:
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
        total += depth + c_factor(int(tree.size[k]))
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
