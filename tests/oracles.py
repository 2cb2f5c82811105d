"""Brute-force reference implementations used to pin metric behavior."""

import csv
import math

import numpy as np

from eif.errors import CsvFormatError
from eif.evaluation import ConvergenceSeries, _population_variance
from eif.forest import IsolationTree, build_forest, c_factor, score_batch


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


def random_labeled_instance(rng, max_size=50, allow_ties=True):
    """A random-scores instance with at least one anomaly; half the draws
    round scores to one decimal to exercise tie handling."""
    n = rng.integers(2, max_size + 1)
    labels = np.zeros(n, dtype=int)
    labels[: rng.integers(1, n)] = 1
    perm = np.argsort(rng.uniform(0.0, 1.0, n))
    labels = labels[perm]
    if allow_ties and rng.uniform(0.0, 1.0) < 0.5:
        scores = np.round(rng.uniform(0.0, 1.0, n), 1)
    else:
        scores = rng.uniform(0.0, 1.0, n)
    return scores, labels


def choose_indices_oracle(rng, n, k):
    """Partial Fisher-Yates with one scalar bounded-integer draw per swap."""
    idx = np.arange(n)
    for i in range(k):
        j = rng.integers(i, n)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k].copy()


def convergence_curve_oracle(data, probe_points, t_values, psi, extension_level, seed):
    """One forest trained and fully scored per entry of t_values."""
    means, variances = [], []
    for t in t_values:
        s = score_batch(probe_points, build_forest(data, t, psi, extension_level, seed))
        means.append(float(s.mean()))
        variances.append(_population_variance(s))
    return ConvergenceSeries(t_values=list(t_values), means=means, variances=variances)


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
