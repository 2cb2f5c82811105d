"""Model serialization and CSV input/output.

Model file: a single UTF-8 JSON document,

    {
      "format": "eif-model", "version": 1,
      "variant": "extended" | "standard-equivalent" | "rotated",
      "dimension": N, "t": ..., "psi": ..., "extension_level": ...,
      "seed": ..., "rng_family": "...",
      "trees": [{"height_limit": ..., "nodes": [...], "angle": ...}, ...]
    }

Each tree is its node array in preorder with the root at index 0; a node is
either ``{"kind": "internal", "normal": [...], "intercept": [...],
"left_index": i, "right_index": j}`` or ``{"kind": "external", "size": n}``.
These are the arrays an in-memory tree holds, so saving writes them out and
loading fills them. Rotated trees additionally carry their angle. Floats are
written in Python's shortest round-trip form, so load(save(f)) scores
bit-for-bit like f. Loading validates structure (types, bounds, a single
visit per node, reachability) and the invariants every built tree has (depth
at most height_limit = ceil(log2 psi), leaf sizes summing to psi, exactly
extension_level + 1 nonzero entries per normal), and reports the first
violation by tree and node.

CSV dialect throughout: comma separator, "." decimal, LF line endings,
UTF-8, one optional header line. Scores are written with 9 significant
digits; dataset values and grid coordinates in shortest round-trip form.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ModelFormatError, UnsupportedVersionError
from .evaluation import grid_points
from .forest import VARIANT_ROTATED, VARIANTS, Forest, IsolationTree, c_factor, height_limit_for, tree_from_rows
from .rng import RNG_FAMILY

FORMAT_MAGIC = "eif-model"
FORMAT_VERSION = 1


def _atomic_write_text(path, text: str) -> None:
    """Write whole file or nothing: temp file in the same dir, fsync, rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _tree_document(tree: IsolationTree) -> dict:
    doc = {"height_limit": tree.height_limit}
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
    return doc


def forest_to_document(forest: Forest) -> dict:
    """Plain-dict form of a trained forest, ready for JSON."""
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
        "trees": [_tree_document(tree) for tree in forest.trees],
    }


def save_forest(forest: Forest, path) -> None:
    """Write the model document to ``path`` (fsynced, never partial)."""
    try:
        _atomic_write_text(path, json.dumps(forest_to_document(forest), indent=1))
    except OSError as e:
        raise OSError(f"cannot write model to {path}: {e}") from e


def _fail(msg: str) -> ModelFormatError:
    return ModelFormatError(f"invalid model: {msg}")


def _require(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise _fail(f"missing field {key!r} in {where}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):  # JSON true/false are not numbers
        raise _fail(f"field {key!r} in {where} has wrong type {type(value).__name__}")
    return value


def _finite_floats(values: list, what: str) -> list[float]:
    try:
        floats = [float(v) for v in values
                  if isinstance(v, (int, float)) and not isinstance(v, bool)]
    except OverflowError:  # an integer beyond the float range
        floats = []
    if len(floats) != len(values) or not all(map(math.isfinite, floats)):
        raise _fail(f"{what} has non-numeric or non-finite entries")
    return floats


def _read_tree(td, k: int, dimension: int, psi: int, extension_level: int, rotated: bool):
    """Validate tree k's document and fill its node arrays in preorder."""
    where = f"tree {k}"
    if not isinstance(td, dict):
        raise _fail(f"{where} is not an object")
    height_limit = _require(td, "height_limit", int, where)
    limit = height_limit_for(psi)
    if height_limit != limit:
        raise _fail(f"{where} has height_limit {height_limit}, expected {limit} for psi={psi}")
    angle = None
    if rotated:
        angle = _finite_floats([_require(td, "angle", (int, float), where)], f"angle of {where}")[0]
    nodes = _require(td, "nodes", list, where)
    count = len(nodes)
    if count == 0:
        raise _fail(f"{where} has no nodes")

    rows = []  # [normal, intercept, left, right, size] per node, in preorder
    seen: set[int] = set()
    # (file index, depth, row of the parent whose right child this is)
    stack: list[tuple[int, int, list | None]] = [(0, 0, None)]
    while stack:
        i, depth, parent = stack.pop()
        node = f"node {i} of {where}"
        if i in seen:
            raise _fail(f"{node} is reached twice (cycle or shared subtree)")
        seen.add(i)
        if depth > height_limit:
            raise _fail(f"{node} is at depth {depth}, beyond height_limit {height_limit}")
        if parent is not None:
            parent[3] = len(rows)
        rec = nodes[i]
        if not isinstance(rec, dict):
            raise _fail(f"{node} is not an object")
        kind = _require(rec, "kind", str, node)
        if kind == "external":
            n = _require(rec, "size", int, node)
            if n < 0:
                raise _fail(f"{node} has negative size {n}")
            rows.append([None, None, -1, -1, n])
        elif kind == "internal":
            n_vec = _require(rec, "normal", list, node)
            p_vec = _require(rec, "intercept", list, node)
            if len(n_vec) != dimension or len(p_vec) != dimension:
                raise _fail(f"{node} has vectors of length != dimension {dimension}")
            n_vec = _finite_floats(n_vec, f"split normal of {node}")
            p_vec = _finite_floats(p_vec, f"split intercept of {node}")
            nonzero = sum(v != 0.0 for v in n_vec)
            if nonzero == 0:
                raise _fail(f"{node} has an all-zero normal")
            if nonzero != extension_level + 1:
                raise _fail(f"{node} has {nonzero} nonzero normal entries, "
                            f"expected {extension_level + 1}")
            children = [_require(rec, key, int, node) for key in ("left_index", "right_index")]
            for child in children:
                if not 0 <= child < count:
                    raise _fail(f"{node} has child index {child} out of range")
            if children[0] == children[1]:
                raise _fail(f"{node} has identical children")
            rows.append([n_vec, p_vec, len(rows) + 1, -1, 0])
            # Left popped first, so it lands at the next preorder index.
            stack.append((children[1], depth + 1, rows[-1]))
            stack.append((children[0], depth + 1, None))
        else:
            raise _fail(f"{node} has unknown kind {kind!r}")
    if len(seen) != count:
        raise _fail(f"{where} has {count - len(seen)} unreachable node(s)")
    mass = sum(row[4] for row in rows)
    if mass != psi:
        raise _fail(f"{where} has leaf sizes summing to {mass}, expected psi={psi}")
    return tree_from_rows(rows, dimension, height_limit, psi, angle)


def load_forest(path) -> Forest:
    """Read and validate a model document; returns a Forest of any variant."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot read model from {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _fail(f"not valid JSON (truncated or corrupt file?): {e}") from e
    if not isinstance(doc, dict):
        raise _fail("top level is not an object")
    magic = _require(doc, "format", str, "document")
    if magic != FORMAT_MAGIC:
        raise _fail(f"format magic is {magic!r}, expected {FORMAT_MAGIC!r}")
    version = _require(doc, "version", int, "document")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"model file has version {version}; this build supports version {FORMAT_VERSION}"
        )
    variant = _require(doc, "variant", str, "document")
    dimension = _require(doc, "dimension", int, "document")
    psi = _require(doc, "psi", int, "document")
    extension_level = _require(doc, "extension_level", int, "document")
    seed = _require(doc, "seed", int, "document")
    _require(doc, "rng_family", str, "document")
    tree_docs = _require(doc, "trees", list, "document")
    if variant not in VARIANTS:
        raise _fail(f"unknown variant {variant!r}")
    if not 1 <= dimension < 2**60:  # 2**60 float64 values fill numpy's largest array
        raise _fail(f"dimension must be in [1, 2**60), got {dimension}")
    if variant == VARIANT_ROTATED and dimension != 2:
        raise _fail(f"rotated variant requires dimension 2, got {dimension}")
    if not 2 <= psi < 2**63:
        raise _fail(f"psi must be in [2, 2**63), got {psi}")
    if not 0 <= seed < 2**64:
        raise _fail(f"seed must be in [0, 2**64), got {seed}")
    if not tree_docs:
        raise _fail("document has no trees")
    if not 0 <= extension_level <= dimension - 1:
        raise _fail(f"extension_level {extension_level} out of range for dimension {dimension}")
    t = _require(doc, "t", int, "document")
    if t != len(tree_docs):
        raise _fail(f"t={t} does not match {len(tree_docs)} serialized trees")

    rotated = variant == VARIANT_ROTATED
    trees = [
        _read_tree(td, k, dimension, psi, extension_level, rotated)
        for k, td in enumerate(tree_docs)
    ]
    return Forest(
        trees=trees, psi=psi, dimension=dimension, extension_level=extension_level,
        normalizer=c_factor(psi), variant=variant, seed=seed,
    )


# -- CSV ----------------------------------------------------------------


def _parse_cell(cell: str, line_num: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            f"non-numeric cell {cell!r} at line {line_num}, column {col + 1}"
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"non-finite value {cell!r} at line {line_num}, column {col + 1}")
    return value


def _looks_numeric(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def read_csv(path, has_header: bool | None = None, label_column=None):
    """Parse a dataset CSV into (rows-by-dimension array, labels or None).

    ``has_header=None`` auto-detects: a first line with any non-numeric cell
    is treated as a header. ``label_column`` may be a column name (requires
    a header) or a 0-based index; that column must hold only 0/1 and is
    returned separately.
    """
    import csv as _csv

    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = _csv.reader(f)
            raw = [(reader.line_num, row) for row in reader if row]
    except OSError as e:
        raise OSError(f"cannot read CSV from {path}: {e}") from e
    if not raw:
        raise CsvFormatError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header is None:
        has_header = not _looks_numeric(raw[0][1])
    if has_header:
        header = [c.strip() for c in raw[0][1]]
        raw = raw[1:]
        if not raw:
            raise CsvFormatError(f"{path}: no data rows after header")

    width = len(raw[0][1])
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise CsvFormatError(
                    f"label column {label_column!r} requested but the file has no header"
                )
            if label_column not in header:
                raise CsvFormatError(
                    f"unknown label column {label_column!r}; header has {header}"
                )
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise CsvFormatError(
                    f"label column index {label_idx} out of range for {width} columns"
                )

    n = len(raw)
    features = np.empty((n, width - (1 if label_idx is not None else 0)))
    labels = np.empty(n, dtype=int) if label_idx is not None else None
    for r, (line_num, row) in enumerate(raw):
        if len(row) != width:
            raise CsvFormatError(
                f"ragged row at line {line_num}: expected {width} cells, got {len(row)}"
            )
        c_out = 0
        for c, cell in enumerate(row):
            value = _parse_cell(cell.strip(), line_num, c)
            if c == label_idx:
                if value not in (0.0, 1.0):
                    raise CsvFormatError(
                        f"label at line {line_num} is {cell!r}, must be 0 or 1"
                    )
                labels[r] = int(value)
            else:
                features[r, c_out] = value
                c_out += 1
    if features.shape[1] < 1:
        raise CsvFormatError(f"{path}: no feature columns")
    return features, labels


def format_score(value: float) -> str:
    """Scores go to disk with 9 significant digits."""
    return f"{value:.9g}"


def write_dataset_csv(path, data: np.ndarray) -> None:
    """Dataset rows under an x0..x{N-1} header, shortest round-trip floats."""
    data = np.asarray(data, dtype=np.float64)
    lines = [",".join(f"x{d}" for d in range(data.shape[1]))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in data)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_scores_csv(path, ids, scores) -> None:
    lines = ["index,score"]
    lines.extend(f"{int(i)},{format_score(float(s))}" for i, s in zip(ids, scores))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_grid_csv(path, grid) -> None:
    """Row-major, x fastest: one row per grid cell under an x,y,score header."""
    points = grid_points(grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny)
    lines = ["x,y,score"]
    lines.extend(
        f"{x!r},{y!r},{format_score(v)}"
        for (x, y), v in zip(points.tolist(), grid.values.ravel().tolist(), strict=True)
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_stats_csv(path, stats) -> None:
    lines = ["level,mean,variance,n_probe"]
    lines.extend(
        f"{repr(s.level)},{format_score(s.mean)},{format_score(s.variance)},{s.n_probe}"
        for s in stats
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_convergence_csv(path, series) -> None:
    lines = ["t,mean,variance"]
    lines.extend(
        f"{t},{format_score(m)},{format_score(v)}"
        for t, m, v in zip(series.t_values, series.means, series.variances)
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")
