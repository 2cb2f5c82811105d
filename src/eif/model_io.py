"""Model serialization and CSV input/output.

Model file: a single UTF-8 JSON document,

    {
      "format": "eif-model", "version": 1,
      "variant": "extended" | "standard-equivalent" | "rotated",
      "dimension": N, "t": ..., "psi": ..., "extension_level": ...,
      "seed": ..., "rng_family": "...",
      "trees": [{"height_limit": ..., "nodes": [...], "angle": ...}, ...]
    }

Each tree is its node array, root at index 0; a node is either ``{"kind":
"internal", "normal": [...], "intercept": [...], "left_index": i,
"right_index": j}`` or ``{"kind": "external", "size": n}``. These are the
arrays an in-memory tree holds, so saving writes them out and loading reads
them back in file order. Rotated trees also carry their angle. The document
spells out what a Forest derives (``variant``, ``dimension``, ``t``, each
tree's ``height_limit``). Floats are written in Python's shortest round-trip
form, so load(save(f)) scores bit-for-bit like f.

CSV dialect throughout: comma separator, "." decimal, LF line endings,
UTF-8, one optional header line. Scores are written with 9 significant
digits; dataset values and grid coordinates in shortest round-trip form.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ModelFormatError, UnsupportedVersionError
from .evaluation import grid_points
from .forest import VARIANT_ROTATED, Forest, IsolationTree, height_limit_for, tree_from_rows
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


def _tree_document(tree: IsolationTree, height_limit: int) -> dict:
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
    return doc


def forest_to_document(forest: Forest) -> dict:
    """Plain-dict form of a trained forest, ready for JSON."""
    height_limit = height_limit_for(forest.psi)
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
        "trees": [_tree_document(tree, height_limit) for tree in forest.trees],
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


def _floats(values: list, what: str) -> list[float]:
    try:
        if set(map(type, values)) <= {int, float}:  # exact types: a JSON true is a bool
            return list(map(float, values))
    except OverflowError:  # an integer beyond the float range
        pass
    raise _fail(f"{what} has non-numeric or non-finite entries")


def _read_tree(td, where: str, dimension: int, rotated: bool) -> IsolationTree:
    """Tree from its document: the nodes in file order, read into arrays."""
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
            if min(children) < 0:  # in the node arrays a negative child marks a leaf
                raise _fail(f"{node} has child index {min(children)} out of range")
            rows.append([_floats(n_vec, f"split normal of {node}"),
                         _floats(p_vec, f"split intercept of {node}"), *children, 0])
        else:
            raise _fail(f"{node} has unknown kind {kind!r}")
    # Rows cost dimension floats each, so their count is bounded by the splits read.
    reachable = 1 + 2 * sum(row[2] >= 0 for row in rows)
    if len(rows) > reachable:
        raise _fail(f"{where} has {len(rows)} nodes, but its splits reach at most {reachable}: some are unreachable")
    try:
        return tree_from_rows(rows, dimension, angle)
    except OverflowError:
        raise _fail(f"{where} has a child index or size beyond 64 bits") from None


def load_forest(path) -> Forest:
    """Read a model document into a Forest of any variant.

    Checks here cover what only the document can get wrong (types, format,
    lengths, the derived fields); the Forest checks the model, and its
    ValueError is raised as ModelFormatError. Warns when the model's
    ``rng_family`` is not this build's: it scores the same, but retraining
    from its seed may draw differently.
    """
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
    rng_family = _require(doc, "rng_family", str, "document")
    tree_docs = _require(doc, "trees", list, "document")
    if not 1 <= dimension < 2**60:  # 2**60 float64 values fill numpy's largest array
        raise _fail(f"dimension must be in [1, 2**60), got {dimension}")
    t = _require(doc, "t", int, "document")
    if t != len(tree_docs):
        raise _fail(f"t={t} does not match {len(tree_docs)} serialized trees")

    trees = [_read_tree(td, f"tree {k}", dimension, variant == VARIANT_ROTATED)
             for k, td in enumerate(tree_docs)]
    try:
        forest = Forest(trees=trees, psi=psi, extension_level=extension_level, seed=seed)
    except ValueError as e:
        raise _fail(str(e)) from e
    limit = height_limit_for(psi)  # psi is in range once the Forest is made
    for k, td in enumerate(tree_docs):
        if td["height_limit"] != limit:
            raise _fail(f"tree {k} has height_limit {td['height_limit']}, expected {limit} for psi={psi}")
    if forest.variant != variant:
        raise _fail(f"variant {variant!r} contradicts extension_level {extension_level}, "
                    f"which makes the model {forest.variant!r}")
    if rng_family != RNG_FAMILY:
        warnings.warn(f"model {path} was built under rng family {rng_family!r}, this build runs "
                      f"{RNG_FAMILY!r}: it scores as before, but retraining from its seed may "
                      "not reproduce it", UserWarning, stacklevel=2)
    return forest


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
