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
form, so load(save(f)) scores bit-for-bit like f. ``save_forest`` writes the
text itself, byte for byte as ``json.dumps(document, indent=1)`` lays it out
(keys in the order above, one value per line, one space of indent per
level); only the loader goes through ``json``. It streams the text: the
header, then one tree's text at a time, so a save holds one tree's text,
never the whole document. The loader fills each tree's arrays from its node
list in a few bulk passes; when one raises or a check fails, a walk over
the nodes in file order names the first fault, and nothing is built.

CSV dialect throughout: comma separator, "." decimal, UTF-8, one optional
header line. The writers write LF line endings; ``read_csv`` also reads CRLF
ones and quoted cells. It streams the file through csv.reader and converts
a chunk of records at a time, so one str per cell is never held for the
whole file; errors name the first faulty line. Scores are written with 9
significant digits; dataset values and grid coordinates in shortest
round-trip form, each of a grid's nx + ny coordinates formatted once.

Every output file is written atomically by ``_write_text``, with the mode
``open()`` would give it; a write error, or an error raised while the text
is made, leaves any old file as it was, and a write error names the
requested path.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import operator
import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ModelFormatError, UnsupportedVersionError
from .evaluation import grid_axes
from .forest import VARIANT_ROTATED, Forest, IsolationTree, as_dataset, height_limit_for
from .rng import RNG_FAMILY, _check_integer

FORMAT_MAGIC = "eif-model"
FORMAT_VERSION = 1


def _write_text(path, pieces) -> None:
    """Whole file or nothing, with the mode open() gives: each str of the
    iterable ``pieces`` is written as it arrives into a new file beside
    ``path`` (the umask applies, a replaced file's bits carry over), which is
    fsynced and renamed over it; any failure, one raised by ``pieces``
    included, removes it, and an OSError names ``path``."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
    created = False
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as f:
            created = True
            f.writelines(pieces)
            f.flush()
            os.fsync(f.fileno())
        with contextlib.suppress(FileNotFoundError):  # no file to replace: keep the umask's mode
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException as e:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(f"cannot write {path}: {e.strerror or e}") from e
        raise


# One node of a tree's "nodes" list, at the depth and in the key order
# json.dumps(document, indent=1) puts it; vector entries are joined by _ENTRY.
_ENTRY = ",\n      "
_INTERNAL = ('    {\n     "kind": "internal",\n     "normal": [\n      %s\n     ],\n'
             '     "intercept": [\n      %s\n     ],\n     "left_index": %d,\n     "right_index": %d\n    }')
_EXTERNAL = '    {\n     "kind": "external",\n     "size": %d\n    }'


def _tree_text(tree: IsolationTree, height_limit: int) -> str:
    """One entry of the "trees" list: height_limit, the angle of a rotated
    tree, then the nodes in array order. Floats are written with ``repr``
    and integers in decimal, as ``json`` writes them."""
    left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
    normal = intercept = None
    if len(left) > 1:  # a lone leaf's zero row is never written, so never listed
        normal, intercept = tree.normal.tolist(), tree.intercept.tolist()
    nodes = ",\n".join(
        _INTERNAL % (_ENTRY.join(map(repr, normal[k])), _ENTRY.join(map(repr, intercept[k])), left[k], right[k])
        if left[k] >= 0 else _EXTERNAL % size[k]
        for k in range(len(left))
    )
    angle = "" if tree.angle is None else f'   "angle": {json.dumps(tree.angle)},\n'
    return f'  {{\n   "height_limit": {height_limit},\n{angle}   "nodes": [\n{nodes}\n   ]\n  }}'


def save_forest(forest: Forest, path) -> None:
    """Write the model document to ``path`` (fsynced, never partial).

    The header fields go through ``json.dumps``; the trees are filled into
    fixed node templates, which is several times faster than ``json``'s
    indenting encoder, a pure-Python one. The text is what
    ``json.dumps(document, indent=1)`` gives for the document the module
    docstring lays out; it is written a tree at a time, so the whole text is
    never held.
    """
    header = json.dumps({
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "variant": forest.variant,
        "dimension": forest.dimension,
        "t": forest.t,
        "psi": forest.psi,
        "extension_level": forest.extension_level,
        "seed": forest.seed,
        "rng_family": RNG_FAMILY,
    }, indent=1)[:-2]  # the document goes on: drop the closing "\n}"
    height_limit = height_limit_for(forest.psi)

    def pieces():
        yield f'{header},\n "trees": [\n'
        for k, tree in enumerate(forest.trees):
            if k:
                yield ",\n"
            yield _tree_text(tree, height_limit)
        yield "\n ]\n}"

    _write_text(path, pieces())


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


_KINDS = {"internal", "external"}
_kind = operator.itemgetter("kind")
_normal = operator.itemgetter("normal")
_intercept = operator.itemgetter("intercept")
_children = operator.itemgetter("left_index", "right_index")
_size = operator.itemgetter("size")


def _node_arrays(nodes: list, dimension: int):
    """(normal, intercept, left, right, size) of a node list, filled in a few
    bulk passes: kinds, children and sizes, one exact-type scan of every
    vector entry, one ``np.array`` per vector column. None when a pass
    raises or a check fails; ``_node_fault`` then names the fault."""
    try:
        kinds = list(map(_kind, nodes))
        if not set(kinds) <= _KINDS:
            return None
        split = np.array([kind == "internal" for kind in kinds], dtype=bool)
        inner = list(itertools.compress(nodes, split))
        leaf = ~split
        sizes = list(map(_size, itertools.compress(nodes, leaf)))
        children = list(itertools.chain.from_iterable(map(_children, inner)))
        normals, intercepts = list(map(_normal, inner)), list(map(_intercept, inner))
        vectors = normals + intercepts
        if not (set(map(type, itertools.chain(sizes, children))) <= {int}  # exact types: a JSON true is a bool
                and set(map(type, vectors)) <= {list} and set(map(len, vectors)) <= {dimension}
                and set(map(type, itertools.chain.from_iterable(vectors))) <= {int, float}
                and min(children, default=0) >= 0  # in the node arrays a negative child marks a leaf
                and len(nodes) <= 1 + 2 * len(inner)):  # the node-count bound, before any (nodes, dimension) array
            return None
        size = np.zeros(len(nodes), dtype=np.int64)
        size[leaf] = sizes
        left, right = np.full((2, len(nodes)), -1, dtype=np.int64)
        left[split], right[split] = np.array(children, dtype=np.int64).reshape(-1, 2).T
        if not inner:  # a lone leaf: no split confirms dimension, so no row of that width
            zeros = np.broadcast_to(np.float64(0.0), (1, dimension))
            return zeros, zeros, left, right, size
        normal, intercept = np.zeros((2, len(nodes), dimension))
        normal[split] = np.array(normals, dtype=np.float64)  # an int beyond the float range raises
        intercept[split] = np.array(intercepts, dtype=np.float64)
        return normal, intercept, left, right, size
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _node_fault(nodes: list, where: str, dimension: int) -> ModelFormatError:
    """The first fault of a node list in file order, node by node, as the
    error to raise; then a node count beyond what the splits reach, then a
    child index or size beyond 64 bits. Called only once ``_node_arrays``
    has failed, so there is one to find; it builds nothing."""
    internal, ints = 0, []
    try:
        for i, rec in enumerate(nodes):
            node = f"node {i} of {where}"
            if not isinstance(rec, dict):
                raise _fail(f"{node} is not an object")
            kind = _require(rec, "kind", str, node)
            if kind == "external":
                ints.append(_require(rec, "size", int, node))
            elif kind == "internal":
                n_vec = _require(rec, "normal", list, node)
                p_vec = _require(rec, "intercept", list, node)
                if len(n_vec) != dimension or len(p_vec) != dimension:
                    raise _fail(f"{node} has vectors of length != dimension {dimension}")
                children = [_require(rec, key, int, node) for key in ("left_index", "right_index")]
                if min(children) < 0:  # in the node arrays a negative child marks a leaf
                    raise _fail(f"{node} has child index {min(children)} out of range")
                _floats(n_vec, f"split normal of {node}")
                _floats(p_vec, f"split intercept of {node}")
                internal += 1
                ints += children
            else:
                raise _fail(f"{node} has unknown kind {kind!r}")
    except ModelFormatError as e:
        return e
    # Rows cost dimension floats each, so their count is bounded by the splits read.
    if len(nodes) > 1 + 2 * internal:
        return _fail(f"{where} has {len(nodes)} nodes, but its splits reach at most "
                     f"{1 + 2 * internal}: some are unreachable")
    if not all(-2**63 <= v < 2**63 for v in ints):
        return _fail(f"{where} has a child index or size beyond 64 bits")
    raise AssertionError("the bulk read failed on a node list with no fault")


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
    arrays = _node_arrays(nodes, dimension)
    if arrays is None:
        raise _node_fault(nodes, where, dimension)
    normal, intercept, left, right, size = arrays
    return IsolationTree(normal=normal, intercept=intercept, left=left, right=right, size=size, angle=angle)


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


def _first_fault(raw, width: int, label_idx: int | None) -> CsvFormatError:
    """The first fault in file order, cell by cell, as the error to raise: a
    line without ``width`` cells, a cell ``float`` rejects or reads as
    non-finite, or a label other than 0 or 1. Called only once the bulk
    conversion or its checks have failed, so there is one to find."""
    for line_num, row in raw:
        if len(row) != width:
            return CsvFormatError(f"ragged row at line {line_num}: expected {width} cells, got {len(row)}")
        for c, cell in enumerate(row):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                return CsvFormatError(f"non-numeric cell {text!r} at line {line_num}, column {c + 1}")
            if not math.isfinite(value):
                return CsvFormatError(f"non-finite value {text!r} at line {line_num}, column {c + 1}")
            if c == label_idx and value not in (0.0, 1.0):
                return CsvFormatError(f"label at line {line_num} is {cell!r}, must be 0 or 1")
    raise AssertionError("the bulk conversion failed on a table with no faulty cell")


# Records converted per numpy call: one str per cell is held for this many, never for the whole file.
_CHUNK_ROWS = 1024


def _records(path):
    """(line number, cells) of each non-empty record of the CSV file at
    ``path``, as csv.reader reads them one at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            try:
                for row in reader:
                    if row:
                        yield reader.line_num, row
            except csv.Error as e:  # a cell longer than csv.field_size_limit(), say
                raise CsvFormatError(f"unreadable CSV at line {reader.line_num}: {e}") from None
    except OSError as e:
        raise OSError(f"cannot read CSV from {path}: {e}") from e


def read_csv(path, label_column=None):
    """Parse a dataset CSV into (rows-by-dimension array, labels or None).

    A first line with any non-numeric cell is a header, and every line, the
    header included, must have as many cells as the first. ``label_column``
    may be a column name (requires a header) or a 0-based index; that column
    must hold only 0/1 and is returned separately. csv.reader streams the
    file and each ``_CHUNK_ROWS`` records are converted in one numpy call;
    errors name the first faulty line and column, which lies in the first
    chunk whose conversion or checks fail.
    """
    records = _records(path)
    chunk = list(itertools.islice(records, _CHUNK_ROWS))
    if not chunk:
        raise CsvFormatError(f"{path}: file is empty")

    width = len(chunk[0][1])
    header: list[str] | None = None
    try:
        np.array(chunk[0][1], dtype=np.float64)
    except ValueError:
        header = [c.strip() for c in chunk.pop(0)[1]]
        if not chunk:
            raise CsvFormatError(f"{path}: no data rows after header") from None

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
            label_idx = _check_integer("label_column", label_column)
            if not 0 <= label_idx < width:
                raise CsvFormatError(
                    f"label column index {label_idx} out of range for {width} columns"
                )

    tables = []
    while chunk:
        try:
            table = np.array([row for _, row in chunk], dtype=np.float64)
        except ValueError:  # a ragged row or a cell float() rejects
            table = None
        if (table is None or table.shape[1] != width or not np.isfinite(table).all()
                or (label_idx is not None and not np.isin(table[:, label_idx], (0.0, 1.0)).all())):
            raise _first_fault(chunk, width, label_idx)
        tables.append(table)
        chunk = list(itertools.islice(records, _CHUNK_ROWS))
    table = np.concatenate(tables)
    if label_idx is None:
        return table, None
    if width < 2:
        raise CsvFormatError(f"{path}: no feature columns")
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(int)


def format_score(value: float) -> str:
    """Scores go to disk with 9 significant digits."""
    return f"{value:.9g}"


def _write_csv(path, header, rows) -> None:
    """The header, then each row: cells joined by commas, one line each."""
    _write_text(path, ["\n".join(map(",".join, itertools.chain([header], rows))) + "\n"])


def write_dataset_csv(path, data: np.ndarray) -> None:
    """Dataset rows under an x0..x{N-1} header, shortest round-trip floats.
    The data must be 2-D and finite, as ``read_csv`` requires."""
    data = as_dataset(data)
    _write_csv(path, [f"x{d}" for d in range(data.shape[1])], (map(repr, row) for row in data.tolist()))


def write_scores_csv(path, ids, scores) -> None:
    """One ``index,score`` row per pair. Every id must be an integer, as
    ``rng._check_integer`` has it; ids that are all plain Python ints (a
    ``range``, an integer array) pass on their set of types, with no
    per-row check, and anything else is checked id by id."""
    ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    if not set(map(type, ids)) <= {int}:
        ids = [_check_integer(f"ids[{k}]", i) for k, i in enumerate(ids)]
    pairs = zip(map(str, ids), map(format_score, map(float, scores)), strict=True)
    _write_csv(path, ["index", "score"], pairs)


def write_grid_csv(path, grid) -> None:
    """Row-major, x fastest: one row per grid cell under an x,y,score header.
    Each of the nx x-values and ny y-values is formatted once."""
    xs, ys = grid_axes(grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny)
    x_text, y_text = list(map(repr, xs.tolist())), list(map(repr, ys.tolist()))
    column_y = [y for y in y_text for _ in x_text]
    cells = zip(x_text * grid.ny, column_y, map(format_score, grid.values.ravel().tolist()), strict=True)
    _write_csv(path, ["x", "y", "score"], cells)


def write_stats_csv(path, stats) -> None:
    _write_csv(path, ["level", "mean", "variance", "n_probe"],
               ((repr(s.level), format_score(s.mean), format_score(s.variance), str(s.n_probe))
                for s in stats))


def write_convergence_csv(path, series) -> None:
    points = zip(series.t_values, series.means, series.variances)
    _write_csv(path, ["t", "mean", "variance"], ((str(t), format_score(m), format_score(v)) for t, m, v in points))
