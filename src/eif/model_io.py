"""Model serialization and CSV input/output.

Model file: a single UTF-8 JSON document,

    {
      "format": "eif-model", "version": 2,
      "variant": "extended" | "standard-equivalent" | "rotated",
      "dimension": N, "t": ..., "psi": ..., "extension_level": ...,
      "seed": ..., "rng_family": "...",
      "trees": [{"height_limit": ..., "angle": ..., "nodes": [...],
                 "normal": "<base64>", "intercept": "<base64>"}, ...]
    }

Each tree is its node array, root at index 0; a node is either ``{"kind":
"internal", "left_index": i, "right_index": j}`` or ``{"kind": "external",
"size": n}``. A tree's split rows, those of its internal nodes in node
order, are its two blocks: each the standard base64, with no line break, of
the ``<f8`` bytes of a ``(splits, N)`` array, row-major (``""`` for a lone
leaf). These are the arrays an in-memory tree holds, so saving writes them
out and loading reads them back in file order; leaf rows, which nothing
reads, load as zeros. Rotated trees also carry their angle. The document
spells out what a Forest derives (``variant``, ``dimension``, ``t``, each
tree's ``height_limit``). The blocks hold the floats' bytes, so
load(save(f)) scores bit-for-bit like f. ``save_forest`` writes the text
itself, byte for byte as ``json.dumps(document, indent=1)`` lays it out
(keys in the order above, one value per line, one space of indent per
level); only the loader goes through ``json``. It streams the text: the
header, then one tree's text at a time, so a save holds one tree's text,
never the whole document. The loader reads each tree's node list in one
walk, in file order, checking each field as it reaches it and naming the
first fault; no node array is made before the walk ends, and a block's byte
count is checked before its array is made.

Version 1, which ``load_forest`` still reads, is the same document without
the blocks: each internal node holds its own ``"normal"`` and
``"intercept"`` lists of JSON numbers.

CSV dialect throughout: comma separator, "." decimal, UTF-8, one optional
header line. The writers write LF line endings; ``read_csv`` also reads CRLF
ones and quoted cells. It streams the file through csv.reader and converts
a chunk of records at a time, so one str per cell is never held for the
whole file; errors name the first faulty line. Scores are written with 9
significant digits; dataset values and grid coordinates in shortest
round-trip form, each of a grid's nx + ny coordinates formatted once. The
writers, too, make and write the text a chunk of lines at a time.

Every output file is written atomically by ``_write_text``, with the mode
``open()`` would give it; a write error, or an error raised while the text
is made, leaves any old file as it was, and a write error names the
requested path.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import itertools
import json
import math
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
FORMAT_VERSION = 2


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
# json.dumps(document, indent=1) puts it.
_INTERNAL = '    {\n     "kind": "internal",\n     "left_index": %d,\n     "right_index": %d\n    }'
_EXTERNAL = '    {\n     "kind": "external",\n     "size": %d\n    }'


def _block_text(rows: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of ``rows``, row-major."""
    return base64.b64encode(rows.astype("<f8", copy=False).tobytes()).decode("ascii")


def _tree_text(tree: IsolationTree, height_limit: int) -> str:
    """One entry of the "trees" list: height_limit, the angle of a rotated
    tree, the nodes in array order, then the split blocks. Integers are
    written in decimal, as ``json`` writes them."""
    left, right, size = tree.left.tolist(), tree.right.tolist(), tree.size.tolist()
    nodes = ",\n".join(_INTERNAL % (left[k], right[k]) if left[k] >= 0 else _EXTERNAL % size[k]
                       for k in range(len(left)))
    split = tree.left >= 0  # leaf rows are never written: a lone leaf's blocks are empty
    angle = "" if tree.angle is None else f'   "angle": {json.dumps(tree.angle)},\n'
    return (f'  {{\n   "height_limit": {height_limit},\n{angle}   "nodes": [\n{nodes}\n   ],\n'
            f'   "normal": "{_block_text(tree.normal[split])}",\n'
            f'   "intercept": "{_block_text(tree.intercept[split])}"\n  }}')


def save_forest(forest: Forest, path) -> None:
    """Write the model document to ``path`` (fsynced, never partial).

    The header fields go through ``json.dumps``; each tree's nodes are
    filled into fixed node templates, several times faster than ``json``'s
    indenting encoder, a pure-Python one, and its split rows are written as
    two base64 blocks. The text is what ``json.dumps(document, indent=1)``
    gives for the document the module docstring lays out; it is written a
    tree at a time, so the whole text is never held.
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


def _field_fault(doc: dict, key: str, where: str) -> ModelFormatError:
    """The error for field ``key`` of ``doc`` when it is missing or of a wrong type."""
    if key not in doc:
        return _fail(f"missing field {key!r} in {where}")
    return _fail(f"field {key!r} in {where} has wrong type {type(doc[key]).__name__}")


def _require(doc: dict, key: str, types, where: str):
    value = doc.get(key)  # None when missing, which no caller accepts
    if isinstance(value, bool) or not isinstance(value, types):  # JSON true/false are not numbers
        raise _field_fault(doc, key, where)
    return value


def _floats(values: list, what: str) -> list[float]:
    try:
        if set(map(type, values)) <= {int, float}:  # exact types: a JSON true is a bool
            return list(map(float, values))
    except OverflowError:  # an integer beyond the float range
        pass
    raise _fail(f"{what} has non-numeric or non-finite entries")


def _block(td: dict, key: str, where: str, rows: int, dimension: int) -> np.ndarray:
    """The ``(rows, dimension)`` float64 array of block ``key`` of a version-2
    tree: a str of standard base64, with no line break, of ``<f8`` bytes.
    Its byte count is checked against ``rows`` and ``dimension`` in Python
    ints before any array is made."""
    text = td.get(key)
    if type(text) is not str:
        raise _field_fault(td, key, where)
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raise _fail(f"field {key!r} in {where} is not base64") from None
    if len(data) % 8:
        raise _fail(f"field {key!r} in {where} holds {len(data)} bytes, not a whole number of float64 values")
    if len(data) != rows * dimension * 8:
        raise _fail(f"field {key!r} in {where} holds {len(data) // 8} floats, expected {rows} split rows "
                    f"of dimension {dimension}")
    return np.frombuffer(data, dtype="<f8").reshape(rows, dimension)


def _read_tree(td, where: str, dimension: int, rotated: bool, version: int) -> IsolationTree:
    """Tree from its document in format ``version``. One walk over the nodes
    in file order checks each field as it reaches it, by exact type (a JSON
    true is a bool), and collects the node arrays' columns, with each split's
    vectors in version 1; the first fault is raised. Then a node count beyond
    what the splits reach, checked before any (nodes, dimension) array is
    made, then, in version 2, the ``normal`` and ``intercept`` blocks, then a
    child index or size beyond 64 bits."""
    if not isinstance(td, dict):
        raise _fail(f"{where} is not an object")
    _require(td, "height_limit", int, where)
    angle = None
    if rotated:
        angle = _floats([_require(td, "angle", (int, float), where)], f"angle of {where}")[0]
    elif "angle" in td:
        raise _fail(f"{where} has an angle, which only the rotated variant carries")
    packed = version == 2
    if not packed and ("normal" in td or "intercept" in td):
        raise _fail(f"{where} has field {'normal' if 'normal' in td else 'intercept'!r}, "
                    "which only a version 2 tree carries")
    nodes = _require(td, "nodes", list, where)
    if not nodes:
        raise _fail(f"{where} has no nodes")
    node = f"node {{}} of {where}".format  # a node's name, made only for a message
    is_float = float.__instancecheck__  # json makes no float subclass: this is the exact type
    left, right, size = [-1] * len(nodes), [-1] * len(nodes), [0] * len(nodes)
    normals, intercepts = [], []
    for i, rec in enumerate(nodes):
        if type(rec) is not dict:
            raise _fail(f"{node(i)} is not an object")
        kind = rec.get("kind")
        if kind == "external":
            n = rec.get("size")
            if type(n) is not int:
                raise _field_fault(rec, "size", node(i))
            size[i] = n
        elif kind == "internal":
            if packed:
                if "normal" in rec or "intercept" in rec:
                    raise _fail(f"{node(i)} has field {'normal' if 'normal' in rec else 'intercept'!r}, "
                                f"which a version 2 file keeps in the blocks of {where}")
            else:
                normal, intercept = rec.get("normal"), rec.get("intercept")
                if type(normal) is not list:
                    raise _field_fault(rec, "normal", node(i))
                if type(intercept) is not list:
                    raise _field_fault(rec, "intercept", node(i))
                if len(normal) != dimension or len(intercept) != dimension:
                    raise _fail(f"{node(i)} has vectors of length != dimension {dimension}")
            left_index, right_index = rec.get("left_index"), rec.get("right_index")
            if type(left_index) is not int:
                raise _field_fault(rec, "left_index", node(i))
            if type(right_index) is not int:
                raise _field_fault(rec, "right_index", node(i))
            if left_index < 0 or right_index < 0:  # in the node arrays a negative child marks a leaf
                raise _fail(f"{node(i)} has child index {min(left_index, right_index)} out of range")
            if not packed:
                if not all(map(is_float, normal)):
                    normal = _floats(normal, f"split normal of {node(i)}")
                if not all(map(is_float, intercept)):
                    intercept = _floats(intercept, f"split intercept of {node(i)}")
                normals.append(normal)
                intercepts.append(intercept)
            left[i], right[i] = left_index, right_index
        elif type(kind) is str:
            raise _fail(f"{node(i)} has unknown kind {kind!r}")
        else:
            raise _field_fault(rec, "kind", node(i))
    # Rows cost dimension floats each, so their count is bounded by the splits read.
    splits = len(nodes) - left.count(-1)
    if len(nodes) > 1 + 2 * splits:
        raise _fail(f"{where} has {len(nodes)} nodes, but its splits reach at most "
                    f"{1 + 2 * splits}: some are unreachable")
    if packed:
        normals, intercepts = (_block(td, key, where, splits, dimension) for key in ("normal", "intercept"))
    try:
        left, right, size = np.array([left, right, size], dtype=np.int64)
    except OverflowError:
        raise _fail(f"{where} has a child index or size beyond 64 bits") from None
    if splits:
        normal, intercept = np.zeros((2, len(nodes), dimension))
        split = left >= 0
        normal[split], intercept[split] = normals, intercepts
    else:  # a lone leaf: no split confirms dimension, so no row of that width
        normal = intercept = np.broadcast_to(np.float64(0.0), (1, dimension))
    return IsolationTree(normal=normal, intercept=intercept, left=left, right=right, size=size, angle=angle)


def load_forest(path) -> Forest:
    """Read a model document into a Forest of any variant.

    Checks here cover what only the document can get wrong (types, format,
    lengths, the derived fields); the Forest checks the model, and its
    ValueError is raised as ModelFormatError. Warns when the model's
    ``rng_family`` is not the draw contract the running numpy meets
    (:data:`eif.rng.RNG_FAMILY`): it scores the same, but retraining from its
    seed may draw differently.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot read model from {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _fail(f"not valid JSON (truncated or corrupt file?): {e}") from e
    del text  # freed before the trees are read, to lower the load's peak
    if not isinstance(doc, dict):
        raise _fail("top level is not an object")
    magic = _require(doc, "format", str, "document")
    if magic != FORMAT_MAGIC:
        raise _fail(f"format magic is {magic!r}, expected {FORMAT_MAGIC!r}")
    version = _require(doc, "version", int, "document")
    if version not in (1, FORMAT_VERSION):
        raise UnsupportedVersionError(
            f"model file has version {version}; this build supports versions 1 and {FORMAT_VERSION}"
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

    trees = [_read_tree(td, f"tree {k}", dimension, variant == VARIANT_ROTATED, version)
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


# CSV records read per numpy call, and lines made per piece of text written:
# one str per cell or line is held for this many, never for the whole file.
_CHUNK_ROWS = 1024


def _undecodable_line(path) -> int | None:
    """1-based line of the first byte of the file at ``path`` that is not
    UTF-8, counting the line ends csv.reader counts (LF, CRLF and a lone CR)."""
    line = 1
    with open(path, "rb") as f:
        for chunk in f:  # split after each LF, which no multi-byte UTF-8 character holds
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as e:
                head = chunk[:e.start]
                return line + head.count(b"\r") - head.count(b"\r\n")
            line += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
    return None


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
            except UnicodeDecodeError as e:  # decoded ahead in blocks, so reader.line_num may lag
                raise CsvFormatError(f"{path}: not UTF-8 at line {_undecodable_line(path)}: {e.reason}") from None
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
    """The header, then each row: cells joined by commas, one line each. The
    text is made and written ``_CHUNK_ROWS`` lines at a time, so it is never
    held whole."""
    lines = map(",".join, itertools.chain([header], rows))
    chunks = iter(lambda: list(itertools.islice(lines, _CHUNK_ROWS)), [])
    _write_text(path, ("\n".join(chunk) + "\n" for chunk in chunks))


def write_dataset_csv(path, data: np.ndarray) -> None:
    """Dataset rows under an x0..x{N-1} header, shortest round-trip floats,
    listed ``_CHUNK_ROWS`` rows at a time. The data must be 2-D and finite,
    as ``read_csv`` requires."""
    data = as_dataset(data)
    rows = (map(repr, row) for start in range(0, len(data), _CHUNK_ROWS)
            for row in data[start:start + _CHUNK_ROWS].tolist())
    _write_csv(path, [f"x{d}" for d in range(data.shape[1])], rows)


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
