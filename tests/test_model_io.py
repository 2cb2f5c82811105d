import base64
import hashlib
import json
import os
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eif import model_io
from eif.errors import CsvFormatError, ModelFormatError, UnsupportedVersionError
from eif.evaluation import ConvergenceSeries, LevelSetStats, ScoreGrid
from eif.forest import Forest, build_forest, build_rotated_forest, height_limit_for, score_batch
from eif.model_io import (
    load_forest,
    read_csv,
    save_forest,
    write_convergence_csv,
    write_dataset_csv,
    write_grid_csv,
    write_scores_csv,
    write_stats_csv,
)
from eif.rng import RNG_FAMILY
from eif.synthetic import gen_gaussian_blob
from oracles import (
    choose_indices_oracle, document_oracle, grid_csv_oracle, leaf_depths, read_csv_oracle, read_tree_oracle,
    tree_from_nested, tree_from_rows,
)


@pytest.fixture()
def model_path(tmp_path, small_forest):
    path = tmp_path / "model.json"
    save_forest(small_forest, path)
    return path


class TestModelRoundTrip:
    def test_scores_identical_after_round_trip(self, model_path, small_forest):
        probes = gen_gaussian_blob(100, 2, seed=200)
        loaded = load_forest(model_path)
        assert np.array_equal(score_batch(probes, loaded), score_batch(probes, small_forest))

    def test_file_starts_with_magic_and_version(self, model_path):
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "eif-model"
        assert doc["version"] == 2
        assert doc["rng_family"] == "eif-philox/4"

    def test_metadata_survives(self, model_path, small_forest):
        loaded = load_forest(model_path)
        assert loaded.psi == small_forest.psi
        assert loaded.t == small_forest.t
        assert loaded.dimension == small_forest.dimension
        assert loaded.extension_level == small_forest.extension_level
        assert loaded.seed == small_forest.seed
        assert loaded.variant == small_forest.variant

    def test_save_is_deterministic(self, tmp_path, small_forest):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(small_forest, a)
        save_forest(small_forest, b)
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_integer_settings_save_as_python_ints(self, tmp_path, blob_2d):
        plain = build_forest(blob_2d, 4, 64, 1, seed=3)
        numpy_ints = build_forest(blob_2d, np.int64(4), np.int64(64), np.int64(1), seed=np.uint64(3))
        assert [type(v) for v in (numpy_ints.psi, numpy_ints.extension_level, numpy_ints.seed)] == [int] * 3
        a, b = tmp_path / "plain.json", tmp_path / "numpy.json"
        save_forest(plain, a)
        save_forest(numpy_ints, b)
        assert b.read_bytes() == a.read_bytes()
        probes = gen_gaussian_blob(50, 2, seed=4)
        assert np.array_equal(score_batch(probes, load_forest(b)), score_batch(probes, numpy_ints))

    def test_rotated_round_trip_records_angles(self, tmp_path, blob_2d):
        forest = build_rotated_forest(blob_2d, 8, 128, seed=5)
        path = tmp_path / "rot.json"
        save_forest(forest, path)
        doc = json.loads(path.read_text())
        assert doc["variant"] == "rotated"
        assert [t["angle"] for t in doc["trees"]] == [rt.angle for rt in forest.trees]
        loaded = load_forest(path)
        probes = gen_gaussian_blob(50, 2, seed=6)
        assert np.array_equal(
            score_batch(probes, loaded), score_batch(probes, forest)
        )


class TestRngFamily:
    def test_same_build_loads_without_warning(self, model_path, recwarn):
        load_forest(model_path)
        assert not recwarn.list

    def test_other_family_warns_and_scores_as_before(self, model_path, small_forest):
        doc = json.loads(model_path.read_text())
        doc["rng_family"] = "numpy-philox4x64/0.0.1"
        model_path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning) as caught:
            loaded = load_forest(model_path)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "'numpy-philox4x64/0.0.1'" in message and repr(RNG_FAMILY) in message
        probes = gen_gaussian_blob(100, 2, seed=200)
        assert np.array_equal(score_batch(probes, loaded), score_batch(probes, small_forest))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _split_rows(td, key, dimension):
    """Block ``key`` of a version-2 tree document as a writable (splits, dimension) array."""
    return np.frombuffer(base64.b64decode(td[key]), dtype="<f8").reshape(-1, dimension).copy()


def _set_split_rows(td, key, rows):
    td[key] = _b64(np.asarray(rows, dtype="<f8").tobytes())


class TestLoadValidation:
    def corrupt(self, model_path, mutate):
        doc = json.loads(model_path.read_text())
        mutate(doc)
        model_path.write_text(json.dumps(doc))
        return model_path

    def test_truncated_file(self, model_path):
        text = model_path.read_text()
        model_path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="JSON"):
            load_forest(model_path)

    def test_top_level_array_is_rejected(self, model_path):
        model_path.write_text(json.dumps([json.loads(model_path.read_text())]))
        with pytest.raises(ModelFormatError, match="^invalid model: top level is not an object$"):
            load_forest(model_path)

    def test_unknown_version_names_both(self, model_path):
        self.corrupt(model_path, lambda d: d.update(version=99))
        with pytest.raises(UnsupportedVersionError, match=r"99.*1"):
            load_forest(model_path)

    def test_version_3_names_the_versions_read(self, model_path):
        self.corrupt(model_path, lambda d: d.update(version=3))
        with pytest.raises(UnsupportedVersionError,
                           match="^model file has version 3; this build supports versions 1 and 2$"):
            load_forest(model_path)

    def test_wrong_magic(self, model_path):
        self.corrupt(model_path, lambda d: d.update(format="other"))
        with pytest.raises(ModelFormatError, match="magic"):
            load_forest(model_path)

    def test_child_index_out_of_range(self, model_path):
        def mutate(d):
            nodes = d["trees"][0]["nodes"]
            for n in nodes:
                if n["kind"] == "internal":
                    n["left_index"] = len(nodes) + 5
                    break

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="out of range"):
            load_forest(model_path)

    def test_cycle_detected(self, model_path):
        def mutate(d):
            nodes = d["trees"][0]["nodes"]
            for n in nodes:
                if n["kind"] == "internal":
                    n["left_index"] = 0
                    break

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="twice"):
            load_forest(model_path)

    def test_unreachable_nodes_rejected(self, model_path):
        def mutate(d):
            d["trees"][0]["nodes"].append({"kind": "external", "size": 3})

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="unreachable"):
            load_forest(model_path)

    def test_all_zero_normal_rejected(self, model_path):
        def mutate(d):
            rows = _split_rows(d["trees"][0], "normal", 2)
            rows[0] = 0.0
            _set_split_rows(d["trees"][0], "normal", rows)

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="all-zero normal"):
            load_forest(model_path)

    def test_negative_leaf_size_rejected(self, model_path):
        def mutate(d):
            for n in d["trees"][0]["nodes"]:
                if n["kind"] == "external":
                    n["size"] = -1
                    break

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="size"):
            load_forest(model_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_forest(tmp_path / "nope.json")

    def test_height_limit_must_follow_psi(self, model_path):
        self.corrupt(model_path, lambda d: d["trees"][1].update(height_limit=9))
        with pytest.raises(ModelFormatError, match="tree 1 has height_limit 9, expected 8"):
            load_forest(model_path)

    def test_node_deeper_than_height_limit(self, model_path, small_forest):
        tree = small_forest.trees[0]
        leaf, depth = max(leaf_depths(tree).items(), key=lambda item: item[1])
        assert depth == height_limit_for(small_forest.psi)

        def mutate(d):
            # split the deepest leaf into two leaves one level further down, by the root's split
            td = d["trees"][0]
            nodes = td["nodes"]
            size = nodes[leaf]["size"]
            nodes[leaf] = dict(nodes[0], left_index=len(nodes), right_index=len(nodes) + 1)
            nodes += [{"kind": "external", "size": size}, {"kind": "external", "size": 0}]
            row = sum(n["kind"] == "internal" for n in nodes[:leaf])  # the new split's row in the blocks
            for key in ("normal", "intercept"):
                rows = _split_rows(td, key, 2)
                _set_split_rows(td, key, np.insert(rows, row, rows[0], axis=0))

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError,
                           match=rf"node {len(tree.left)} of tree 0 is at depth 9, beyond height_limit 8"):
            load_forest(model_path)

    def test_leaf_sizes_must_sum_to_psi(self, model_path):
        def mutate(d):
            for n in d["trees"][2]["nodes"]:
                if n["kind"] == "external":
                    n["size"] += 1
                    break

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError, match="tree 2 has leaf sizes summing to 257, expected psi=256"):
            load_forest(model_path)

    def test_normal_nonzeros_must_match_extension_level(self, model_path):
        def mutate(d):
            rows = _split_rows(d["trees"][0], "normal", 2)
            rows[0, 1] = 0.0
            _set_split_rows(d["trees"][0], "normal", rows)

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError,
                           match="node 0 of tree 0 has 1 nonzero normal entries, expected"):
            load_forest(model_path)

    def test_integer_beyond_float_range_rejected(self, model_path, small_forest):
        # Only a version-1 file lists split entries as JSON numbers.
        model_path.write_text(json.dumps(document_oracle(small_forest, version=1)))
        self.corrupt(model_path, lambda d: d["trees"][0]["nodes"][0]["intercept"].__setitem__(0, 10**400))
        with pytest.raises(ModelFormatError, match="intercept of node 0 of tree 0"):
            load_forest(model_path)

    def test_rotated_angle_beyond_float_range_rejected(self, tmp_path, blob_2d):
        path = tmp_path / "rot.json"
        save_forest(build_rotated_forest(blob_2d, 3, 32, seed=1), path)
        self.corrupt(path, lambda d: d["trees"][1].update(angle=10**400))
        with pytest.raises(ModelFormatError, match="angle of tree 1"):
            load_forest(path)

    def test_dimension_beyond_array_range_rejected(self, model_path):
        self.corrupt(model_path, lambda d: d.update(dimension=2**70))
        with pytest.raises(ModelFormatError, match=r"dimension must be in \[1, 2\*\*60\)"):
            load_forest(model_path)

    def test_large_dimension_must_match_split_vectors(self, model_path, small_forest):
        self.corrupt(model_path, lambda d: d.update(dimension=2**40))
        with pytest.raises(ModelFormatError, match=r"^invalid model: field 'normal' in tree 0 holds \d+ floats, "
                                                   r"expected \d+ split rows of dimension 1099511627776$"):
            load_forest(model_path)
        model_path.write_text(json.dumps(document_oracle(small_forest, version=1)))
        self.corrupt(model_path, lambda d: d.update(dimension=2**40))
        with pytest.raises(ModelFormatError, match="length != dimension"):
            load_forest(model_path)

    def test_single_leaf_trees_allocate_nothing_per_coordinate(self, tmp_path):
        # Constant data makes every tree a single leaf, so no split vector
        # or block confirms the document's dimension.
        path = tmp_path / "constant.json"
        forest = build_forest(np.ones((8, 3)), t=5, psi=4, extension_level=0, seed=1)
        probes = gen_gaussian_blob(5, 3, seed=2)
        for version in (2, 1):
            path.write_text(json.dumps(document_oracle(forest, version=version)))
            assert all(tree.left.tolist() == [-1] for tree in load_forest(path).trees)
            assert score_batch(probes, load_forest(path)).tobytes() == score_batch(probes, forest).tobytes()

            self.corrupt(path, lambda d: d.update(dimension=2**40))
            tracemalloc.start()
            try:
                loaded = load_forest(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, version
            assert loaded.dimension == 2**40
            with pytest.raises(ValueError, match="dimension"):
                score_batch(probes, loaded)

    @pytest.mark.parametrize("dimension,splits", [(2**40, 0), (512, 1)], ids=["leaves-only", "one-split"])
    def test_unreachable_padding_allocates_nothing_per_coordinate(self, tmp_path, dimension, splits):
        # A node array holds nodes x dimension floats; padding a tree with
        # leaves no split reaches must not buy that with a few bytes each.
        path = tmp_path / "padded.json"
        forest = build_forest(np.ones((8, 3)), t=2, psi=4, extension_level=0, seed=1)
        normals = [[1.0] + [0.0] * (dimension - 1) for _ in range(splits)]
        intercepts = [[0.0] * dimension for _ in range(splits)]
        leaves = [{"kind": "external", "size": 4}] + [{"kind": "external", "size": 0}] * 2000
        for version in (2, 1):
            path.write_text(json.dumps(document_oracle(forest, version=version)))
            vectors = [{"normal": n, "intercept": p} if version == 1 else {} for n, p in zip(normals, intercepts)]
            tree = {"nodes": [{"kind": "internal", **v, "left_index": 1, "right_index": 2} for v in vectors] + leaves}
            if version == 2:
                _set_split_rows(tree, "normal", np.reshape(normals, (splits, dimension)))
                _set_split_rows(tree, "intercept", np.reshape(intercepts, (splits, dimension)))

            self.corrupt(path, lambda d: (d.update(dimension=dimension), d["trees"][0].update(tree)))
            tracemalloc.start()
            try:
                with pytest.raises(ModelFormatError, match="unreachable"):
                    load_forest(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, version


def _tiny_rotated_document():
    # One psi=2 tree: a root split over two leaves of size 1, in version 1,
    # whose split entries are JSON numbers. true reads as a valid version, t,
    # height_limit, left_index, size, split entry and angle here, and false
    # as a valid extension_level.
    forest = build_rotated_forest(gen_gaussian_blob(10, 2, seed=1), 1, 2, seed=1)
    return document_oracle(forest, version=1)


def _load_document(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return load_forest(path)


_BAD_FIELDS = [
    (("version",), True, "field 'version' in document has wrong type bool"),
    (("t",), True, "field 't' in document has wrong type bool"),
    (("extension_level",), False, "field 'extension_level' in document has wrong type bool"),
    (("trees", 0, "height_limit"), True, "field 'height_limit' in tree 0 has wrong type bool"),
    (("trees", 0, "angle"), True, "field 'angle' in tree 0 has wrong type bool"),
    (("trees", 0, "nodes", 0, "left_index"), True,
     "field 'left_index' in node 0 of tree 0 has wrong type bool"),
    (("trees", 0, "nodes", 1, "size"), True, "field 'size' in node 1 of tree 0 has wrong type bool"),
    (("trees", 0, "nodes", 0, "normal", 0), True, "split normal of node 0 of tree 0 has non-numeric"),
    (("trees", 0, "nodes", 0, "intercept", 1), True,
     "split intercept of node 0 of tree 0 has non-numeric"),
    (("seed",), -7, r"seed must be in \[0, 2\*\*64\), got -7"),
    (("seed",), 2**64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
]


@pytest.mark.parametrize("keys,value,match", _BAD_FIELDS,
                         ids=[f"{'.'.join(map(str, k))}={v!r}" for k, v, _ in _BAD_FIELDS])
def test_load_rejects_booleans_and_out_of_range_seeds(tmp_path, keys, value, match):
    doc = _tiny_rotated_document()
    _load_document(tmp_path, doc)  # loads as built
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ModelFormatError, match=match):
        _load_document(tmp_path, doc)


def test_height_limit_is_exact_beyond_float_precision(tmp_path):
    # log2(float(2**53 + 1)) is 53, but a tree over 2**53 + 1 points may be
    # 54 levels deep.
    psi = 2**53 + 1
    doc = _tiny_rotated_document()
    doc["psi"] = psi
    doc["trees"][0].update(height_limit=54, nodes=[{"kind": "external", "size": psi}])
    assert document_oracle(_load_document(tmp_path, doc))["trees"][0]["height_limit"] == 54
    doc["trees"][0]["height_limit"] = 53
    with pytest.raises(ModelFormatError, match=f"tree 0 has height_limit 53, expected 54 for psi={psi}"):
        _load_document(tmp_path, doc)


def _relabel_as_rotated(doc):
    doc["variant"] = "rotated"
    for angle, tree in enumerate(doc["trees"]):
        tree["angle"] = float(angle)


_CONTRADICTORY = [
    (lambda: build_forest(gen_gaussian_blob(50, 2, seed=1), 3, 16, 1, seed=1),
     lambda d: d.update(variant="standard-equivalent"),
     "variant 'standard-equivalent' contradicts extension_level 1, which makes the model 'extended'"),
    (lambda: build_forest(gen_gaussian_blob(50, 2, seed=1), 3, 16, 0, seed=1),
     lambda d: d.update(variant="extended"),
     "variant 'extended' contradicts extension_level 0, which makes the model 'standard-equivalent'"),
    (lambda: build_forest(gen_gaussian_blob(50, 2, seed=1), 3, 16, 1, seed=1),
     _relabel_as_rotated,
     "rotated variant requires extension_level 0, got 1"),
    (lambda: build_rotated_forest(gen_gaussian_blob(50, 2, seed=1), 3, 16, seed=1),
     lambda d: d.update(variant="standard-equivalent"),
     "tree 0 has an angle, which only the rotated variant carries"),
]


@pytest.mark.parametrize("build,mutate,match", _CONTRADICTORY,
                         ids=["standard-at-level-1", "extended-at-level-0", "rotated-at-level-1",
                              "standard-with-angles"])
def test_variant_must_agree_with_the_model(tmp_path, build, mutate, match):
    doc = document_oracle(build())
    mutate(doc)
    with pytest.raises(ModelFormatError, match=match):
        _load_document(tmp_path, doc)


class TestReadCsv:
    def test_header_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n1,2\n")
        data, labels = read_csv(p)
        assert data.shape == (2, 2)
        assert labels is None
        assert np.array_equal(data, [[0.0, 0.0], [1.0, 2.0]])

    def test_headerless_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1\n2,3\n")
        data, _ = read_csv(p)
        assert data.shape == (2, 2)

    def test_label_column_by_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n0,0,0\n1,2,1\n")
        data, labels = read_csv(p, label_column="label")
        assert data.shape == (2, 2)
        assert labels.tolist() == [0, 1]

    def test_label_column_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0\n2,1\n")
        data, labels = read_csv(p, label_column=1)
        assert data.shape == (2, 1)
        assert labels.tolist() == [0, 1]

    def test_label_outside_binary_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,label\n0,0\n1,2\n")
        with pytest.raises(CsvFormatError, match="must be 0 or 1"):
            read_csv(p, label_column="label")

    def test_unknown_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n")
        with pytest.raises(CsvFormatError, match="unknown label column"):
            read_csv(p, label_column="target")

    def test_ragged_row_cites_line_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n1\n2,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_csv(p)

    def test_non_numeric_cell_cites_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n1,oops\n")
        with pytest.raises(CsvFormatError, match=r"line 3, column 2"):
            read_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,nan\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            read_csv(p)

    def test_byte_order_mark_keeps_first_row_of_headerless_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf0.5,1\n2,3\n4,5\n")
        data, _ = read_csv(p)
        assert data.tolist() == [[0.5, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_byte_order_mark_is_not_part_of_first_header_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes("\ufefflabel,x\n0,1.5\n1,2.5\n".encode("utf-8"))
        data, labels = read_csv(p, label_column="label")
        assert labels.tolist() == [0, 1]
        assert data.tolist() == [[1.5], [2.5]]

    def test_quoted_cells_are_read_as_their_text(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b'"1.5","2"\n3,"4"\n')
        data, _ = read_csv(p)
        assert data.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_quoted_header_cell_may_hold_a_comma(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b'"a,b",x\n1,0.5\n0,2.5\n')
        data, labels = read_csv(p, label_column="a,b")
        assert labels.tolist() == [1, 0]
        assert data.tolist() == [[0.5], [2.5]]

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x,y\r\n0.5,1\r\n2,3\r\n")
        data, labels = read_csv(p)
        assert labels is None
        assert data.tolist() == [[0.5, 1.0], [2.0, 3.0]]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_csv(p)

    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_header_fixes_the_cell_count(self, tmp_path, label_column):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n0,0\n1,2\n")
        with pytest.raises(CsvFormatError, match="ragged row at line 2: expected 3 cells, got 2"):
            read_csv(p, label_column=label_column)


# Quoted cells, a stray quote, and whitespace that float() strips but only
# str.splitlines() would end a line at ("\x0b", "\x85", U+2028).
_CSV_CELLS = ["0", "1", "1.5", " 2 ", "1_0", "nan", "inf", "-0", "x", " x ", "", "\u0661", "1e400", "\xa03",
              '"1.5"', '"1,0"', '"x"', '1"', "\x0b1", "2\x85", "\u20283"]


@st.composite
def _csv_files(draw):
    """Small CSV texts: an optional BOM and header, 1-4 rows of 1-3 cells,
    sometimes one ragged row, blank lines, LF, CRLF or CR line ends, and
    sometimes none after the last line."""
    width = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.lists(st.sampled_from(["a", "label", "x", "0", '"label"']),
                                   min_size=width, max_size=width)))
    rows = draw(st.lists(st.lists(st.sampled_from(_CSV_CELLS), min_size=width, max_size=width),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(st.sampled_from(_CSV_CELLS), min_size=1, max_size=4))
    lines = [",".join(row) for row in lines + rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(line + end for line in lines)
    if draw(st.booleans()):
        text = text[:-len(end)]
    label_column = draw(st.sampled_from([None, 0, width - 1, "label"]))
    return text, label_column


def _csv_outcome(read, path, label_column):
    try:
        data, labels = read(path, label_column=label_column)
    except Exception as e:
        return type(e), str(e)
    return data.dtype, data.shape, data.tobytes(), None if labels is None else (labels.dtype, labels.tolist())


@given(case=_csv_files())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_csv_matches_the_cell_by_cell_oracle(tmp_path, case):
    text, label_column = case
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _csv_outcome(read_csv, path, label_column) == _csv_outcome(read_csv_oracle, path, label_column)


@pytest.mark.parametrize("fault,message", [
    ("1,2", "ragged row at line 3000: expected 3 cells, got 2"),
    ("1,2,0,3", "ragged row at line 3000: expected 3 cells, got 4"),
    ("1,oops,0", "non-numeric cell 'oops' at line 3000, column 2"),
    ("1,inf,0", "non-finite value 'inf' at line 3000, column 2"),
    ("1,2,3", "label at line 3000 is '3', must be 0 or 1"),
], ids=["short", "long", "non-numeric", "non-finite", "label"])
def test_fault_past_the_first_chunk_is_named_as_the_oracle_names_it(tmp_path, fault, message):
    # 4,000 lines, so the fault lies in the third chunk; blank lines before it
    # count toward its line number.
    lines = ["x0,x1,label"] + [f"{k}.25,{-k},{k % 2}" for k in range(1, 4000)]
    lines[1500] = lines[2500] = ""
    lines[2999] = fault
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    for label_column in ([None, "label"] if fault != "1,2,3" else ["label"]):
        with pytest.raises(CsvFormatError) as caught:
            read_csv(path, label_column=label_column)
        assert str(caught.value) == message
        assert _csv_outcome(read_csv, path, label_column) == _csv_outcome(read_csv_oracle, path, label_column)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_byte_not_utf8_is_named_with_the_file_and_its_line(tmp_path, newline):
    # Line 3,000 lies past the decoder's first 8 KB block; the decoder reads
    # ahead a block at a time, so csv.reader's line count lags the bad byte.
    lines = [b"x0,x1"] + [b"%d.25,%d" % (k, -k) for k in range(1, 4000)]
    lines[2999] = b"1,\xff2"
    path = tmp_path / "d.csv"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(CsvFormatError) as caught:
        read_csv(path)
    assert str(caught.value) == f"{path}: not UTF-8 at line 3000: invalid start byte"


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_csv_converts_a_chunk_of_cells_at_a_time(tmp_path):
    # A str per cell of a 20k x 16 file peaked at 30 MB, and the text with
    # its lines at about 14 MB; a chunk of records at a time holds about 5 MB.
    path = tmp_path / "d.csv"
    data = gen_gaussian_blob(20_000, 16, seed=9)
    write_dataset_csv(path, data)
    read = []
    assert _traced_peak(lambda: read.append(read_csv(path))) < 12_000_000
    assert read[0][0].tobytes() == data.tobytes()


# Grid bounds: negative, near zero, ordinary and huge lows; subnormal to huge spans.
_grid_lows = st.one_of(st.floats(-1e300, -1e290), st.floats(-1e-300, 1e-300), st.floats(-1e3, 1e3),
                       st.floats(1e290, 1e300))
_grid_spans = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 1e3), st.floats(1e290, 1e300))


class TestWriteCsv:
    def test_dataset_round_trips_bitwise(self, tmp_path):
        data = gen_gaussian_blob(50, 3, seed=8)
        p = tmp_path / "d.csv"
        write_dataset_csv(p, data)
        back, _ = read_csv(p)
        assert np.array_equal(back, data)

    def test_scores_header_and_order(self, tmp_path):
        p = tmp_path / "s.csv"
        write_scores_csv(p, [0, 1, 2], [0.25, 0.5, 0.125])
        lines = p.read_text().splitlines()
        assert lines[0] == "index,score"
        assert lines[1:] == ["0,0.25", "1,0.5", "2,0.125"]

    def test_empty_scores_is_header_only(self, tmp_path):
        p = tmp_path / "s.csv"
        write_scores_csv(p, [], [])
        assert p.read_text() == "index,score\n"

    def test_scores_of_unequal_lengths_is_an_error(self, tmp_path):
        p = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="shorter"):
            write_scores_csv(p, [0, 1], [0.5])
        assert not p.exists()

    @pytest.mark.parametrize("ids,message", [
        ([0.5, True], "ids[0] must be an integer, got float 0.5"),
        ([0, True], "ids[1] must be an integer, got bool True"),
        (np.array([0.0, 1.0]), "ids[0] must be an integer, got float 0.0"),
        ([np.int64(0), np.float64(1.0)], "ids[1] must be an integer, got float64 np.float64(1.0)"),
    ], ids=["float", "bool", "float-array", "numpy-float"])
    def test_scores_index_that_is_not_an_integer_is_an_error(self, tmp_path, ids, message):
        p = tmp_path / "s.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_scores_csv(p, ids, [0.1, 0.2])
        assert not p.exists()

    def test_scores_ids_of_every_integer_kind_write_the_same_bytes(self, tmp_path):
        p = tmp_path / "s.csv"
        for ids in (range(3), [0, 1, 2], np.arange(3), np.arange(3, dtype=np.uint8),
                    [np.int64(0), np.int32(1), 2], [0, 1, 2**70]):
            write_scores_csv(p, ids, np.array([0.25, 0.5, 0.125]))
            assert p.read_text() == f"index,score\n0,0.25\n1,0.5\n{ids[2]},0.125\n"

    @pytest.mark.parametrize("data,match", [(np.zeros(3), "must be 2-D"), ([[np.nan]], "non-finite")],
                             ids=["1-d", "nan"])
    def test_dataset_that_read_csv_would_reject_is_not_written(self, tmp_path, data, match):
        p = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=match):
            write_dataset_csv(p, data)
        assert not p.exists()

    def test_grid_row_count_and_order(self, tmp_path):
        grid = ScoreGrid(x_min=0.0, x_max=2.0, y_min=0.0, y_max=2.0, nx=2, ny=3,
                         values=np.arange(6, dtype=float).reshape(3, 2) / 10.0)
        p = tmp_path / "g.csv"
        write_grid_csv(p, grid)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y,score"
        assert len(lines) == 1 + 6
        # x varies fastest
        assert [ln.split(",")[0] for ln in lines[1:3]] == ["0.5", "1.5"]
        assert lines[1].split(",")[1] == lines[2].split(",")[1]

    @given(bounds=st.tuples(_grid_lows, _grid_spans, _grid_lows, _grid_spans),
           nx=st.integers(2, 40), ny=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_grid_rows_are_grid_points(self, tmp_path, bounds, nx, ny, seed):
        x_min, x_span, y_min, y_span = bounds
        values = np.random.default_rng(seed).uniform(0.0, 1.0, (ny, nx))
        grid = ScoreGrid(x_min=x_min, x_max=x_min + x_span, y_min=y_min, y_max=y_min + y_span,
                         nx=nx, ny=ny, values=values)
        p = tmp_path / "g.csv"
        write_grid_csv(p, grid)
        assert p.read_bytes() == grid_csv_oracle(grid).encode("utf-8")

    def test_stats_csv(self, tmp_path):
        p = tmp_path / "ls.csv"
        write_stats_csv(p, [LevelSetStats(level=1.0, mean=0.4, variance=0.001, n_probe=500)])
        assert p.read_text() == "level,mean,variance,n_probe\n1.0,0.4,0.001,500\n"

    def test_convergence_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        write_convergence_csv(p, ConvergenceSeries(t_values=[10, 20], means=[0.5, 0.51],
                                                   variances=[0.01, 0.009]))
        lines = p.read_text().splitlines()
        assert lines == ["t,mean,variance", "10,0.5,0.01", "20,0.51,0.009"]

    def test_nine_significant_digits_round_trip_stable(self, tmp_path):
        values = gen_gaussian_blob(200, 1, seed=3).ravel() % 1.0
        p = tmp_path / "s.csv"
        write_scores_csv(p, range(len(values)), values)
        first = p.read_text()
        reparsed = [float(line.split(",")[1]) for line in first.splitlines()[1:]]
        write_scores_csv(p, range(len(values)), reparsed)
        assert p.read_text() == first
        assert all(f"{v:.9g}" == s for v, s in zip(
            reparsed, (line.split(",")[1] for line in first.splitlines()[1:])
        ))


_TINY_FOREST = build_forest(gen_gaussian_blob(20, 2, seed=40), 2, 8, 1, seed=41)

# Every output file the package writes, one writer each.
WRITERS = {
    "model": lambda p: save_forest(_TINY_FOREST, p),
    "dataset": lambda p: write_dataset_csv(p, np.eye(2)),
    "scores": lambda p: write_scores_csv(p, [0, 1], [0.5, 0.25]),
    "grid": lambda p: write_grid_csv(p, ScoreGrid(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0,
                                                  nx=1, ny=1, values=np.full((1, 1), 0.5))),
    "stats": lambda p: write_stats_csv(p, [LevelSetStats(level=1.0, mean=0.4, variance=0.001, n_probe=5)]),
    "convergence": lambda p: write_convergence_csv(p, ConvergenceSeries(t_values=[1], means=[0.5],
                                                                         variances=[0.0])),
}


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestWritePath:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_mode_is_what_open_would_give(self, tmp_path, umask_022, writer):
        path = tmp_path / "out"
        WRITERS[writer](path)
        assert oct(path.stat().st_mode & 0o777) == oct(0o644)
        path.chmod(0o640)
        WRITERS[writer](path)
        assert oct(path.stat().st_mode & 0o777) == oct(0o640)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_error_names_the_requested_path(self, tmp_path, writer):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError) as caught:
            WRITERS[writer](path)
        message = str(caught.value)
        assert message.startswith(f"cannot write {path}: ")
        assert ".tmp" not in message

    def test_save_failing_at_a_tree_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        save_forest(_TINY_FOREST, path)
        old = path.read_bytes()
        forest = build_forest(gen_gaussian_blob(300, 2, seed=5), 100, 16, 1, seed=5)
        real, written = model_io._tree_text, []

        def tree_text(tree, height_limit):
            if len(written) == 50:
                raise RuntimeError("tree 50")
            written.append(tree)
            return real(tree, height_limit)

        monkeypatch.setattr(model_io, "_tree_text", tree_text)
        with pytest.raises(RuntimeError, match="tree 50"):
            save_forest(forest, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_save_holds_one_tree_text_at_a_time(self, tmp_path):
        # The 100-tree 16-D full model is 3.5 MB of text (7.7 MB in version
        # 1, which peaked at 22.6 MB when the save built it whole).
        forest = build_forest(gen_gaussian_blob(2000, 16, seed=9), 100, 256, 15, seed=9)
        assert _traced_peak(lambda: save_forest(forest, tmp_path / "m.json")) < 1_000_000
        assert (tmp_path / "m.json").stat().st_size > 3_000_000

    def test_load_drops_the_text_and_holds_no_float_lists(self, tmp_path):
        # This 3.5 MB model peaks at 11.7 MB; 15.1 MB when the text is held
        # while the trees are read, and 24.9 MB from its version-1 file,
        # whose nodes json parses into float lists.
        forest = build_forest(gen_gaussian_blob(2000, 16, seed=9), 100, 256, 15, seed=9)
        save_forest(forest, tmp_path / "m.json")
        assert _traced_peak(lambda: load_forest(tmp_path / "m.json")) < 14_000_000

    def test_dataset_writer_holds_a_chunk_of_lines_at_a_time(self, tmp_path):
        # The 20k x 16 file is 6.3 MB of text, which peaked at 18.9 MB when
        # the writer listed every value and built the text whole.
        data = gen_gaussian_blob(20000, 16, seed=9)
        assert _traced_peak(lambda: write_dataset_csv(tmp_path / "d.csv", data)) < 3_000_000
        assert (tmp_path / "d.csv").stat().st_size > 6_000_000
        assert np.array_equal(read_csv(tmp_path / "d.csv")[0], data)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_rename_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        path.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            WRITERS[writer](path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("build", [
    lambda data: build_forest(data, 12, 64, 0, seed=21),
    lambda data: build_forest(data, 12, 64, 3, seed=22),
    lambda data: build_rotated_forest(data[:, :2], 12, 64, seed=23),
    lambda data: build_forest(gen_gaussian_blob(500, 8, seed=20), 12, 64, 2, seed=24),
], ids=["level-0", "full", "rotated", "8d-level-2"])
def test_model_bytes_equal_scalar_draw_build(tmp_path, monkeypatch, build):
    # Pins stream consumption: the subsample's one Generator.integers call
    # must build the same model file as one scalar numpy draw per
    # Fisher-Yates swap on the tree's own generator.
    data = gen_gaussian_blob(500, 4, seed=20)
    save_forest(build(data), tmp_path / "words.json")
    def scalar(rng, n, k):  # the only bounded draw of a build: its subsample
        return choose_indices_oracle(rng._gen, n, k).tolist()
    monkeypatch.setattr("eif.rng.choose_indices", scalar)
    save_forest(build(data), tmp_path / "scalar.json")
    assert (tmp_path / "words.json").read_bytes() == (tmp_path / "scalar.json").read_bytes()


# SHA-256 of the model file and of the score bytes of four small builds,
# recorded in format version 2 under eif-philox/4, which draws each tree's
# splits a level at a time.
PINNED = {
    "level-0": ("286ff012ff5b29ae700e275b6b5130552e495c664e91dfdc163c8e8df5867bb2",
                "76361d01b2347224631ea532da7f0e3c676fa9edfc18025f222370d386564c1a"),
    "level-1": ("2677df2c5fc35183b188430a29c6292b9274d66df5a9ce389d5a076fc5ce9c59",
                "a37bffcd009d90096c5f5ba122aa314d7b0016f676ed27e5ede6c29f171ca7fe"),
    "full": ("78f8de1764938d1f08f62e71f3b6fe5e543c4fd53ef699e8a255e99dfa9c7725",
             "ff6ff162e9f2dcd1218b6885511333efd64e3ea3b7da9ffc0bf9c35c2e22fcb2"),
    "rotated": ("21804cf89188ae4bd1cf066beb4235d58543203b3970c4b568ce4213cdc331ff",
                "6207613c7959c9e44fa4c48403d614b3fe9cafdf6afbdede16e2234449390d92"),
}
# SHA-256 of the same builds' tree arrays alone (``_tree_arrays_sha``),
# recorded under numpy 2.4.6.
PINNED_TREE_ARRAYS = {
    "level-0": "0c7fcf46e3dd95b2a0f3d65ebd4b3c667b7b16f2c35d0cde2731c0a2f699262b",
    "level-1": "76842b25eaec6c67992ae3f13af5d50caad91bb3d2ec8787a617a062b750e129",
    "full": "dfbe7c7813d17bf614ad11aa85e52200e4cf455f19ef384828b747c180a6ce24",
    "rotated": "f311ad5488b2221d4ba8e63f2aa6e41b88956463c7901b9b0a81eeffc2a9d78a",
}


def _tree_arrays_sha(forest) -> str:
    """SHA-256 over each tree's node arrays, then its angle when it has one."""
    digest = hashlib.sha256()
    for tree in forest.trees:
        for array in (tree.normal, tree.intercept, tree.left, tree.right, tree.size):
            digest.update(array.tobytes())
        if tree.angle is not None:
            digest.update(np.float64(tree.angle).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_model_and_score_bytes(tmp_path, kind):
    # The draw contract names no numpy version, so every numpy that meets it
    # must reproduce all four.
    data = gen_gaussian_blob(500, 4, seed=20)
    probes = gen_gaussian_blob(50, 4, seed=24)
    if kind == "rotated":
        forest = build_rotated_forest(data[:, :2], 12, 64, seed=23)
        probes = probes[:, :2]
    else:
        level, seed = {"level-0": (0, 21), "level-1": (1, 25), "full": (3, 22)}[kind]
        forest = build_forest(data, 12, 64, level, seed=seed)
    score_sha = hashlib.sha256(score_batch(probes, forest).tobytes()).hexdigest()
    assert (score_sha, _tree_arrays_sha(forest)) == (PINNED[kind][1], PINNED_TREE_ARRAYS[kind])
    save_forest(forest, tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == PINNED[kind][0]


# The level-0, full and rotated PINNED builds as version-1 files, written under
# numpy 2.4.6 before the draw-contract id (so level 0 still zeroed by
# Fisher-Yates), and their rng_family is FIXTURE_FAMILY; with the SHA-256
# of each file and of each model's scores on an RNG-free probe set recorded then
# (each probe coordinate is one correctly rounded division, the same on any numpy).
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FAMILY = "numpy-philox4x64/2.4.6"
FIXTURE_SHA = {
    "level-0": "1ada649715ed7977cb99d9e63c4bf488a8fade1094d3632793614fe8574d8989",
    "full": "6f889d6343d503ada098eddae3102d418c115d4ae97afab3525e01680364deaf",
    "rotated": "21fa42a9e168da67aff7026e0cf3311503d82776887d05c8d46600a6cd25261b",
}
FIXTURE_SCORES = {
    "level-0": "3bdccc560d66400154fcd2f14e0470fdf02b5e54ff988b2c0306902eda79815c",
    "full": "90025ef0d705439c7aa1657998a4297625ca8da8a356976215a2e2a117c17973",
    "rotated": "aede7a0103bc7c706170d9c824f6774939bba5cc3239c021aac6396061761722",
}
# SHA-256 of each fixture saved again, in format version 2 under
# eif-philox/4: its trees are those it was written with, whatever the
# current draw contract grows.
FIXTURE_RESAVED = {
    "level-0": "1ec1a42a40ef70609cb46b7f33628b147160354c6e5be91b2bfe0fdf884457c1",
    "full": "6b4f4723137e911b55c20f147fed7dd3abca47848366b7ab0a49c7f08b82a888",
    "rotated": "26dc6aa2154af3c6801ddbd22103fd6639d3d76e72b0473bfc2d0ceff575fdba",
}


@pytest.mark.parametrize("kind", sorted(FIXTURE_SHA))
def test_v1_fixture_scores_as_written_and_resaves_as_v2(tmp_path, recwarn, kind):
    fixture = FIXTURES / f"model_v1_{kind}.json"
    assert hashlib.sha256(fixture.read_bytes()).hexdigest() == FIXTURE_SHA[kind]
    with pytest.warns(UserWarning, match=f"rng family '{FIXTURE_FAMILY}'") as caught:
        forest = load_forest(fixture)
    assert len(caught) == 1 and not recwarn.list
    probes = (np.arange(200.0).reshape(50, 4) / 25.0 - 4.0)[:, :forest.dimension]
    assert hashlib.sha256(score_batch(probes, forest).tobytes()).hexdigest() == FIXTURE_SCORES[kind]
    save_forest(forest, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert (doc["version"], doc["rng_family"]) == (2, RNG_FAMILY)
    assert _tree_arrays_sha(load_forest(tmp_path / "m.json")) == _tree_arrays_sha(forest)
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == FIXTURE_RESAVED[kind]


# The four PINNED builds as format version 2 files saved under eif-philox/3,
# the last contract whose trees drew a tree's splits node by node in
# preorder: the SHA-256 of each file, of its tree arrays, and of its scores
# on the RNG-free probes above, all recorded then (numpy 2.4.6).
V2_FIXTURE_SHA = {
    "level-0": ("85dc5aae054b279f60f42565a2d046843a9b10b499ef965734e53146c46f5f7c",
                "6e58115e4c0bdba862b73d24a6bd91b797a69ebe8d43b143503b801f43a94016",
                "1a86717de9af3412fa3f7aa44808f16837ba85989a8107900ace2f55c947e239"),
    "level-1": ("568366301223201c43b701a9132cd28204acecbdeb3f24835cfd6eb82cc9f823",
                "934885e395a4c9100f0c03d45cafb8c1ae19c703b68c44144be158c583398aa4",
                "f32ad2325db098c19809e3329a59673389d9fd4d8bed3fb67f038113735d3e6c"),
    "full": ("3aed245617945d276acfc60b5469415aa12e4e4ce58c5f4a78fc8e2b10e39c78",
             "0b0096365963b34a19132352c551c5f530b468c6020d680d4dd8e98fd35d4d19",
             "90025ef0d705439c7aa1657998a4297625ca8da8a356976215a2e2a117c17973"),
    "rotated": ("3aa4185a505cd89f2fed8380ae2166aa1624df9792c9ac358343d841d27e2660",
                "18df6a1ce5604842a68226e46ed09bc99ed2058f0a8b913b4a2c4c1a7a36075e",
                "40c3005e57e5bcde2e33fc3038b8c3a356db9630a0e1eb60d9867e4f47cb4f5e"),
}


@pytest.mark.parametrize("kind", sorted(V2_FIXTURE_SHA))
def test_v2_fixture_of_the_older_contract_loads_and_scores_as_written(recwarn, kind):
    fixture = FIXTURES / f"model_v2_{kind}.json"
    file_sha, arrays_sha, scores_sha = V2_FIXTURE_SHA[kind]
    assert hashlib.sha256(fixture.read_bytes()).hexdigest() == file_sha
    with pytest.warns(UserWarning, match="rng family 'eif-philox/3'") as caught:
        forest = load_forest(fixture)
    assert len(caught) == 1 and not recwarn.list
    assert _tree_arrays_sha(forest) == arrays_sha
    probes = (np.arange(200.0).reshape(50, 4) / 25.0 - 4.0)[:, :forest.dimension]
    assert hashlib.sha256(score_batch(probes, forest).tobytes()).hexdigest() == scores_sha


@st.composite
def _forests(draw):
    """Built forests over the cases the writer's templates meet: 1-20
    columns, levels 0, middle and full, the rotated baseline, lone-leaf
    trees (constant data), t = 1, and seeds up to 2**64 - 1."""
    seed = draw(st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 - 1)))
    t = draw(st.integers(1, 3))
    psi = draw(st.sampled_from([2, 3, 16]))
    if draw(st.integers(0, 5)) == 0:
        return build_rotated_forest(gen_gaussian_blob(20, 2, seed=draw(st.integers(0, 99))), t, psi, seed)
    dim = draw(st.integers(1, 20))
    level = draw(st.sampled_from([0, (dim - 1) // 2, dim - 1]))
    data = gen_gaussian_blob(20, dim, seed=draw(st.integers(0, 99)))
    if draw(st.integers(0, 5)) == 0:
        data[:] = data[0]  # every tree is a lone leaf
    return build_forest(data, t, psi, level, seed)


def _hand_made_forest(rotated):
    """Two 3-D trees, or one 2-D rotated tree, whose split values are -0.0,
    subnormals and magnitudes near 1e300."""
    if rotated:
        tree = tree_from_nested(([-0.0, 5e-324], [1e300, -0.0], 1, 1), angle=5e-324)
        return Forest(trees=[tree], psi=2, extension_level=0, seed=2**64 - 1)
    root = ([5e-324, -1e300, -0.0], [-0.0, 1e300, 2.2250738585072014e-308],
            2, ([-2.5e-310, -0.0, 1e300], [-1e300, -5e-324, 0.1], 1, 1))
    other = ([1.0, -0.0, 1.0], [0.0, 0.0, 0.0], 3, 1)
    return Forest(trees=[tree_from_nested(root), tree_from_nested(other)], psi=4, extension_level=1, seed=0)


def _assert_saved_as_json_writes_it(forest, path):
    save_forest(forest, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(document_oracle(forest), indent=1)
    assert document_oracle(load_forest(path)) == document_oracle(forest)


@given(forest=_forests())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_saved_text_is_json_dumps_of_the_document(tmp_path, forest):
    _assert_saved_as_json_writes_it(forest, tmp_path / "m.json")


@pytest.mark.parametrize("rotated", [False, True], ids=["extended", "rotated"])
def test_hand_made_split_values_save_as_json_writes_them(tmp_path, rotated):
    _assert_saved_as_json_writes_it(_hand_made_forest(rotated), tmp_path / "m.json")


def test_lone_leaf_model_of_huge_dimension_saves_and_loads(tmp_path):
    # A loaded model may claim any dimension below 2**60 when every tree is a
    # single leaf; its zero split row is a broadcast view that must not be listed.
    forest = Forest(trees=[tree_from_rows([[None, None, -1, -1, 2]], 2**40)], psi=2, extension_level=0, seed=1)
    save_forest(forest, tmp_path / "m.json")
    assert load_forest(tmp_path / "m.json").dimension == 2**40


def _hand_made_document(version):
    """A valid 2-D model whose split vectors hold -0.0 and subnormals and, in
    version 1, JSON integers up to 2**70 in magnitude."""
    root = ([5e-324, -0.0], [-0.0, 2.2250738585072014e-308], 2, ([-0.0, -2.5e-310], [1e300, -5e-324], 1, 1))
    doc = document_oracle(Forest(trees=[tree_from_nested(root)], psi=4, extension_level=0, seed=0), version)
    if version == 1:
        nodes = doc["trees"][0]["nodes"]
        nodes[0]["normal"], nodes[0]["intercept"] = [2**70, -0.0], [-2**70 - 1, 3]
        nodes[1]["normal"] = [0, -1]
    return doc


def _fuzz_base(kind, version):
    data = gen_gaussian_blob(200, 2, seed=31)
    if kind == "rotated":
        forest = build_rotated_forest(data, 3, 16, seed=32)
    elif kind == "lone-leaf":
        forest = build_forest(np.ones((20, 2)), 2, 8, 1, seed=35)
    elif kind == "hand-made":
        return _hand_made_document(version)
    else:
        forest = build_forest(data, 3, 16, 1 if kind == "extended" else 0, seed=33)
    return document_oracle(forest, version)


def _paths(value, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


# Each kind in version 2, and as "v1:kind" in version 1. The scoring fuzz
# mutates the first two; the reader comparison all ten.
_FUZZ_KINDS = ("extended", "rotated", "standard-equivalent", "lone-leaf", "hand-made")
FUZZ_BASES = {**{kind: _fuzz_base(kind, 2) for kind in _FUZZ_KINDS},
              **{f"v1:{kind}": _fuzz_base(kind, 1) for kind in _FUZZ_KINDS}}
FUZZ_PATHS = {kind: list(_paths(doc)) for kind, doc in FUZZ_BASES.items()}

_json_values = st.one_of(
    st.integers(-3, 300), st.integers(-2**70, 2**70), st.sampled_from([10**400, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from(["external", "internal", "rotated", "extended", "standard-equivalent"]),
    st.just([]), st.just({}), st.lists(st.floats(-5, 5), max_size=3),
)


# Numbers at the edges of the int64 and float ranges, and signed zeros and subnormals.
_edge_numbers = st.sampled_from([2**63 - 1, 2**63, -2**63 - 1, 2**64, 2**1024 - 2**970 - 1, -(2**1024 - 2**970),
                                 10**400, 5e-324, -5e-324, -0.0, 2.2250738585072014e-308])


@st.composite
def _mutated_documents(draw, kinds=("extended", "rotated"), min_mutations=1, values=_json_values, in_nodes=False):
    kind = draw(st.sampled_from(kinds))
    doc = json.loads(json.dumps(FUZZ_BASES[kind]))
    for _ in range(draw(st.integers(min_mutations, 3))):
        paths = FUZZ_PATHS[kind]
        if draw(st.booleans()):  # weight the few top-level and per-tree fields, or with in_nodes the node lists
            paths = [p for p in paths if (len(p[0]) > 2) == in_nodes]
        prefix, key = draw(st.sampled_from(paths))
        container = doc
        try:
            for step in prefix:
                container = container[step]
            old = container[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this part
        if not isinstance(container, (dict, list)):
            continue
        op = draw(st.sampled_from(["replace", "nudge", "delete"]))
        if op == "delete":
            del container[key]
        elif op == "nudge" and isinstance(old, (int, float)) and not isinstance(old, bool):
            container[key] = old + draw(st.sampled_from([-1, 1] if isinstance(old, int) else [0.5, -1e-9]))
        elif op == "nudge" and isinstance(old, str) and old:  # a block, say: change one character
            at = draw(st.integers(0, len(old) - 1))
            container[key] = old[:at] + draw(st.sampled_from("AB/+9z=\n\xe9")) + old[at + 1:]
        else:
            container[key] = draw(values)
    return doc


@given(doc=_mutated_documents())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("ignore:model .* was built under rng family:UserWarning")
def test_mutated_documents_fail_loudly_or_score_in_unit_interval(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        forest = load_forest(path)
    except ModelFormatError:
        return
    # What the forest derives must read back as the document states it.
    saved = document_oracle(forest)
    for key in ("variant", "dimension", "t", "psi", "extension_level", "seed"):
        assert saved[key] == doc[key], key
    assert [tree["height_limit"] for tree in saved["trees"]] == [tree["height_limit"] for tree in doc["trees"]]
    probes = np.vstack([gen_gaussian_blob(30, 2, seed=34), [[1e6, -1e6], [0.0, 0.0]]])
    try:
        scores = score_batch(probes, forest)
    except ValueError as err:
        # A mutated split near the float limit (an intercept of -1.7e308, say)
        # can overflow a margin, which scoring reports rather than misroutes.
        assert str(err).startswith("a split margin overflowed float64"), err
        return
    assert np.all((scores > 0.0) & (scores <= 1.0))


def _load_outcome(path):
    """The ModelFormatError a load raises, or each tree's angle and arrays:
    dtype, shape, strides and bytes (one element of a stride-0 lone-leaf row)."""
    try:
        forest = load_forest(path)
    except ModelFormatError as e:
        return type(e).__name__, str(e)
    return [(None if tree.angle is None else np.float64(tree.angle).tobytes(),
             [(a.dtype.str, a.shape, a.strides, (a if all(a.strides) else a[..., :1]).tobytes())
              for a in (tree.normal, tree.intercept, tree.left, tree.right, tree.size)])
            for tree in forest.trees]


def _assert_readers_agree(path, doc):
    """The document loads to the same bits, or fails with the same message,
    whether its trees are read by ``_read_tree`` or by ``read_tree_oracle``."""
    path.write_text(json.dumps(doc))
    bulk = _load_outcome(path)
    with mock.patch.object(model_io, "_read_tree", read_tree_oracle):
        assert bulk == _load_outcome(path)


@given(doc=st.one_of(
    _mutated_documents(kinds=tuple(FUZZ_BASES), min_mutations=0, values=st.one_of(_json_values, _edge_numbers),
                       in_nodes=True),
    _forests().map(document_oracle),
    _forests().map(lambda forest: document_oracle(forest, version=1)),
))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("ignore:model .* was built under rng family:UserWarning")
def test_bulk_tree_reader_matches_the_per_node_oracle(tmp_path, doc):
    _assert_readers_agree(tmp_path / "m.json", doc)


_INNER, _LEAF = ("trees", 1, "nodes", 0), ("trees", 1, "nodes", 1)  # in the extended base, of 15 nodes
# One or two node-level edits each of a version-1 base, for faults a random
# mutation rarely makes.
_NODE_EDITS = {
    "both-children-negative": [(_INNER + ("left_index",), -1), (_INNER + ("right_index",), -1)],
    "child-negative": [(_INNER + ("right_index",), -3)],
    "child-beyond-int64": [(_INNER + ("left_index",), 2**63)],
    "child-bool": [(_INNER + ("left_index",), True)],
    "size-beyond-int64": [(_LEAF + ("size",), 2**63)],
    "size-below-int64": [(_LEAF + ("size",), -2**63 - 1)],
    "entry-bool": [(_INNER + ("normal", 1), False)],
    "entry-beyond-float": [(_INNER + ("intercept", 0), 2**1024 - 2**970)],
    "entry-rounds-to-max-float": [(_INNER + ("intercept", 0), 2**1024 - 2**970 - 1)],
    "entry-string": [(_INNER + ("normal", 0), "1.5")],
    "vector-ragged": [(_INNER + ("normal",), [1.0])],
    "vector-object": [(_INNER + ("intercept",), {"0": 1.0, "1": 2.0})],
    "node-list": [(_INNER, [1, 2])],
    "kind-missing": [(_LEAF, {"size": 3})],
    "kind-unknown": [(_LEAF + ("kind",), "leaf")],
    "kind-number": [(_LEAF + ("kind",), 3)],
    "extra-leaf": [(("trees", 1, "nodes", 15), {"kind": "external", "size": 1})],
    "leaf-with-children": [(_LEAF + ("left_index",), 5)],
    "first-fault-in-file-order": [(("trees", 1, "nodes", 9, "normal"), None), (_INNER + ("left_index",), -1)],
    # the walk's order: node faults in file order, then the node count, then 64 bits
    "entry-beyond-float-before-kind-missing": [(_INNER + ("intercept", 0), 2**1024),
                                               (("trees", 1, "nodes", 4), {"size": 3})],
    "size-beyond-int64-before-kind-unknown": [(_LEAF + ("size",), 2**63), (("trees", 1, "nodes", 4, "kind"), "leaf")],
    "extra-leaf-before-size-beyond-int64": [(_LEAF + ("size",), 2**63),
                                            (("trees", 1, "nodes", 15), {"kind": "external", "size": 1})],
    "entries-int": [(_INNER + ("normal",), [2, -1]), (_INNER + ("intercept", 1), 2**53 + 1)],
    # every vector of the hand-made base, whose internal nodes are 0 and 2, one entry long
    "hand-made:vectors-of-length-one": [(("trees", 0, "nodes", k, key), [1.0])
                                        for k in (0, 2) for key in ("normal", "intercept")],
}


@pytest.mark.parametrize("edit", sorted(_NODE_EDITS))
@pytest.mark.filterwarnings("ignore:model .* was built under rng family:UserWarning")
def test_bulk_tree_reader_matches_the_per_node_oracle_on_node_faults(tmp_path, edit):
    base, _, _ = edit.rpartition(":")
    doc = json.loads(json.dumps(FUZZ_BASES[f"v1:{base or 'extended'}"]))
    for keys, value in _NODE_EDITS[edit]:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if keys[-1] == len(target):
            target.append(value)
        else:
            target[keys[-1]] = value
    _assert_readers_agree(tmp_path / "m.json", doc)


# Faults of the blocks of tree 1 (7 splits, 2 floats a row, in the extended
# base), or of vectors where its version keeps none, each with the message
# that names the tree and the field.
_BLOCK_FAULTS = {
    "missing": (lambda td: td.pop("intercept"), "missing field 'intercept' in tree 1"),
    "list": (lambda td: td.update(normal=[1.0, 0.0]), "field 'normal' in tree 1 has wrong type list"),
    "bool": (lambda td: td.update(intercept=True), "field 'intercept' in tree 1 has wrong type bool"),
    "not-base64": (lambda td: td.update(normal="!" + td["normal"][1:]), "field 'normal' in tree 1 is not base64"),
    "line-break": (lambda td: td.update(normal=td["normal"][:8] + "\n" + td["normal"][8:]),
                   "field 'normal' in tree 1 is not base64"),
    "not-ascii": (lambda td: td.update(intercept="\xe9" + td["intercept"][1:]),
                  "field 'intercept' in tree 1 is not base64"),
    "padding-cut": (lambda td: td.update(normal=td["normal"][:-1]), "field 'normal' in tree 1 is not base64"),
    "bytes-not-whole-floats": (lambda td: td.update(normal=_b64(base64.b64decode(td["normal"]) + bytes(4))),
                               "field 'normal' in tree 1 holds 116 bytes, not a whole number of float64 values"),
    "one-row-short": (lambda td: td.update(intercept=_b64(base64.b64decode(td["intercept"])[:-16])),
                      "field 'intercept' in tree 1 holds 12 floats, expected 7 split rows of dimension 2"),
    "one-float-long": (lambda td: td.update(normal=_b64(base64.b64decode(td["normal"]) + bytes(8))),
                       "field 'normal' in tree 1 holds 15 floats, expected 7 split rows of dimension 2"),
    "lone-leaf:block-not-empty": (lambda td: td.update(normal=_b64(bytes(16))),
                                  "field 'normal' in tree 1 holds 2 floats, expected 0 split rows of dimension 2"),
    "normal-in-node": (lambda td: td["nodes"][0].update(normal=[1.0, 0.0]),
                       "node 0 of tree 1 has field 'normal', which a version 2 file keeps in the blocks of tree 1"),
    "intercept-in-node": (lambda td: td["nodes"][2].update(intercept=[]),
                          "node 2 of tree 1 has field 'intercept', which a version 2 file keeps in the blocks "
                          "of tree 1"),
    "v1:extended:normal-block": (lambda td: td.update(normal=""),
                                 "tree 1 has field 'normal', which only a version 2 tree carries"),
    "v1:extended:intercept-block": (lambda td: td.update(intercept=_b64(bytes(16))),
                                    "tree 1 has field 'intercept', which only a version 2 tree carries"),
}


@pytest.mark.parametrize("edit", sorted(_BLOCK_FAULTS))
def test_block_faults_name_the_tree_and_the_field(tmp_path, edit):
    base, _, _ = edit.rpartition(":")
    doc = json.loads(json.dumps(FUZZ_BASES[base or "extended"]))
    mutate, message = _BLOCK_FAULTS[edit]
    mutate(doc["trees"][1])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"^invalid model: {re.escape(message)}$"):
        load_forest(path)
    _assert_readers_agree(path, doc)
