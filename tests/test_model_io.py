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
        assert doc["version"] == 1
        assert doc["rng_family"].startswith("numpy-philox")

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

    def test_unknown_version_names_both(self, model_path):
        self.corrupt(model_path, lambda d: d.update(version=99))
        with pytest.raises(UnsupportedVersionError, match=r"99.*1"):
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
            for n in d["trees"][0]["nodes"]:
                if n["kind"] == "internal":
                    n["normal"] = [0.0, 0.0]
                    break

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
            # split the deepest leaf into two leaves one level further down
            nodes = d["trees"][0]["nodes"]
            donor = nodes[0]
            size = nodes[leaf]["size"]
            nodes[leaf] = dict(donor, left_index=len(nodes), right_index=len(nodes) + 1)
            nodes += [{"kind": "external", "size": size}, {"kind": "external", "size": 0}]

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
            d["trees"][0]["nodes"][0]["normal"][1] = 0.0

        self.corrupt(model_path, mutate)
        with pytest.raises(ModelFormatError,
                           match="node 0 of tree 0 has 1 nonzero normal entries, expected"):
            load_forest(model_path)

    def test_integer_beyond_float_range_rejected(self, model_path):
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

    def test_large_dimension_must_match_split_vectors(self, model_path):
        self.corrupt(model_path, lambda d: d.update(dimension=2**40))
        with pytest.raises(ModelFormatError, match="length != dimension"):
            load_forest(model_path)

    def test_single_leaf_trees_allocate_nothing_per_coordinate(self, tmp_path):
        # Constant data makes every tree a single leaf, so no split vector
        # confirms the document's dimension.
        path = tmp_path / "constant.json"
        forest = build_forest(np.ones((8, 3)), t=5, psi=4, extension_level=0, seed=1)
        save_forest(forest, path)
        assert all(tree.left.tolist() == [-1] for tree in load_forest(path).trees)
        probes = gen_gaussian_blob(5, 3, seed=2)
        assert score_batch(probes, load_forest(path)).tobytes() == score_batch(probes, forest).tobytes()

        self.corrupt(path, lambda d: d.update(dimension=2**40))
        tracemalloc.start()
        try:
            loaded = load_forest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert loaded.dimension == 2**40
        with pytest.raises(ValueError, match="dimension"):
            score_batch(probes, loaded)

    @pytest.mark.parametrize("dimension,splits", [(2**40, 0), (512, 1)], ids=["leaves-only", "one-split"])
    def test_unreachable_padding_allocates_nothing_per_coordinate(self, tmp_path, dimension, splits):
        # A node array holds nodes x dimension floats; padding a tree with
        # leaves no split reaches must not buy that with a few bytes each.
        path = tmp_path / "padded.json"
        save_forest(build_forest(np.ones((8, 3)), t=2, psi=4, extension_level=0, seed=1), path)
        splits = [{"kind": "internal", "normal": [1.0] + [0.0] * (dimension - 1),
                   "intercept": [0.0] * dimension, "left_index": 1, "right_index": 2} for _ in range(splits)]
        nodes = splits + [{"kind": "external", "size": 4}] + [{"kind": "external", "size": 0}] * 2000

        self.corrupt(path, lambda d: (d.update(dimension=dimension), d["trees"][0].update(nodes=nodes)))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="unreachable"):
                load_forest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _tiny_rotated_document():
    # One psi=2 tree: a root split over two leaves of size 1. true reads as a
    # valid version, t, height_limit, left_index, size, split entry and angle
    # here, and false as a valid extension_level.
    forest = build_rotated_forest(gen_gaussian_blob(10, 2, seed=1), 1, 2, seed=1)
    return document_oracle(forest)


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
        # The 100-tree 16-D full model is 7.7 MB of text, which peaked at
        # 22.6 MB when the save built it whole.
        forest = build_forest(gen_gaussian_blob(2000, 16, seed=9), 100, 256, 15, seed=9)
        assert _traced_peak(lambda: save_forest(forest, tmp_path / "m.json")) < 5_000_000
        assert (tmp_path / "m.json").stat().st_size > 7_000_000

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
    # 8-D at level 2: each node draws 5 targets, so a half word carries from node to node
    lambda data: build_forest(gen_gaussian_blob(500, 8, seed=20), 12, 64, 2, seed=24),
], ids=["level-0", "full", "rotated", "8d-level-2"])
def test_model_bytes_equal_scalar_draw_build(tmp_path, monkeypatch, build):
    # Pins stream consumption: the bounded draws read from the Philox words
    # must build the same model file as numpy's Generator.integers, one
    # scalar draw per Fisher-Yates swap on the tree's own generator.
    data = gen_gaussian_blob(500, 4, seed=20)
    save_forest(build(data), tmp_path / "words.json")
    def scalar(rng, n, k):  # every bounded draw: subsample's and each split's zero choice
        return choose_indices_oracle(rng._gen, n, k).tolist()
    monkeypatch.setattr("eif.rng.RngStream._fisher_yates", scalar)
    save_forest(build(data), tmp_path / "scalar.json")
    assert (tmp_path / "words.json").read_bytes() == (tmp_path / "scalar.json").read_bytes()


# SHA-256 of the model file and of the score bytes of three small builds,
# recorded before trees became node arrays; the array form must reproduce both.
PINNED = {
    "level-0": ("1ada649715ed7977cb99d9e63c4bf488a8fade1094d3632793614fe8574d8989",
                "4811be50136c83ebfac7474442196afc5f2e65f927b2e2c2a63f1793b9809658"),
    "full": ("6f889d6343d503ada098eddae3102d418c115d4ae97afab3525e01680364deaf",
             "aacbb2bcb382280805ad7d9ecab028402c489a20f23a5ba0757731b60be37436"),
    "rotated": ("21fa42a9e168da67aff7026e0cf3311503d82776887d05c8d46600a6cd25261b",
                "7b89a2d4b9f105eefcbbe26a8ce6f88792edfd24e16556d34af1002b5e36a6c1"),
}


@pytest.mark.skipif(RNG_FAMILY != "numpy-philox4x64/2.4.6",
                    reason=f"hashes pinned under numpy-philox4x64/2.4.6, running {RNG_FAMILY}")
@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_model_and_score_bytes(tmp_path, kind):
    data = gen_gaussian_blob(500, 4, seed=20)
    probes = gen_gaussian_blob(50, 4, seed=24)
    if kind == "rotated":
        forest = build_rotated_forest(data[:, :2], 12, 64, seed=23)
        probes = probes[:, :2]
    else:
        forest = build_forest(data, 12, 64, 0 if kind == "level-0" else 3,
                              seed=21 if kind == "level-0" else 22)
    save_forest(forest, tmp_path / "m.json")
    model_sha = hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest()
    score_sha = hashlib.sha256(score_batch(probes, forest).tobytes()).hexdigest()
    assert (model_sha, score_sha) == PINNED[kind]


# The three PINNED builds as version-1 files, written under numpy-philox4x64/2.4.6,
# with the SHA-256 of each model's scores on an RNG-free probe set recorded then
# (each probe coordinate is one correctly rounded division, the same on any numpy).
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FAMILY = "numpy-philox4x64/2.4.6"
FIXTURE_SCORES = {
    "level-0": "3bdccc560d66400154fcd2f14e0470fdf02b5e54ff988b2c0306902eda79815c",
    "full": "90025ef0d705439c7aa1657998a4297625ca8da8a356976215a2e2a117c17973",
    "rotated": "aede7a0103bc7c706170d9c824f6774939bba5cc3239c021aac6396061761722",
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_v1_fixture_scores_and_saves_as_written(tmp_path, recwarn, kind):
    fixture = FIXTURES / f"model_v1_{kind}.json"
    assert hashlib.sha256(fixture.read_bytes()).hexdigest() == PINNED[kind][0]
    if RNG_FAMILY == FIXTURE_FAMILY:
        forest = load_forest(fixture)
    else:
        with pytest.warns(UserWarning, match=f"rng family '{FIXTURE_FAMILY}'"):
            forest = load_forest(fixture)
    assert not recwarn.list
    probes = (np.arange(200.0).reshape(50, 4) / 25.0 - 4.0)[:, :forest.dimension]
    assert hashlib.sha256(score_batch(probes, forest).tobytes()).hexdigest() == FIXTURE_SCORES[kind]
    save_forest(forest, tmp_path / "m.json")
    # rng_family names the running build: the one field a save may write differently
    expected = fixture.read_text().replace(json.dumps(FIXTURE_FAMILY), json.dumps(RNG_FAMILY))
    assert (tmp_path / "m.json").read_text() == expected


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


def _hand_made_document():
    """A valid 2-D model whose split vectors hold -0.0, subnormals and JSON
    integers up to 2**70 in magnitude."""
    root = ([5e-324, -0.0], [-0.0, 2.2250738585072014e-308], 2, ([-0.0, -2.5e-310], [1e300, -5e-324], 1, 1))
    doc = document_oracle(Forest(trees=[tree_from_nested(root)], psi=4, extension_level=0, seed=0))
    nodes = doc["trees"][0]["nodes"]
    nodes[0]["normal"], nodes[0]["intercept"] = [2**70, -0.0], [-2**70 - 1, 3]
    nodes[1]["normal"] = [0, -1]
    return doc


def _fuzz_base(kind):
    data = gen_gaussian_blob(200, 2, seed=31)
    if kind == "rotated":
        forest = build_rotated_forest(data, 3, 16, seed=32)
    elif kind == "lone-leaf":
        forest = build_forest(np.ones((20, 2)), 2, 8, 1, seed=35)
    elif kind == "hand-made":
        return _hand_made_document()
    else:
        forest = build_forest(data, 3, 16, 1 if kind == "extended" else 0, seed=33)
    return document_oracle(forest)


def _paths(value, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


# The scoring fuzz mutates the first two; the reader comparison all five.
FUZZ_BASES = {kind: _fuzz_base(kind)
              for kind in ("extended", "rotated", "standard-equivalent", "lone-leaf", "hand-made")}
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
    whether its trees are read in bulk or node by node."""
    path.write_text(json.dumps(doc))
    bulk = _load_outcome(path)
    with mock.patch.object(model_io, "_read_tree", read_tree_oracle):
        assert bulk == _load_outcome(path)


@given(doc=st.one_of(
    _mutated_documents(kinds=tuple(FUZZ_BASES), min_mutations=0, values=st.one_of(_json_values, _edge_numbers),
                       in_nodes=True),
    _forests().map(document_oracle),
))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("ignore:model .* was built under rng family:UserWarning")
def test_bulk_tree_reader_matches_the_per_node_oracle(tmp_path, doc):
    _assert_readers_agree(tmp_path / "m.json", doc)


_INNER, _LEAF = ("trees", 1, "nodes", 0), ("trees", 1, "nodes", 1)  # in the extended base, of 15 nodes
# One or two node-level edits each, for faults a random mutation rarely makes.
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
    # every vector of the hand-made base, whose internal nodes are 0 and 2, one entry long
    "hand-made:vectors-of-length-one": [(("trees", 0, "nodes", k, key), [1.0])
                                        for k in (0, 2) for key in ("normal", "intercept")],
}


@pytest.mark.parametrize("edit", sorted(_NODE_EDITS))
@pytest.mark.filterwarnings("ignore:model .* was built under rng family:UserWarning")
def test_bulk_tree_reader_matches_the_per_node_oracle_on_node_faults(tmp_path, edit):
    base, _, _ = edit.rpartition(":")
    doc = json.loads(json.dumps(FUZZ_BASES[base or "extended"]))
    for keys, value in _NODE_EDITS[edit]:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if keys[-1] == len(target):
            target.append(value)
        else:
            target[keys[-1]] = value
    _assert_readers_agree(tmp_path / "m.json", doc)
