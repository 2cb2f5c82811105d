import json
from pathlib import Path

import numpy as np
import pytest

from eif.cli import run
from eif.model_io import read_csv, write_dataset_csv
from eif.rng import RNG_FAMILY
from eif.synthetic import (
    benchmark_task,
    gen_anomalies_uniform_box,
    gen_double_blob,
    gen_gaussian_blob,
    gen_line_levelset,
    gen_sinusoid,
    gen_sphere_levelset,
)


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_blob_pipeline(self, tmp_path, capsys):
        out = tmp_path / "blob.csv"
        code, _, err = invoke(capsys, "synth", "--kind", "blob", "--n", "2000",
                              "--dim", "2", "--seed", "7", "--out", str(out))
        assert code == 0, err
        data, labels = read_csv(out)
        assert data.shape == (2000, 2)
        assert labels is None

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = invoke(capsys, "synth", "--kind", "sinusoid", "--n", "300",
                                "--seed", "3", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ("--kind", "blob", "--n", "10"),                      # missing --dim
        ("--kind", "double_blob", "--n", "10"),               # wrong count flag
        ("--kind", "blob", "--n", "10", "--dim", "2", "--radius", "1"),  # stray flag
    ])
    def test_kind_flag_mismatches_are_usage_errors(self, tmp_path, capsys, args):
        code, _, err = invoke(capsys, "synth", *args, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage error" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args,message", [
        (("--kind", "blob", "--n", "10", "--dim", "2", "--sigma", "nan"), "sigma must be finite"),
        (("--kind", "uniform_box", "--n", "10", "--lo=-1e308,0", "--hi=1e308,1"),
         "hi - lo overflows float64"),
        (("--kind", "blob", "--n", "20", "--dim", "1", "--sigma", "1e308"),
         "generated points overflow float64 with sigma=1e+308"),
        (("--kind", "line", "--n", "20", "--offset", "1e308", "--amplitude", "1e308"),
         "generated points overflow float64 with amplitude=1e+308, offset=1e+308"),
    ])
    def test_non_finite_parameters_are_data_errors(self, tmp_path, capsys, args, message):
        code, _, err = invoke(capsys, "synth", *args, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error: " in err and message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("x_max", ["-1", "0"])
    def test_line_x_max_not_positive_is_data_error(self, tmp_path, capsys, x_max):
        out = tmp_path / "x.csv"
        code, _, err = invoke(capsys, "synth", "--kind", "line", "--n", "10", "--offset", "0",
                              f"--x-max={x_max}", "--out", str(out))
        assert code == 2
        assert err == f"error: x_max must be positive, got {float(x_max)}\n"
        assert not out.exists()

    def test_all_kinds_produce_files(self, tmp_path, capsys):
        cases = {
            "blob": ["--n", "50", "--dim", "3"],
            "double_blob": ["--n-per-blob", "25"],
            "sinusoid": ["--n", "50"],
            "uniform_box": ["--n", "50", "--lo", "0,0", "--hi", "1,1"],
            "sphere": ["--radius", "2", "--n", "50", "--dim", "3"],
            "line": ["--offset", "1.5", "--n", "50"],
        }
        for kind, extra in cases.items():
            out = tmp_path / f"{kind}.csv"
            code, _, err = invoke(capsys, "synth", "--kind", kind, *extra,
                                  "--seed", "2", "--out", str(out))
            assert code == 0, (kind, err)
            assert out.exists()

    @pytest.mark.parametrize("kind,required,generate", [
        ("blob", ["--n", "50", "--dim", "3"], lambda: gen_gaussian_blob(50, 3)),
        ("double_blob", ["--n-per-blob", "25"], lambda: gen_double_blob(25)),
        ("sinusoid", ["--n", "50"], lambda: gen_sinusoid(50)),
        ("uniform_box", ["--n", "50", "--lo", "0,-1", "--hi", "1,2"],
         lambda: gen_anomalies_uniform_box(50, [0.0, -1.0], [1.0, 2.0])),
        ("sphere", ["--radius", "2", "--n", "50", "--dim", "3"],
         lambda: gen_sphere_levelset(2.0, 50, 3)),
        ("line", ["--offset", "1.5", "--n", "50"], lambda: gen_line_levelset(1.5, 50)),
    ])
    def test_required_flags_only_use_generator_defaults(self, tmp_path, capsys, kind, required, generate):
        out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
        code, _, err = invoke(capsys, "synth", "--kind", kind, *required, "--out", str(out))
        assert code == 0, err
        write_dataset_csv(expected, generate())
        assert out.read_bytes() == expected.read_bytes()


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "train.csv"
    write_dataset_csv(path, gen_gaussian_blob(600, 2, seed=7))
    return path


@pytest.fixture()
def model_json(tmp_path, blob_csv, capsys):
    path = tmp_path / "model.json"
    code = run(["train", "--data", str(blob_csv), "--trees", "40",
                "--psi", "128", "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestTrain:
    def test_defaults_resolve_extension_and_psi(self, tmp_path, blob_csv, capsys):
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(blob_csv),
                              "--trees", "10", "--seed", "1", "--out", str(out))
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["extension_level"] == 1  # full on 2-D data
        assert doc["psi"] == 256
        assert doc["t"] == 10

    def test_psi_defaults_to_row_count_when_small(self, tmp_path, capsys):
        data_path = tmp_path / "tiny.csv"
        write_dataset_csv(data_path, gen_gaussian_blob(100, 2, seed=3))
        out = tmp_path / "m.json"
        code, _, _ = invoke(capsys, "train", "--data", str(data_path),
                            "--trees", "5", "--seed", "1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["psi"] == 100

    def test_extension_zero_explicit(self, tmp_path, blob_csv, capsys):
        out = tmp_path / "m0.json"
        code, _, _ = invoke(capsys, "train", "--data", str(blob_csv), "--trees", "5",
                            "--extension", "0", "--seed", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["extension_level"] == 0
        assert doc["variant"] == "standard-equivalent"

    def test_extension_out_of_range_is_usage_error(self, tmp_path, blob_csv, capsys):
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(blob_csv), "--trees", "5",
                              "--extension", "2", "--seed", "1", "--out", str(out))
        assert code == 1
        assert "out of range" in err
        assert not out.exists()

    def test_rotated_on_3d_is_usage_error(self, tmp_path, capsys):
        data_path = tmp_path / "d3.csv"
        write_dataset_csv(data_path, gen_gaussian_blob(100, 3, seed=3))
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(data_path), "--variant",
                              "rotated", "--seed", "1", "--out", str(out))
        assert code == 1
        assert "2-D" in err
        assert not out.exists()

    def test_rotated_with_extension_flag_conflicts(self, tmp_path, blob_csv, capsys):
        code, _, err = invoke(capsys, "train", "--data", str(blob_csv), "--variant", "rotated",
                              "--extension", "0", "--seed", "1",
                              "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "does not apply" in err

    def test_rotated_model_trains_and_scores(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "rot.json"
        code, _, _ = invoke(capsys, "train", "--data", str(blob_csv), "--variant", "rotated",
                            "--trees", "10", "--seed", "4", "--out", str(model))
        assert code == 0
        assert json.loads(model.read_text())["variant"] == "rotated"
        scores = tmp_path / "s.csv"
        code, _, _ = invoke(capsys, "score", "--model", str(model),
                            "--data", str(blob_csv), "--out", str(scores))
        assert code == 0

    def test_one_row_without_psi_is_data_error_naming_the_rows(self, tmp_path, capsys):
        # the psi at fault would be the default, min(256, rows), which the user never passed
        data_path = tmp_path / "one.csv"
        data_path.write_text("x0,x1\n1,2\n")
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(data_path), "--out", str(out))
        assert code == 2
        assert err == f"error: training needs at least 2 data rows, {data_path} has 1\n"
        assert not out.exists()

    def test_sample_span_overflow_is_data_error(self, tmp_path, capsys):
        data_path = tmp_path / "wide.csv"
        data_path.write_text("x0,x1\n-1e308,0\n1e308,1\n0,0.5\n1,2\n")
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(data_path), "--out", str(out))
        assert code == 2
        assert "column 0 spans" in err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1" * 200_000, '"' + "1" * 200_000 + '"'], ids=["plain", "quoted"])
    def test_cell_beyond_the_csv_field_limit_is_data_error(self, tmp_path, capsys, cell):
        data_path = tmp_path / "long.csv"
        data_path.write_text(f"x0,x1\n0,1\n{cell},2\n3,4\n")
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(data_path), "--out", str(out))
        assert code == 2
        assert err == "error: unreadable CSV at line 3: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_data_not_utf8_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        data_path = tmp_path / "bad.csv"
        data_path.write_bytes(b"x0,x1\n1,2\n3,\xff\n")
        out = tmp_path / "m.json"
        code, _, err = invoke(capsys, "train", "--data", str(data_path), "--out", str(out))
        assert code == 2
        assert err == f"error: {data_path}: not UTF-8 at line 3: invalid start byte\n"
        assert not out.exists()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                              "--seed", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2

    def test_full_equals_level_zero_on_1d_data(self, tmp_path, capsys):
        data_path = tmp_path / "d1.csv"
        write_dataset_csv(data_path, gen_gaussian_blob(80, 1, seed=6))
        models = []
        for tag, level in (("full.json", "full"), ("zero.json", "0")):
            out = tmp_path / tag
            code, _, _ = invoke(capsys, "train", "--data", str(data_path), "--trees", "5",
                                "--extension", level, "--seed", "2", "--out", str(out))
            assert code == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]


class TestScore:
    def test_scores_in_unit_interval(self, tmp_path, blob_csv, model_json, capsys):
        out = tmp_path / "scores.csv"
        code, _, _ = invoke(capsys, "score", "--model", str(model_json),
                            "--data", str(blob_csv), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,score"
        assert len(lines) == 601
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 < v < 1.0 for v in values)
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(600))

    def test_dimension_mismatch_is_data_error(self, tmp_path, model_json, capsys):
        bad = tmp_path / "bad.csv"
        write_dataset_csv(bad, gen_gaussian_blob(10, 3, seed=2))
        code, _, err = invoke(capsys, "score", "--model", str(model_json),
                              "--data", str(bad), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "dimension" in err

    def test_corrupt_model_is_data_error(self, tmp_path, blob_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke(capsys, "score", "--model", str(bad),
                              "--data", str(blob_csv), "--out", str(tmp_path / "s.csv"))
        assert code == 2

    def test_unwritable_output_names_the_requested_path(self, tmp_path, blob_csv, model_json, capsys):
        out = tmp_path / "missing" / "s.csv"
        code, _, err = invoke(capsys, "score", "--model", str(model_json),
                              "--data", str(blob_csv), "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert ".tmp" not in err

    def test_other_rng_family_warns_in_one_line(self, tmp_path, blob_csv, model_json, capsys):
        # A model file written before the draw-contract id names numpy's version.
        model_json.write_text(model_json.read_text().replace(
            json.dumps(RNG_FAMILY), json.dumps("numpy-philox4x64/2.4.5")))
        out = tmp_path / "scores.csv"
        code, _, err = invoke(capsys, "score", "--model", str(model_json),
                              "--data", str(blob_csv), "--out", str(out))
        assert code == 0
        assert err == (f"warning: model {model_json} was built under rng family 'numpy-philox4x64/2.4.5', "
                       f"this build runs {RNG_FAMILY!r}: it scores as before, but retraining from its seed "
                       "may not reproduce it\n")
        assert len(out.read_text().splitlines()) == 601

    @pytest.mark.parametrize("kind,dimension", [("level-0", 4), ("full", 4), ("rotated", 2)])
    def test_version_1_fixture_scores_with_one_warning(self, tmp_path, capsys, kind, dimension):
        # The committed version-1 files name numpy's version as their rng family.
        model = Path(__file__).parent / "fixtures" / f"model_v1_{kind}.json"
        data, out = tmp_path / "probe.csv", tmp_path / "scores.csv"
        write_dataset_csv(data, gen_gaussian_blob(50, dimension, seed=3))
        code, _, err = invoke(capsys, "score", "--model", str(model), "--data", str(data), "--out", str(out))
        assert code == 0, err
        assert len(err.splitlines()) == 1 and err.startswith(f"warning: model {model} was built under rng family ")
        assert len(out.read_text().splitlines()) == 51


class TestScoremap:
    def test_grid_shape(self, tmp_path, model_json, capsys):
        out = tmp_path / "g.csv"
        code, _, _ = invoke(capsys, "scoremap", "--model", str(model_json),
                            "--xmin", "-3", "--xmax", "3", "--ymin", "-3", "--ymax", "3",
                            "--nx", "8", "--ny", "6", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,score"
        assert len(lines) == 1 + 48

    @pytest.mark.parametrize("bounds,axis", [
        (["--xmin=-1e308", "--xmax", "1e308", "--ymin", "-3", "--ymax", "3"], "x"),
        (["--xmin=-inf", "--xmax", "3", "--ymin", "-3", "--ymax", "3"], "x"),
        (["--xmin", "-3", "--xmax", "3", "--ymin", "-3", "--ymax", "inf"], "y"),
    ], ids=["width-overflows", "infinite-xmin", "infinite-ymax"])
    def test_bounds_infinite_or_too_wide_are_data_error(self, tmp_path, model_json, capsys, bounds, axis):
        out = tmp_path / "g.csv"
        code, _, err = invoke(capsys, "scoremap", "--model", str(model_json), *bounds, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: grid {axis} bounds must be finite, with a width that fits float64")
        assert not out.exists()

    @pytest.mark.parametrize("error,message", [
        (MemoryError("Unable to allocate 596. GiB for an array with shape (40000000000, 2) and data type float64"),
         "Unable to allocate 596. GiB for an array with shape (40000000000, 2) and data type float64"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_allocation_failure_is_data_error(self, tmp_path, model_json, capsys, monkeypatch, error, message):
        def grid_points(*args):
            raise error
        monkeypatch.setattr("eif.evaluation.grid_points", grid_points)
        out = tmp_path / "g.csv"
        code, _, err = invoke(capsys, "scoremap", "--model", str(model_json),
                              "--xmin", "-3", "--xmax", "3", "--ymin", "-3", "--ymax", "3",
                              "--nx", "200000", "--ny", "200000", "--out", str(out))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    def test_inverted_bounds_usage_error(self, tmp_path, model_json, capsys):
        code, _, err = invoke(capsys, "scoremap", "--model", str(model_json),
                              "--xmin", "3", "--xmax", "-3", "--ymin", "-3", "--ymax", "3",
                              "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert not (tmp_path / "g.csv").exists()


class TestLevelset:
    def test_radii_mode(self, tmp_path, model_json, capsys):
        out = tmp_path / "ls.csv"
        code, _, _ = invoke(capsys, "levelset", "--model", str(model_json),
                            "--radii", "1,2,4", "--n-probe", "100",
                            "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,mean,variance,n_probe"
        assert len(lines) == 4

    def test_offsets_mode(self, tmp_path, model_json, capsys):
        out = tmp_path / "ls.csv"
        code, _, _ = invoke(capsys, "levelset", "--model", str(model_json),
                            "--offsets", "0,2", "--n-probe", "100",
                            "--seed", "3", "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("flag", [["--amplitude", "3"], ["--x-max", "1"]], ids=["amplitude", "x-max"])
    def test_curve_flags_with_radii_are_usage_errors(self, tmp_path, model_json, capsys, flag):
        # Both were accepted and silently ignored.
        out = tmp_path / "ls.csv"
        code, _, err = invoke(capsys, "levelset", "--model", str(model_json), "--radii", "1,2", *flag,
                              "--seed", "3", "--out", str(out))
        assert code == 1
        assert err == f"usage error: {flag[0]} does not apply to --radii\n"
        assert not out.exists()

    @pytest.mark.parametrize("x_max", ["-3", "0"])
    def test_offsets_x_max_not_positive_is_data_error(self, tmp_path, model_json, capsys, x_max):
        out = tmp_path / "ls.csv"
        code, _, err = invoke(capsys, "levelset", "--model", str(model_json), "--offsets", "0",
                              f"--x-max={x_max}", "--seed", "3", "--out", str(out))
        assert code == 2
        assert err == f"error: x_max must be positive, got {float(x_max)}\n"
        assert not out.exists()

    def test_offsets_default_to_the_sinusoid_curve(self, tmp_path, model_json, capsys):
        from eif.evaluation import line_levelset_stats
        from eif.model_io import load_forest, write_stats_csv
        from eif.synthetic import SINUSOID_AMPLITUDE, SINUSOID_X_MAX

        out = tmp_path / "ls.csv"
        code, _, _ = invoke(capsys, "levelset", "--model", str(model_json), "--offsets", "0,1",
                            "--n-probe", "50", "--seed", "3", "--out", str(out))
        assert code == 0
        stats = line_levelset_stats(load_forest(model_json), [0.0, 1.0], 50, SINUSOID_AMPLITUDE, SINUSOID_X_MAX, 3)
        write_stats_csv(tmp_path / "want.csv", stats)
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_radii_and_offsets_conflict(self, tmp_path, model_json, capsys):
        code, _, err = invoke(capsys, "levelset", "--model", str(model_json),
                              "--radii", "1", "--offsets", "1", "--seed", "3",
                              "--out", str(tmp_path / "ls.csv"))
        assert code == 1


class TestConverge:
    def test_writes_series(self, tmp_path, blob_csv, capsys):
        probe = tmp_path / "probe.csv"
        write_dataset_csv(probe, gen_gaussian_blob(40, 2, seed=9))
        out = tmp_path / "conv.csv"
        code, _, _ = invoke(capsys, "converge", "--data", str(blob_csv), "--probe", str(probe),
                            "--t-values", "5,10,15", "--psi", "64", "--extension", "full",
                            "--seed", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mean,variance"
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "10", "15"]

    def test_non_increasing_t_values_usage_error(self, tmp_path, blob_csv, capsys):
        probe = tmp_path / "probe.csv"
        write_dataset_csv(probe, gen_gaussian_blob(10, 2, seed=9))
        code, _, err = invoke(capsys, "converge", "--data", str(blob_csv), "--probe", str(probe),
                              "--t-values", "10,5", "--psi", "64", "--extension", "0",
                              "--seed", "2", "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert not (tmp_path / "c.csv").exists()

    def test_t_of_2_to_the_63_or_more_is_a_data_error_before_any_tree_grows(self, tmp_path, blob_csv, capsys,
                                                                            monkeypatch):
        def no_growth(*args, **kwargs):
            raise AssertionError("a tree grew before t was checked")

        monkeypatch.setattr("eif.forest._grow_levels", no_growth)
        code, _, err = invoke(capsys, "converge", "--data", str(blob_csv), "--probe", str(blob_csv),
                              "--t-values", "1,99999999999999999999", "--psi", "8", "--extension", "0",
                              "--seed", "1", "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert err == "error: t_values[1] must be in [1, 2**63), got 99999999999999999999\n"
        assert not (tmp_path / "c.csv").exists()

    def test_probe_width_mismatch_is_data_error(self, tmp_path, blob_csv, capsys):
        probe = tmp_path / "probe.csv"
        write_dataset_csv(probe, gen_gaussian_blob(10, 3, seed=9))
        code, _, err = invoke(capsys, "converge", "--data", str(blob_csv), "--probe", str(probe),
                              "--t-values", "5,10", "--psi", "64", "--extension", "0",
                              "--seed", "2", "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "dimension mismatch" in err
        assert not (tmp_path / "c.csv").exists()


class TestBench:
    def test_prints_metrics_matching_library(self, tmp_path, capsys):
        from eif.evaluation import auprc, auroc
        from eif.forest import build_forest, score_batch

        train, points, labels = benchmark_task("single_blob", n_train=400, n_anomalies=40, seed=5)
        train_csv = tmp_path / "train.csv"
        write_dataset_csv(train_csv, train)
        labeled = tmp_path / "labeled.csv"
        rows = ["x0,x1,label"] + [
            f"{repr(float(p[0]))},{repr(float(p[1]))},{l}" for p, l in zip(points, labels)
        ]
        labeled.write_text("\n".join(rows) + "\n")

        model = tmp_path / "m.json"
        code, _, _ = invoke(capsys, "train", "--data", str(train_csv), "--trees", "50",
                            "--psi", "256", "--seed", "5", "--out", str(model))
        assert code == 0
        code, out, _ = invoke(capsys, "bench", "--model", str(model),
                              "--data", str(labeled), "--label-column", "label")
        assert code == 0
        forest = build_forest(train, 50, 256, 1, seed=5)
        scores = score_batch(points, forest)
        expected = f"auroc={auroc(scores, labels):.9g} auprc={auprc(scores, labels):.9g}"
        assert out.strip() == expected

    def test_label_column_by_index_matches_by_name(self, tmp_path, model_json, capsys):
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x0,x1,label\n0,0,0\n5,5,1\n0.1,0,0\n")
        outputs = []
        for column in ("label", "2"):
            code, out, err = invoke(capsys, "bench", "--model", str(model_json),
                                    "--data", str(labeled), "--label-column", column)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0].startswith("auroc=") and outputs[1] == outputs[0]

    def test_single_class_is_data_error(self, tmp_path, model_json, capsys):
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x0,x1,label\n0,0,0\n1,1,0\n")
        code, _, err = invoke(capsys, "bench", "--model", str(model_json),
                              "--data", str(labeled), "--label-column", "label")
        assert code == 2

    @pytest.mark.parametrize("name", ["²", "--1"])
    def test_label_column_name_that_int_rejects(self, tmp_path, model_json, capsys, name):
        # "²" is a digit to str.isdigit, and "--1" is digits once every "-" is
        # stripped, but int() takes neither: each names a header column
        labeled = tmp_path / "labeled.csv"
        labeled.write_text(f"x0,x1,{name}\n0,0,0\n5,5,1\n0.1,0,0\n", encoding="utf-8")
        code, out, err = invoke(capsys, "bench", "--model", str(model_json),
                                "--data", str(labeled), f"--label-column={name}")
        assert (code, err) == (0, "")
        assert out.startswith("auroc=")

    def test_header_wider_than_rows_is_data_error(self, tmp_path, model_json, capsys):
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x,y,label\n0,0\n1,1\n")
        code, _, err = invoke(capsys, "bench", "--model", str(model_json),
                              "--data", str(labeled), "--label-column", "label")
        assert code == 2
        assert "ragged row at line 2" in err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = invoke(capsys, "--version")
        assert code == 0
        assert "eif" in out

    def test_help(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "synth" in out and "bench" in out

    def test_subcommand_help(self, capsys):
        code, out, _ = invoke(capsys, "train", "--help")
        assert code == 0
        assert "--extension" in out

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, )
        assert code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "score", "--bogus", "x")
        assert code == 1

    def test_bad_seed_is_usage_error(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "synth", "--kind", "blob", "--n", "5", "--dim", "2",
                              "--seed", "-3", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("args,message", [
        (["synth", "--kind", "blob", "--n", "5", "--dim", "2", "--seed", "abc"],
         "seed must be a decimal integer, got 'abc'"),
        (["levelset", "--model", "m.json", "--radii", "1,x", "--seed", "1"],
         "expected a comma-separated list of numbers, got '1,x'"),
        (["converge", "--data", "d.csv", "--probe", "p.csv", "--t-values", "5,1.5", "--psi", "8",
          "--extension", "0", "--seed", "1"], "expected a comma-separated list of integers, got '5,1.5'"),
        (["synth", "--kind", "blob", "--n", "5", "--dim", "2", "--mean", "0,0,0"], "--mean length must equal --dim"),
        (["train", "--data", "{blob_csv}", "--extension", "abc"], "--extension must be an integer or 'full', got 'abc'"),
        (["train", "--data", "{blob_csv}", "--trees", "0"], "--trees must be at least 1, got 0"),
        (["scoremap", "--model", "m.json", "--xmin", "0", "--xmax", "1", "--ymin", "0", "--ymax", "1", "--nx", "1"],
         "--nx and --ny must be at least 2"),
        (["levelset", "--model", "m.json", "--radii", "1", "--n-probe", "1", "--seed", "1"],
         "--n-probe must be at least 2, got 1"),
    ], ids=["seed-abc", "radii-list", "t-values-list", "mean-length", "extension-abc", "trees-0", "nx-1",
            "n-probe-1"])
    def test_bad_flag_values_are_usage_errors(self, tmp_path, blob_csv, capsys, args, message):
        out = tmp_path / "out"
        args = [arg.format(blob_csv=blob_csv) for arg in args]
        code, _, err = invoke(capsys, *args, "--out", str(out))
        assert code == 1
        assert message in err and err.startswith("usage error: ")
        assert not out.exists()

    def test_full_pipeline_replay_is_byte_identical(self, tmp_path, capsys):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            steps = [
                ["synth", "--kind", "double_blob", "--n-per-blob", "150", "--seed", "11",
                 "--out", str(d / "data.csv")],
                ["train", "--data", str(d / "data.csv"), "--trees", "20", "--psi", "128",
                 "--seed", "11", "--out", str(d / "model.json")],
                ["score", "--model", str(d / "model.json"), "--data", str(d / "data.csv"),
                 "--out", str(d / "scores.csv")],
                ["scoremap", "--model", str(d / "model.json"), "--xmin", "-4", "--xmax", "14",
                 "--ymin", "-4", "--ymax", "14", "--nx", "10", "--ny", "10",
                 "--out", str(d / "grid.csv")],
                ["levelset", "--model", str(d / "model.json"), "--radii", "1,3",
                 "--n-probe", "50", "--seed", "11", "--out", str(d / "ls.csv")],
            ]
            for step in steps:
                assert run(step) == 0
            capsys.readouterr()
            outputs.append([
                (d / name).read_bytes()
                for name in ("data.csv", "model.json", "scores.csv", "grid.csv", "ls.csv")
            ])
        assert outputs[0] == outputs[1]
