import importlib
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import eif
from eif.cli import main
from eif.rng import fold_seed

DATA = eif.gen_gaussian_blob(16, 2, seed=1)

# Every integer argument the package takes from a caller, as (argument, call):
# the call passes ``v`` as that argument, draws only from ``c.rng``, scores with
# ``c.forest``, a 2-D forest, and reads ``c.csv``, four columns with 0/1 in the last.
INTEGER_ARGUMENTS = [pytest.param(argument, call, id=id) for id, argument, call in [
    ("subsample", "psi", lambda v, c: eif.subsample(c.rng, DATA, v)),
    ("make_rng", "seed", lambda v, c: eif.make_rng(v)),
    ("RngStream-seed", "seed", lambda v, c: eif.RngStream(v)),
    ("RngStream-stream_index", "stream_index", lambda v, c: eif.RngStream(1, v)),
    ("fold_seed-seed", "seed", lambda v, c: fold_seed(v, 1)),
    ("fold_seed-index", "index", lambda v, c: fold_seed(1, v)),
    ("derive_stream", "index", lambda v, c: eif.derive_stream(c.rng, v)),
    ("convergence_curve", "t_values", lambda v, c: eif.convergence_curve(DATA, DATA[:2], [1, v], 4, 0, 1)),
    ("gen_gaussian_blob-n", "n", lambda v, c: eif.gen_gaussian_blob(v, 2)),
    ("gen_gaussian_blob-dim", "dim", lambda v, c: eif.gen_gaussian_blob(4, v)),
    ("gen_double_blob", "n_per_blob", lambda v, c: eif.gen_double_blob(v)),
    ("gen_sinusoid", "n", lambda v, c: eif.gen_sinusoid(v)),
    ("gen_sphere_levelset-n", "n", lambda v, c: eif.gen_sphere_levelset(1.0, v, 2)),
    ("gen_sphere_levelset-dim", "dim", lambda v, c: eif.gen_sphere_levelset(1.0, 4, v)),
    ("gen_line_levelset", "n", lambda v, c: eif.gen_line_levelset(1.0, v)),
    ("gen_anomalies_uniform_box", "n", lambda v, c: eif.gen_anomalies_uniform_box(v, [0.0], [1.0])),
    ("benchmark_task-n_train", "n_train", lambda v, c: eif.benchmark_task("single_blob", v, 3)),
    ("benchmark_task-n_anomalies", "n_anomalies", lambda v, c: eif.benchmark_task("single_blob", 200, v)),
    ("levelset_stats", "n_probe", lambda v, c: eif.levelset_stats(c.forest, [1.0], v, 1)),
    ("line_levelset_stats", "n_probe",
     lambda v, c: eif.line_levelset_stats(c.forest, [1.0], v, 5.0, 4 * math.pi, 1)),
    ("score_map-nx", "nx", lambda v, c: eif.score_map(c.forest, 0, 1, 0, 1, v, 2)),
    ("score_map-ny", "ny", lambda v, c: eif.score_map(c.forest, 0, 1, 0, 1, 2, v)),
    ("read_csv", "label_column", lambda v, c: eif.read_csv(c.csv, label_column=v)),
]]


def test_all_lists_only_public_names_not_modules():
    assert len(eif.__all__) == 36
    assert len(set(eif.__all__)) == 36
    for name in eif.__all__:
        assert not isinstance(getattr(eif, name), types.ModuleType), name


@pytest.mark.parametrize("argument,call", INTEGER_ARGUMENTS)
def test_integer_arguments_take_integers_only(argument, call, small_forest, tmp_path):
    """Floats and bools fail with a ValueError naming the argument, before
    anything is drawn, even when their value is whole; numpy integers pass."""
    csv = tmp_path / "labeled.csv"
    csv.write_text("1,2,3,0\n4,5,6,1\n")
    fresh = lambda: types.SimpleNamespace(rng=eif.make_rng(1), forest=small_forest, csv=csv)
    for value in (2.5, True, np.float64(3.0)):
        c = fresh()
        with pytest.raises(ValueError, match=rf"^{re.escape(argument)}(\[\d+\])? must be an integer, got "):
            call(value, c)
        assert c.rng.random(4).tobytes() == eif.make_rng(1).random(4).tobytes()
    call(np.int64(3), fresh())


def test_pyproject_states_the_version_and_the_console_script():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == eif.__version__
    module, _, name = project["scripts"]["eif"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
