"""The benchmark's workloads: inputs, timed CLI commands, output checks and
the traced library equivalents of those commands.

Every call into the package goes through public names (``eif`` itself and
the public module-level functions of ``eif.rng``, ``eif.model_io`` and
``eif.evaluation``), so the workloads keep running while the internals are
refactored. ``run.py`` puts the checkout's ``src`` on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import eif
from eif import cli
from eif.evaluation import convergence_curve, grid_points, score_map
from eif.model_io import (
    load_forest,
    read_csv,
    save_forest,
    write_convergence_csv,
    write_dataset_csv,
    write_grid_csv,
    write_scores_csv,
)
from eif.rng import RNG_FAMILY, derive_stream, fold_seed, make_rng, subsample

from tracing import NullTracer

T = 100
PSI = 256
AUROC_FLOOR = 0.99
SAMPLE_HYPERPLANE_CALLS_PER_TREE = 10

# `eif train` builds on os.cpu_count() threads when --threads is absent; the
# traced equivalent does the same, for as long as build functions take the
# argument at all.
_CLI_THREADS = os.cpu_count() or 1


def _threads_kwarg(fn) -> dict:
    return {"threads": _CLI_THREADS} if "threads" in inspect.signature(fn).parameters else {}


class CheckFailed(Exception):
    """An output file is missing, malformed or out of range."""


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Command:
    """One timed CLI command and the library calls `eif.cli` makes for it."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], None]
    traced: Callable  # (tracer) -> None, writes the same bytes to ``out``


@dataclass
class Inputs:
    """What set-up leaves behind for the timed commands."""

    files: dict[str, Path]
    arrays: dict[str, np.ndarray]
    labels: np.ndarray | None = None
    models: list[Path] = field(default_factory=list)


# -- output checks -----------------------------------------------------


def _read_rows(path: Path, header: str, n_rows: int) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} is not [{header!r}]")
    if len(lines) - 1 != n_rows:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    try:
        return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    except ValueError as e:
        raise CheckFailed(f"{path.name}: unparsable cell: {e}") from None


def _check_scores_in_range(name: str, scores: np.ndarray) -> None:
    bad = ~((scores > 0.0) & (scores <= 1.0))
    if bad.any():
        raise CheckFailed(f"{name}: {int(bad.sum())} scores outside (0, 1], first {scores[bad][0]!r}")


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(anomaly outscores nominal), ties counted half; independent of eif."""
    nominal = np.sort(scores[labels == 0])
    anomalous = scores[labels == 1]
    below = np.searchsorted(nominal, anomalous, side="left")
    at_or_below = np.searchsorted(nominal, anomalous, side="right")
    wins = below.sum() + 0.5 * (at_or_below - below).sum()
    return float(wins) / (nominal.size * anomalous.size)


def _check_model(dimension: int, t: int) -> Callable[[Path], None]:
    def check(path: Path) -> None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise CheckFailed(f"{path.name}: not a JSON model: {e}") from None
        if doc.get("dimension") != dimension or len(doc.get("trees", [])) != t:
            raise CheckFailed(
                f"{path.name}: dimension {doc.get('dimension')} with {len(doc.get('trees', []))} "
                f"trees, expected {dimension} with {t}"
            )
    return check


def _check_scores(n_rows: int, labels: np.ndarray) -> Callable[[Path], None]:
    def check(path: Path) -> None:
        rows = _read_rows(path, "index,score", n_rows)
        if not np.array_equal(rows[:, 0], np.arange(n_rows)):
            raise CheckFailed(f"{path.name}: index column is not 0..{n_rows - 1}")
        _check_scores_in_range(path.name, rows[:, 1])
        auc = auroc(rows[:, 1], labels)
        if not auc > AUROC_FLOOR:
            raise CheckFailed(f"{path.name}: AUROC {auc:.6f} is not above {AUROC_FLOOR}")
    return check


def _check_grid(n_rows: int) -> Callable[[Path], None]:
    def check(path: Path) -> None:
        _check_scores_in_range(path.name, _read_rows(path, "x,y,score", n_rows)[:, 2])
    return check


def _check_convergence(t_values: list[int]) -> Callable[[Path], None]:
    def check(path: Path) -> None:
        rows = _read_rows(path, "t,mean,variance", len(t_values))
        if rows[:, 0].tolist() != t_values:
            raise CheckFailed(f"{path.name}: t column {rows[:, 0].tolist()} is not {t_values}")
        _check_scores_in_range(path.name, rows[:, 1])
        if not (rows[:, 2] >= 0.0).all():
            raise CheckFailed(f"{path.name}: negative variance")
    return check


# -- CLI commands and their traced library equivalents -----------------


def run_cli(argv: list[str]) -> None:
    code = cli.run(argv)
    if code != 0:
        raise CheckFailed(f"`eif {' '.join(argv)}` exited {code}")


def _read_csv(tr, path: Path) -> np.ndarray:
    with tr.span("model_io.read_csv") as s:
        data, _ = read_csv(path)
        s.count("cells", data.size)
    return data


def _save_forest(tr, forest, path: Path) -> None:
    with tr.span("model_io.save_forest") as s:
        save_forest(forest, path)
        s.count("bytes", path.stat().st_size)


def train_command(data: Path, level: str | None, seed: int, out: Path, dimension: int) -> Command:
    """`eif train --trees 100 --psi 256`; ``level`` None means --variant rotated."""
    variant = ["--variant", "rotated"] if level is None else ["--extension", level]
    argv = ["train", "--data", str(data), "--trees", str(T), "--psi", str(PSI),
            *variant, "--seed", str(seed), "--out", str(out)]

    def traced(tr) -> None:
        x = _read_csv(tr, data)
        if level is None:
            with tr.span("rotation.build_rotated_forest"):
                forest = eif.build_rotated_forest(x, T, PSI, seed, **_threads_kwarg(eif.build_rotated_forest))
        else:
            ext = x.shape[1] - 1 if level == "full" else int(level)
            with tr.span("forest.build_forest"):
                forest = eif.build_forest(x, T, PSI, ext, seed, **_threads_kwarg(eif.build_forest))
        _save_forest(tr, forest, out)

    name = "train" if level is not None else "train_rotated"
    return Command(name, argv, out, _check_model(dimension, T), traced)


def score_command(model: Path, data: Path, out: Path, labels: np.ndarray, n_rows: int) -> Command:
    argv = ["score", "--model", str(model), "--data", str(data), "--out", str(out)]

    def traced(tr) -> None:
        with tr.span("model_io.load_forest"):
            forest = load_forest(model)
        x = _read_csv(tr, data)
        with tr.span("forest.score_batch") as s:
            scores = forest.score(x)
            s.count("row_trees", x.shape[0] * forest.t)
        with tr.span("model_io.write_scores_csv"):
            write_scores_csv(out, range(len(scores)), scores)

    return Command("score", argv, out, _check_scores(n_rows, labels), traced)


SCOREMAP_BOUNDS = (-5.0, 15.0, -5.0, 15.0)
SCOREMAP_CELLS = 200


def scoremap_command(name: str, model: Path, out: Path) -> Command:
    x0, x1, y0, y1 = SCOREMAP_BOUNDS
    n = SCOREMAP_CELLS
    argv = ["scoremap", "--model", str(model), "--xmin", str(x0), "--xmax", str(x1),
            "--ymin", str(y0), "--ymax", str(y1), "--nx", str(n), "--ny", str(n),
            "--out", str(out)]

    def traced(tr) -> None:
        with tr.span("model_io.load_forest"):
            forest = load_forest(model)
        with tr.span("evaluation.score_map"):
            grid = score_map(forest, x0, x1, y0, y1, n, n)
        with tr.span("model_io.write_grid_csv"):
            write_grid_csv(out, grid)

    return Command(name, argv, out, _check_grid(n * n), traced)


CONVERGE_T_VALUES = [100, 200, 300, 400, 500]


def converge_command(data: Path, probe: Path, level: int, seed: int, out: Path) -> Command:
    tv = CONVERGE_T_VALUES
    argv = ["converge", "--data", str(data), "--probe", str(probe),
            "--t-values", ",".join(map(str, tv)), "--psi", str(PSI),
            "--extension", str(level), "--seed", str(seed), "--out", str(out)]

    def traced(tr) -> None:
        x = _read_csv(tr, data)
        p = _read_csv(tr, probe)
        with tr.span("evaluation.convergence_curve"):
            series = convergence_curve(x, p, tv, PSI, level, seed)
        with tr.span("model_io.write_convergence_csv"):
            write_convergence_csv(out, series)

    return Command("converge", argv, out, _check_convergence(tv), traced)


def _write_dataset(tr, path: Path, data: np.ndarray) -> Path:
    with tr.span("model_io.write_dataset_csv"):
        write_dataset_csv(path, data)
    return path


# -- probes: public layer functions timed on the workload's own data ----


def probe_tree_roots(tr, data: np.ndarray, level: int, seed: int) -> None:
    """Per tree i < T: derive stream i, draw its subsample, then draw root
    splits from it, the first work every tree build does."""
    root = make_rng(seed)
    samples = []
    with tr.span("rng.subsample"):
        for i in range(T):
            stream = derive_stream(root, i)
            samples.append((subsample(stream, data, PSI), stream))
    with tr.span("forest.sample_hyperplane") as s:
        for sample, stream in samples:
            for _ in range(SAMPLE_HYPERPLANE_CALLS_PER_TREE):
                eif.sample_hyperplane(sample, level, stream)
        s.count("calls", T * SAMPLE_HYPERPLANE_CALLS_PER_TREE)


def probe_score(tr, forest, points: np.ndarray, variant: str) -> None:
    """Batch-score ``points`` directly, the call `score_map` makes inside."""
    name = "rotation.rotated_score_batch" if variant == "rotated" else "forest.score_batch"
    with tr.span(name) as s:
        forest.score(points)
        s.count("row_trees", points.shape[0] * forest.t)


def model_shape(paths: list[Path]) -> dict[str, float]:
    """Node counts and mean leaf depth, read from saved model documents."""
    internal = leaves = depth_sum = 0
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for tree in doc["trees"]:
            nodes = tree["nodes"]
            depth = [0] * len(nodes)
            for i, node in enumerate(nodes):
                if node["kind"] == "internal":
                    internal += 1
                    depth[node["left_index"]] = depth[node["right_index"]] = depth[i] + 1
                else:
                    leaves += 1
                    depth_sum += depth[i]
    return {"internal_nodes": internal, "leaves": leaves, "mean_leaf_depth": depth_sum / leaves}


def model_variant(path: Path) -> str:
    return json.loads(Path(path).read_text(encoding="utf-8"))["variant"]


# -- workloads ---------------------------------------------------------


class Workload:
    name: str
    why: str

    def setup(self, work: Path, seed: int, tr) -> Inputs:
        raise NotImplementedError

    def commands(self, work: Path, seed: int, inputs: Inputs) -> list[Command]:
        raise NotImplementedError

    def probes(self, work: Path, seed: int, inputs: Inputs, tr) -> list[Path]:
        """Time layers the commands only reach inside other calls; returns
        the model files whose shape the trace reports."""
        raise NotImplementedError


class TrainScore16dFull(Workload):
    name = "train_score_16d_full"
    why = ("full extension at 16-D, the paper's headline setting: every split touches 16 "
           "coordinates and the 7.5 MB model makes build, traversal, JSON and CSV all weigh")
    dim, n_train, n_nominal, n_anomalous = 16, 20000, 9000, 1000

    def setup(self, work, seed, tr):
        with tr.span("synthetic.gen"):
            train = eif.gen_gaussian_blob(self.n_train, self.dim, seed=fold_seed(seed, 0))
            query = np.vstack([
                eif.gen_gaussian_blob(self.n_nominal, self.dim, seed=fold_seed(seed, 1)),
                eif.gen_anomalies_uniform_box(self.n_anomalous, [-6.0] * self.dim,
                                              [6.0] * self.dim, seed=fold_seed(seed, 2)),
            ])
        labels = np.repeat([0, 1], [self.n_nominal, self.n_anomalous])
        return Inputs(
            files={"train": _write_dataset(tr, work / "train.csv", train),
                   "query": _write_dataset(tr, work / "query.csv", query)},
            arrays={"train": train},
            labels=labels,
        )

    def commands(self, work, seed, inputs):
        model = work / "model.json"
        train = train_command(inputs.files["train"], "full", seed, model, self.dim)
        n_query = self.n_nominal + self.n_anomalous
        score = score_command(model, inputs.files["query"], work / "scores.csv", inputs.labels, n_query)
        return [train, score]

    def probes(self, work, seed, inputs, tr):
        probe_tree_roots(tr, inputs.arrays["train"], self.dim - 1, seed)
        return [work / "model.json"]


class Scoremap2d(Workload):
    name = "scoremap_2d"
    why = ("scoring alone at 2-D, where visiting nodes in Python outweighs the margin "
           "arithmetic; the only workload on the rotated variant and the grid writer")
    n_per_blob = 10000

    def setup(self, work, seed, tr):
        with tr.span("synthetic.gen"):
            data = eif.gen_double_blob(self.n_per_blob, seed=fold_seed(seed, 0))
        train = _write_dataset(tr, work / "train.csv", data)
        models = [work / "extended.json", work / "rotated.json"]
        for level, model in zip(["full", None], models):
            cmd = train_command(train, level, seed, model, 2)
            if isinstance(tr, NullTracer):
                run_cli(cmd.argv)
            else:
                with tr.span(f"setup.{cmd.name}"):
                    cmd.traced(tr)
            cmd.check(model)
        return Inputs(files={"train": train}, arrays={"train": data}, models=models)

    def commands(self, work, seed, inputs):
        extended, rotated = inputs.models
        return [scoremap_command("scoremap_extended", extended, work / "grid_extended.csv"),
                scoremap_command("scoremap_rotated", rotated, work / "grid_rotated.csv")]

    def probes(self, work, seed, inputs, tr):
        probe_tree_roots(tr, inputs.arrays["train"], 1, seed)
        points = grid_points(*SCOREMAP_BOUNDS, SCOREMAP_CELLS, SCOREMAP_CELLS)
        for model in inputs.models:
            probe_score(tr, load_forest(model), points, model_variant(model))
        return inputs.models


class Converge8dAxis(Workload):
    name = "converge_8d_axis"
    why = ("1,500 level-0 tree builds at 8-D with 1,000 probe rows and no model file: the "
           "rng zero-coordinate draws and the build dominate, where retraining shows")
    dim, n_train, n_nominal, n_anomalous, level = 8, 20000, 500, 500, 0

    def setup(self, work, seed, tr):
        with tr.span("synthetic.gen"):
            data = eif.gen_gaussian_blob(self.n_train, self.dim, seed=fold_seed(seed, 0))
            probe = np.vstack([
                eif.gen_gaussian_blob(self.n_nominal, self.dim, seed=fold_seed(seed, 1)),
                eif.gen_anomalies_uniform_box(self.n_anomalous, [-6.0] * self.dim,
                                              [6.0] * self.dim, seed=fold_seed(seed, 2)),
            ])
        return Inputs(files={"data": _write_dataset(tr, work / "data.csv", data),
                             "probe": _write_dataset(tr, work / "probe.csv", probe)},
                      arrays={"data": data, "probe": probe})

    def commands(self, work, seed, inputs):
        return [converge_command(inputs.files["data"], inputs.files["probe"], self.level, seed,
                                 work / "convergence.csv")]

    def probes(self, work, seed, inputs, tr):
        # The first forest `convergence_curve` builds (t = 100), built, scored,
        # saved and loaded on its own, splits the curve's time among layers.
        data = inputs.arrays["data"]
        probe_tree_roots(tr, data, self.level, seed)
        with tr.span("forest.build_forest"):
            forest = eif.build_forest(data, CONVERGE_T_VALUES[0], PSI, self.level, seed)
        model = work / "probe_model.json"
        _save_forest(tr, forest, model)
        with tr.span("model_io.load_forest"):
            forest = load_forest(model)
        probe_score(tr, forest, inputs.arrays["probe"], "extended")
        return [model]


WORKLOADS = {w.name: w for w in (TrainScore16dFull(), Scoremap2d(), Converge8dAxis())}
