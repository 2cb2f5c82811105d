"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run at fixed seeds, so their outcomes are exact
replays, not flaky samples.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from eif.cli import run as cli_run
from eif.evaluation import auprc, auroc, convergence_curve, levelset_stats
from eif.forest import (
    Forest,
    build_forest,
    c_factor,
    height_limit_for,
    sample_hyperplane,
    score_batch,
)
from eif.model_io import load_forest, save_forest
from eif.rng import derive_stream, fold_seed, make_rng, subsample
from eif.synthetic import (
    benchmark_task,
    gen_double_blob,
    gen_gaussian_blob,
    gen_sphere_levelset,
)
from oracles import auprc_oracle, auroc_oracle, random_labeled_instance, tree_from_nested


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_formula_unit_suite():
    start = time.perf_counter()
    ok_c = abs(c_factor(256) - 10.24477) < 1e-5
    # a single root leaf of size psi gives every point depth c(psi) exactly
    stub = Forest(trees=[tree_from_nested(256, dimension=2)], psi=256, extension_level=1, seed=0)
    ok_score = score_batch(np.zeros((1, 2)), stub)[0] == 0.5
    ok_limit = height_limit_for(256) == 8
    elapsed = time.perf_counter() - start
    report(1, ok_c and ok_score and ok_limit and elapsed < 1.0,
           f"c(256)={c_factor(256):.6f}, score at depth c(psi)=0.5 exact, "
           f"height_limit(256)=8, {elapsed:.3f}s")


def test_criterion_2_structural_invariants():
    start = time.perf_counter()
    configs = []
    k = 0
    while len(configs) < 50:
        dim = 1 + k % 5
        for level in range(dim):
            configs.append((dim, level, 40 + 8 * (k % 3), 2 + k % 3))
        k += 1
    configs = configs[:50]

    nodes_checked = 0
    for count, (dim, level, psi, t) in enumerate(configs):
        data = gen_gaussian_blob(200, dim, seed=fold_seed(77, count))
        forest = build_forest(data, t, psi, level, seed=fold_seed(78, count))
        root_stream = make_rng(fold_seed(78, count))
        height_limit = height_limit_for(psi)
        for i, tree in enumerate(forest.trees):
            sample = subsample(derive_stream(root_stream, i), data, psi)
            stack = [(0, sample, 0)]
            total_leaf_mass = 0
            while stack:
                k, pts, depth = stack.pop()
                nodes_checked += 1
                if tree.left[k] < 0:
                    assert tree.size[k] == len(pts), "leaf size != points routed to it"
                    total_leaf_mass += tree.size[k]
                    continue
                assert depth < height_limit, "internal node at depth limit"
                nz = np.count_nonzero(tree.normal[k])
                assert nz == level + 1, "nonzero normal coordinates != level+1"
                # independent margin evaluation (whole-vector dot product)
                margins = (pts - tree.intercept[k]) @ tree.normal[k]
                went_left = margins <= 0.0
                stack.append((tree.left[k], pts[went_left], depth + 1))
                stack.append((tree.right[k], pts[~went_left], depth + 1))
            assert total_leaf_mass == psi, "leaf masses do not sum to psi"
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60.0,
           f"50 forests, {nodes_checked} nodes: partition soundness, leaf mass, "
           f"depth bound, normal sparsity all hold, {elapsed:.1f}s")


def test_criterion_3_extension_zero_is_axis_parallel():
    stream = make_rng(123)
    violations = 0
    for k in range(10_000):
        dim = 1 + k % 5
        data = stream.standard_normal((8, dim))
        normal, _ = sample_hyperplane(data, 0, derive_stream(stream, k))
        if np.count_nonzero(normal) != 1:
            violations += 1
    report(3, violations == 0,
           f"10000 level-0 hyperplanes sampled across dims 1..5, {violations} violations")


def test_criterion_4_auc_oracle_equivalence():
    rng = make_rng(4242)
    checked = 0
    exact = True
    for _ in range(200):
        scores, labels = random_labeled_instance(rng, max_size=50)
        if 0 < labels.sum() < len(labels):
            exact &= auroc(scores, labels) == auroc_oracle(scores, labels)
        exact &= auprc(scores, labels) == auprc_oracle(scores, labels)
        checked += 1
    report(4, exact and checked == 200,
           f"auroc/auprc match brute-force oracles exactly on {checked} instances")


@pytest.mark.slow
def test_criterion_5_table_direction_at_desk_scale():
    results = {}
    single_full = []
    for kind in ("single_blob", "double_blob", "sinusoid"):
        wins = 0
        for seed in range(1, 11):
            train, points, labels = benchmark_task(kind, 2000, 200, seed=seed)
            full = build_forest(train, 200, 256, 1, seed=seed)
            axis = build_forest(train, 200, 256, 0, seed=seed)
            a_full = auroc(score_batch(points, full), labels)
            a_axis = auroc(score_batch(points, axis), labels)
            wins += a_full > a_axis
            if kind == "single_blob":
                single_full.append(a_full)
        results[kind] = wins
    ok_direction = all(w >= 9 for w in results.values())
    ok_floor = min(single_full) >= 0.97
    report(5, ok_direction and ok_floor,
           f"full>axis wins {results}, single-blob full AUROC min {min(single_full):.4f}")


def _disk_probes(center, radius, n, seed):
    r = make_rng(seed)
    rad = radius * np.sqrt(r.uniform(0.0, 1.0, n))
    theta = r.uniform(0.0, 2 * np.pi, n)
    return np.column_stack([center[0] + rad * np.cos(theta), center[1] + rad * np.sin(theta)])


@pytest.mark.slow
def test_criterion_6_ghost_regions():
    wins = 0
    for seed in range(1, 11):
        train = gen_double_blob(1000, seed=fold_seed(seed, 0))
        probes = np.vstack([
            _disk_probes((0.0, 0.0), 0.5, 250, fold_seed(seed, 1)),
            _disk_probes((10.0, 10.0), 0.5, 250, fold_seed(seed, 2)),
        ])
        axis = build_forest(train, 100, 256, 0, seed=seed)
        full = build_forest(train, 100, 256, 1, seed=seed)
        wins += score_batch(probes, full).mean() > score_batch(probes, axis).mean()
    report(6, wins >= 9,
           f"ghost-site probes score higher at full extension in {wins}/10 seeds")


@pytest.mark.slow
def test_criterion_7_levelset_variance():
    per_dim = {}
    for dim in (2, 3, 4):
        wins = 0
        for seed in range(1, 11):
            train = gen_gaussian_blob(2000, dim, seed=fold_seed(seed, 3))
            axis = build_forest(train, 100, 256, 0, seed=seed)
            full = build_forest(train, 100, 256, dim - 1, seed=seed)
            v_axis = levelset_stats(axis, [4.0], 500, seed)[0].variance
            v_full = levelset_stats(full, [4.0], 500, seed)[0].variance
            wins += v_axis > v_full
        per_dim[dim] = wins
    ok_gap = all(w >= 9 for w in per_dim.values())

    # 4-D: variance non-increasing across extension levels 0..3 (larger
    # forests and probe sets to resolve the small level-2 vs level-3 gap)
    chain_wins = 0
    for seed in range(1, 11):
        train = gen_gaussian_blob(2000, 4, seed=fold_seed(seed, 3))
        variances = []
        for level in range(4):
            f = build_forest(train, 200, 256, level, seed=seed)
            variances.append(levelset_stats(f, [4.0], 1000, seed)[0].variance)
        chain_wins += all(a >= b for a, b in zip(variances, variances[1:]))
    report(7, ok_gap and chain_wins >= 6,
           f"axis>full variance wins {per_dim}; 4-D level chain holds in {chain_wins}/10")


@pytest.mark.slow
def test_criterion_8_convergence_band():
    train = gen_gaussian_blob(2000, 2, seed=42)
    probe = gen_sphere_levelset(3.0, 500, 2, seed=43)
    widths = {}
    for level in (0, 1):
        series = convergence_curve(train, probe, [100, 200, 300, 400, 500], 256, level, seed=44)
        widths[level] = (max(series.means) - min(series.means)) / 2.0
    report(8, all(w < 0.01 for w in widths.values()),
           f"probe-mean band half-widths {widths[0]:.5f} (axis), {widths[1]:.5f} (full)")


def test_criterion_9_training_time_parity():
    train = gen_gaussian_blob(2000, 4, seed=9)

    def best_build_time(level):
        best = float("inf")
        for rep in range(2):
            t0 = time.perf_counter()
            build_forest(train, 200, 256, level, seed=rep)
            best = min(best, time.perf_counter() - t0)
        return best

    t_axis = best_build_time(0)
    t_full = best_build_time(3)
    ratio = t_full / t_axis
    report(9, ratio <= 2.0,
           f"full-extension {t_full:.2f}s vs axis {t_axis:.2f}s, ratio {ratio:.2f}")


def test_criterion_10_round_trip_and_replay(tmp_path):
    train = gen_gaussian_blob(1500, 2, seed=10)
    forest = build_forest(train, 100, 256, 1, seed=10)
    probes = gen_gaussian_blob(100, 2, seed=11)
    path = tmp_path / "model.json"
    save_forest(forest, path)
    ok_roundtrip = np.array_equal(
        score_batch(probes, load_forest(path)), score_batch(probes, forest)
    )

    files = ("data.csv", "model.json", "scores.csv")
    contents = []
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_run(["synth", "--kind", "blob", "--n", "800", "--dim", "2",
                        "--seed", "12", "--out", str(d / "data.csv")]) == 0
        assert cli_run(["train", "--data", str(d / "data.csv"), "--trees", "60",
                        "--psi", "256", "--seed", "12", "--out", str(d / "model.json")]) == 0
        assert cli_run(["score", "--model", str(d / "model.json"),
                        "--data", str(d / "data.csv"), "--out", str(d / "scores.csv")]) == 0
        contents.append([(d / f).read_bytes() for f in files])
    ok_replay = contents[0] == contents[1]
    report(10, ok_roundtrip and ok_replay,
           "save/load scores bit-identical on 100 probes; pipeline replay byte-identical")


BENCHMARK_FILES = ("cardio", "forestcover", "ionosphere", "mammography", "satellite")


def test_criterion_11_user_supplied_benchmarks(tmp_path):
    bench_dir = os.environ.get("EIF_BENCHMARK_DIR")
    if not bench_dir:
        pytest.skip("EIF_BENCHMARK_DIR not set; user-supplied benchmark CSVs unavailable")
    bench_dir = Path(bench_dir)
    missing = [n for n in BENCHMARK_FILES if not (bench_dir / f"{n}.csv").exists()]
    if missing:
        pytest.skip(f"benchmark CSVs missing from {bench_dir}: {missing}")

    from eif.model_io import read_csv

    wins = 0
    details = []
    for name in BENCHMARK_FILES:
        data, labels = read_csv(bench_dir / f"{name}.csv", label_column="label")
        psi = min(256, data.shape[0])
        rocs = {}
        for tag, level in (("full", data.shape[1] - 1), ("axis", 0)):
            forest = build_forest(data, 200, psi, level, seed=1)
            model_path = tmp_path / f"{name}-{tag}.json"
            save_forest(forest, model_path)
            code = cli_run(["bench", "--model", str(model_path),
                            "--data", str(bench_dir / f"{name}.csv"),
                            "--label-column", "label"])
            assert code == 0, f"bench failed on {name} ({tag})"
            rocs[tag] = auroc(score_batch(data, forest), labels)
        wins += rocs["full"] >= rocs["axis"]
        details.append(f"{name}: full {rocs['full']:.3f} axis {rocs['axis']:.3f}")
    report(11, wins >= 4, f"full >= axis on {wins}/5 datasets ({'; '.join(details)})")
