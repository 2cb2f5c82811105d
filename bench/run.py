"""Seeded benchmark of the eif command line.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from ``--seed`` and writes them under
``.bench_work/``; the timed commands then run in-process through
``eif.cli.run`` as a closed loop with one caller: each command starts after
the previous one returns. With ``--trace 0`` the commands are timed as they
are; with ``--trace 1`` the library calls behind each command are repeated
from here with a span around each, giving per-layer times. Every run checks
the outputs and appends a record to ``--record``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Compare two record files, for example before and after a change:

    python3 bench/run.py --compare OLD.jsonl NEW.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

# Set-up runs again between iterations while it has taken less than
# SETUP_SHARE of the timed loop, and at least SETUP_MIN_REPEATS times, so its
# samples spread over the run as the iterations' do and see the same machine.
SETUP_SHARE = 0.15
SETUP_MIN_REPEATS = 3
MIN_ITERATIONS = 3
CLI_STARTS = 5
TAIL_BEYOND = 10
OUTPUT_WRITERS = ("model_io.write_scores_csv", "model_io.write_grid_csv",
                  "model_io.write_convergence_csv")


# -- statistics --------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least TAIL_BEYOND
    samples beyond it, by nearest rank; None when there are too few."""
    n = len(values)
    p = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    if p <= 50:
        return None
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def describe(values: list[float], unit: str = "s") -> str:
    text = f"n={len(values)} median={statistics.median(values):.6f} {unit}"
    tail = tail_percentile(values)
    if tail is None:
        return text + f" (no tail percentile above the median from {len(values)} samples)"
    return text + f" p{tail[0]}={tail[1]:.6f} {unit}"


# -- one run -----------------------------------------------------------


class Run:
    """Counts operations, checks outputs and keeps the checksum contract:
    every output of a command must match the bytes of its first iteration."""

    def __init__(self, wl, commands):
        self.wl = wl
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.checksums: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {c.name: [] for c in commands}

    def _fail(self, cmd, why: str) -> None:
        self.failed += 1
        print(f"# FAILED {cmd.name}: {why}")

    def _verify(self, cmd) -> None:
        try:
            cmd.check(cmd.out)
            digest = self.wl.sha256_of(cmd.out)
        except (self.wl.CheckFailed, OSError) as e:
            self._fail(cmd, str(e))
            return
        first = self.checksums.setdefault(cmd.name, digest)
        if digest != first:
            self._fail(cmd, f"output sha256 {digest} differs from the first iteration's {first}")

    def iteration(self, tracer: Tracer | None = None) -> float:
        """All commands once, in order; returns their summed wall time."""
        total = 0.0
        for cmd in self.commands:
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.wl.cli.run(cmd.argv)
                else:
                    with tracer.span(cmd.name):
                        cmd.traced(tracer)
                    code = 0
            except Exception:
                traceback.print_exc(file=sys.stdout)
                code = None
            elapsed = time.perf_counter() - start
            total += elapsed
            if code != 0:
                self._fail(cmd, f"exit code {code}")
                continue
            if tracer is None:
                self.samples[cmd.name].append(elapsed)
            self._verify(cmd)
        return total


def machine_facts(wl, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rng_family": wl.RNG_FAMILY,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cli_start_seconds() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(CLI_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "eif.cli", "--version"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        out.append(time.perf_counter() - start)
    return out


def timed_loop(seconds: float, step, min_steps: int) -> list[float]:
    """Closed loop: repeat ``step`` until another one would pass ``seconds``."""
    start = time.perf_counter()
    totals: list[float] = []
    while True:
        totals.append(step())
        elapsed = time.perf_counter() - start
        if len(totals) >= min_steps and elapsed + statistics.median(totals) > seconds:
            return totals


def run_untraced(wl, workload, work: Path, seed: int, seconds: int, record: dict) -> dict:
    setup: list[float] = []

    def set_up():
        start = time.perf_counter()
        inputs = workload.setup(work, seed, NullTracer())
        setup.append(time.perf_counter() - start)
        return inputs

    run = Run(wl, workload.commands(work, seed, set_up()))
    loop_start = time.perf_counter()

    def step() -> float:
        # Set-up rewrites the same input files, so the commands stay valid.
        if sum(setup) < SETUP_SHARE * (time.perf_counter() - loop_start):
            set_up()
        return run.iteration()

    iterations = timed_loop(seconds, step, MIN_ITERATIONS)
    while len(setup) < SETUP_MIN_REPEATS:
        set_up()

    print(f"# setup_s: {describe(setup)}")
    print(f"# iteration_s: {describe(iterations)}")
    for name, samples in run.samples.items():
        print(f"# {name}_s: {describe(samples)}")
    record.update(run=run, commands=run.samples, setup=setup)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "iteration_s": (statistics.median(iterations), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_traced(wl, workload, work: Path, seed: int, seconds: int, record: dict) -> dict:
    starts = cli_start_seconds()
    tracer = Tracer()
    with tracer.span("setup"):
        inputs = workload.setup(work, seed, tracer)
    run = Run(wl, workload.commands(work, seed, inputs))
    untraced: list[float] = []
    traced: list[float] = []

    def pair() -> float:
        untraced.append(run.iteration())
        traced.append(run.iteration(tracer))
        return untraced[-1] + traced[-1]

    timed_loop(seconds, pair, 1)
    with tracer.span("probes"):
        models = workload.probes(work, seed, inputs, tracer)

    # Per root: a command's spans give the median over its traced runs;
    # set-up and probes ran once. A layer's time sums over the roots.
    by_root: dict[str, dict[str, float]] = {}
    for cmd in run.commands:
        runs = [tracer.self_times([r]) for r in tracer.roots({cmd.name})]
        names = {n for times in runs for n in times}
        by_root[cmd.name] = {n: statistics.median(t.get(n, 0.0) for t in runs) for n in names}
    once = tracer.roots({"setup", "probes"})
    for root in once:
        by_root[root["name"]] = tracer.self_times([root])
    layer: dict[str, float] = {}
    for times in by_root.values():
        for name, value in times.items():
            layer[name] = layer.get(name, 0.0) + value
    first_iteration = [tracer.roots({c.name})[0] for c in run.commands]
    counts = tracer.counts(first_iteration + once)
    shape = wl.model_shape(models)
    overhead = statistics.median(traced) - statistics.median(untraced)

    print(f"# cli.start_s: {describe(starts)}")
    print(f"# untraced iteration_s: {describe(untraced)}")
    print(f"# traced iteration_s: {describe(traced)}")
    print(f"# trace overhead: {overhead:.6f} s per iteration")
    print(f"# self time per span; commands: median over {len(traced)} traced runs; set-up, probes: once")
    for root, times in by_root.items():
        print(f"#   {root}: " + ", ".join(f"{n} {v:.6f} s" for n, v in sorted(times.items())))
    print("# self time per span, summed over roots:")
    for name in sorted(layer):
        print(f"#   {name}: {layer[name]:.6f} s")
    for name in sorted(counts):
        print(f"#   {name}: {counts[name]}")
    for name, value in shape.items():
        print(f"#   forest.{name} (saved models {', '.join(p.name for p in models)}): {value}")

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{workload.name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    record.update(run=run, commands={"traced": traced, "untraced": untraced})

    calls = counts["forest.sample_hyperplane.calls"]
    return {
        "cli.start_s": (statistics.median(starts), "s"),
        "synthetic.gen.s": (layer["synthetic.gen"], "s"),
        "model_io.read_csv.s": (layer["model_io.read_csv"], "s"),
        "model_io.read_csv.cells": (counts["model_io.read_csv.cells"], "count"),
        "model_io.save_forest.s": (layer["model_io.save_forest"], "s"),
        "model_io.save_forest.bytes": (counts["model_io.save_forest.bytes"], "bytes"),
        "model_io.load_forest.s": (layer["model_io.load_forest"], "s"),
        "model_io.write_output.s": (sum(layer.get(n, 0.0) for n in OUTPUT_WRITERS), "s"),
        "forest.build_forest.s": (layer["forest.build_forest"], "s"),
        "forest.internal_nodes": (shape["internal_nodes"], "count"),
        "forest.leaves": (shape["leaves"], "count"),
        "forest.mean_leaf_depth": (shape["mean_leaf_depth"], "levels"),
        "forest.score_batch.s": (layer["forest.score_batch"], "s"),
        "forest.score_batch.row_trees": (counts["forest.score_batch.row_trees"], "count"),
        "forest.sample_hyperplane.us_per_call": (layer["forest.sample_hyperplane"] / calls * 1e6, "us"),
        "rng.subsample.s": (layer["rng.subsample"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def run_workload(args) -> int:
    if not (SRC / "eif" / "__init__.py").is_file():
        print(f"error: no eif package sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    facts = machine_facts(wl, args.seed)
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# workload {workload.name}: {workload.why}")
    record: dict = {}
    if args.trace:
        metrics = run_traced(wl, workload, work, args.seed, args.seconds, record)
    else:
        metrics = run_untraced(wl, workload, work, args.seed, args.seconds, record)
    run = record.pop("run")
    print(f"# error_rate: {run.failed}/{run.attempted} = {run.failed / run.attempted:.6f}")
    for name, digest in run.checksums.items():
        print(f"# sha256 {name}: {digest}")

    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {n: u for n, (_, u) in metrics.items()}:
        print(f"error: measured metrics {sorted(metrics)} do not match {SPEC.name}", file=sys.stderr)
        return 3
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record.update(workload=workload.name, trace=args.trace, seconds=args.seconds,
                  machine=facts, checksums=run.checksums, **result)
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# -- compare -----------------------------------------------------------


def _load_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    wins = all(sign * (n - o) < 0 for n in new for o in old)
    if len(old) < 2 or len(new) < 2 or max((o3 - o1) / om, (n3 - n1) / nm) > bound:
        return "better (every run)" if wins else "unresolved"
    change = sign * (nm - om) / om
    if change > bound:
        return "WORSE beyond bound"
    if change < -bound:
        return "better beyond bound"
    return "within bound"


def compare(old_path: Path, new_path: Path) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    old, new = _load_records(old_path), _load_records(new_path)
    flagged = 0
    for name in sorted({r["workload"] for r in old} & {r["workload"] for r in new}):
        for trace, declared in ((0, e2e), (1, layers)):
            o_recs = [r for r in old if r["workload"] == name and r["trace"] == trace]
            n_recs = [r for r in new if r["workload"] == name and r["trace"] == trace]
            if not o_recs or not n_recs:
                continue
            print(f"{name} (trace {trace}: {len(o_recs)} old runs, {len(n_recs)} new runs)")
            rows = [(m, declared[m].get("better", "lower"), declared[m].get("bound"),
                     [r["metrics"][m]["value"] for r in o_recs],
                     [r["metrics"][m]["value"] for r in n_recs]) for m in declared]
            if trace == 0:
                # Each command's per-run median, held to the iteration's bound.
                bound = e2e["iteration_s"]["bound"]
                for cmd in o_recs[0]["commands"]:
                    rows.append((f"{cmd}_s", "lower", bound,
                                 [statistics.median(r["commands"][cmd]) for r in o_recs],
                                 [statistics.median(r["commands"][cmd]) for r in n_recs]))
            for metric, better, bound, o, n in rows:
                o1, om, o3 = quartiles(o)
                n1, nm, n3 = quartiles(n)
                change = (nm - om) / om if om else float("nan")
                line = (f"  {metric:40s} old {om:.6g} [{o1:.6g}, {o3:.6g}]  "
                        f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  {change:+.1%}")
                if bound is not None:
                    verdict = _verdict(o, n, better, bound)
                    flagged += verdict.startswith(("WORSE", "unresolved"))
                    line += f"  bound {bound:.0%}: {verdict}"
                print(line)
            if trace == 0:
                for cmd in o_recs[0]["commands"]:
                    pooled_o = [s for r in o_recs for s in r["commands"][cmd]]
                    pooled_n = [s for r in n_recs for s in r["commands"][cmd]]
                    print(f"  {cmd} pooled: old {describe(pooled_o)}; new {describe(pooled_n)}")
            o_sums = {json.dumps(r["checksums"], sort_keys=True) for r in o_recs}
            n_sums = {json.dumps(r["checksums"], sort_keys=True) for r in n_recs}
            same_seeds = {r["machine"]["seed"] for r in o_recs} == {r["machine"]["seed"] for r in n_recs}
            if same_seeds:
                print(f"  output checksums: {'identical' if o_sums == n_sums else 'DIFFER'}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, default=WORK / "results.jsonl",
                        help="JSON-lines file each run appends its record to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must fit in unsigned 64 bits and --seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
