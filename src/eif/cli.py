"""Command-line front end.

One subcommand per pipeline stage: ``synth`` writes a dataset, ``train``
fits and saves a model, ``score`` / ``scoremap`` / ``levelset`` /
``converge`` produce CSV artifacts from a model or dataset, and ``bench``
prints ranking metrics for labeled data.

Exit codes: 0 success, 1 usage error, 2 data or model error, or an
allocation that cannot be made. Diagnostics go to stderr, a library warning
as one ``warning: <message>`` line; results go to the requested files or
stdout. A file is written atomically, so a failed run never leaves a
partial output, with the mode ``open()`` would give it (the umask's for a
new file, the old mode for a replaced one); a write error names the
requested path.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import warnings

from . import __version__
from .errors import EifError
from .evaluation import (
    auprc,
    auroc,
    convergence_curve,
    levelset_stats,
    line_levelset_stats,
    score_map,
)
from .forest import build_forest, build_rotated_forest, score_batch
from .model_io import (
    load_forest,
    read_csv,
    save_forest,
    write_convergence_csv,
    write_dataset_csv,
    write_grid_csv,
    write_scores_csv,
    write_stats_csv,
)
from .synthetic import (
    SINUSOID_AMPLITUDE,
    SINUSOID_NOISE_SIGMA,
    SINUSOID_X_MAX,
    gen_anomalies_uniform_box,
    gen_double_blob,
    gen_gaussian_blob,
    gen_line_levelset,
    gen_sinusoid,
    gen_sphere_levelset,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route through UsageError so
    # run() can return the documented code 1 instead.
    def error(self, message):
        raise UsageError(message)


def _seed_type(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a decimal integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in unsigned 64 bits, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eif", description=__doc__.split("\n")[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", required=True, choices=list(_SYNTH_KINDS))
    p.add_argument("--n", type=int, default=None, help="number of points")
    p.add_argument("--dim", type=int, default=None, help="dimension (blob, sphere)")
    p.add_argument("--mean", type=_float_list, default=None, help="blob center, comma list")
    p.add_argument("--sigma", type=float, default=None, help="blob standard deviation (default 1)")
    p.add_argument("--n-per-blob", type=int, default=None, help="points per cluster (double_blob)")
    p.add_argument("--amplitude", type=float, default=None,
                   help=f"sinusoid amplitude (default {SINUSOID_AMPLITUDE})")
    p.add_argument("--x-max", type=float, default=None,
                   help=f"sinusoid x range (default {SINUSOID_X_MAX:.6f})")
    p.add_argument("--noise-sigma", type=float, default=None,
                   help=f"sinusoid noise (default {SINUSOID_NOISE_SIGMA})")
    p.add_argument("--lo", type=_float_list, default=None, help="box lower corner, comma list")
    p.add_argument("--hi", type=_float_list, default=None, help="box upper corner, comma list")
    p.add_argument("--radius", type=float, default=None, help="sphere radius")
    p.add_argument("--offset", type=float, default=None, help="line offset from center curve")
    p.add_argument("--seed", type=_seed_type, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a forest and save the model")
    p.add_argument("--data", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--psi", type=int, default=None,
                   help="sub-sample size (default: min(256, rows))")
    p.add_argument("--extension", default=None,
                   help="extension level 0..N-1, or 'full' (default: full)")
    p.add_argument("--variant", choices=["extended", "rotated"], default="extended")
    p.add_argument("--seed", type=_seed_type, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a dataset with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("scoremap",
                       help="score a 2-D grid of cell centers (x,y,score CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--ymin", type=float, required=True)
    p.add_argument("--ymax", type=float, required=True)
    p.add_argument("--nx", type=int, default=100)
    p.add_argument("--ny", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scoremap)

    p = sub.add_parser("levelset",
                       help="score mean/variance along spheres or offset curves")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--radii", type=_float_list, default=None, help="sphere radii, comma list")
    group.add_argument("--offsets", type=_float_list, default=None,
                       help="curve offsets, comma list (2-D sinusoid models)")
    p.add_argument("--n-probe", type=int, default=500)
    p.add_argument("--amplitude", type=float, default=None,
                   help=f"center-curve amplitude for --offsets (default {SINUSOID_AMPLITUDE})")
    p.add_argument("--x-max", type=float, default=None,
                   help=f"center-curve x range for --offsets (default {SINUSOID_X_MAX:.6f})")
    p.add_argument("--seed", type=_seed_type, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("converge",
                       help="probe-score mean/variance as the forest grows")
    p.add_argument("--data", required=True)
    p.add_argument("--probe", required=True, help="CSV of probe points")
    p.add_argument("--t-values", type=_int_list, required=True)
    p.add_argument("--psi", type=int, required=True)
    p.add_argument("--extension", required=True, help="extension level 0..N-1, or 'full'")
    p.add_argument("--seed", type=_seed_type, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("bench",
                       help="AUROC/AUPRC of a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", required=True,
                   help="column name (with header) or 0-based index")
    p.set_defaults(func=_cmd_bench)

    return parser


_SYNTH_KINDS = {
    "blob": gen_gaussian_blob,
    "double_blob": gen_double_blob,
    "sinusoid": gen_sinusoid,
    "uniform_box": gen_anomalies_uniform_box,
    "sphere": gen_sphere_levelset,
    "line": gen_line_levelset,
}


def _synth_params(maker) -> dict[str, inspect.Parameter]:
    """A generator's parameters other than ``seed``, in signature order."""
    params = dict(inspect.signature(maker).parameters)
    del params["seed"]
    return params


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# Every parameter some generator takes, each once, in kind then signature
# order: a usage error names the first stray flag in this order.
_SYNTH_FLAGS = list(dict.fromkeys(name for maker in _SYNTH_KINDS.values()
                                  for name in _synth_params(maker)))


def _cmd_synth(args) -> int:
    maker = _SYNTH_KINDS[args.kind]
    params = _synth_params(maker)
    for name in _SYNTH_FLAGS:
        if name not in params and getattr(args, name) is not None:
            raise UsageError(f"{_flag(name)} does not apply to --kind {args.kind}")
    given = {}
    for name, param in params.items():
        value = getattr(args, name)
        if value is not None:
            given[name] = value
        elif param.default is param.empty:
            raise UsageError(f"--kind {args.kind} requires {_flag(name)}")
    if "mean" in given and len(given["mean"]) != given["dim"]:
        raise UsageError("--mean length must equal --dim")
    write_dataset_csv(args.out, maker(**given, seed=args.seed))
    return 0


def _resolve_extension(text: str | None, dimension: int) -> int:
    if text is None or text == "full":
        return dimension - 1
    try:
        level = int(text)
    except ValueError:
        raise UsageError(f"--extension must be an integer or 'full', got {text!r}")
    if not 0 <= level <= dimension - 1:
        raise UsageError(
            f"--extension {level} out of range [0, {dimension - 1}] for {dimension}-D data"
        )
    return level


def _cmd_train(args) -> int:
    if args.trees < 1:
        raise UsageError(f"--trees must be at least 1, got {args.trees}")
    data, _ = read_csv(args.data)
    n, dim = data.shape
    if args.psi is None and n < 2:  # the default psi, min(256, rows), would be below 2
        raise ValueError(f"training needs at least 2 data rows, {args.data} has {n}")
    psi = args.psi if args.psi is not None else min(256, n)
    if args.variant == "rotated":
        if args.extension is not None:
            raise UsageError("--extension does not apply to --variant rotated")
        if dim != 2:
            raise UsageError(f"--variant rotated requires 2-D data, got {dim}-D")
        forest = build_rotated_forest(data, args.trees, psi, args.seed)
    else:
        level = _resolve_extension(args.extension, dim)
        forest = build_forest(data, args.trees, psi, level, args.seed)
    save_forest(forest, args.out)
    return 0


def _cmd_score(args) -> int:
    forest = load_forest(args.model)
    data, _ = read_csv(args.data)
    scores = score_batch(data, forest)
    write_scores_csv(args.out, range(len(scores)), scores)
    return 0


def _cmd_scoremap(args) -> int:
    if not (args.xmin < args.xmax and args.ymin < args.ymax):
        raise UsageError("grid bounds must satisfy xmin < xmax and ymin < ymax")
    if args.nx < 2 or args.ny < 2:
        raise UsageError("--nx and --ny must be at least 2")
    forest = load_forest(args.model)
    grid = score_map(forest, args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny)
    write_grid_csv(args.out, grid)
    return 0


def _cmd_levelset(args) -> int:
    if args.radii is not None:
        for name in ("amplitude", "x_max"):
            if getattr(args, name) is not None:
                raise UsageError(f"{_flag(name)} does not apply to --radii")
    if args.n_probe < 2:
        raise UsageError(f"--n-probe must be at least 2, got {args.n_probe}")
    forest = load_forest(args.model)
    if args.radii is not None:
        stats = levelset_stats(forest, args.radii, args.n_probe, args.seed)
    else:
        amplitude = SINUSOID_AMPLITUDE if args.amplitude is None else args.amplitude
        x_max = SINUSOID_X_MAX if args.x_max is None else args.x_max
        stats = line_levelset_stats(forest, args.offsets, args.n_probe, amplitude, x_max, args.seed)
    write_stats_csv(args.out, stats)
    return 0


def _cmd_converge(args) -> int:
    tv = args.t_values
    if not tv or any(t < 1 for t in tv) or any(b <= a for a, b in zip(tv, tv[1:])):
        raise UsageError(f"--t-values must be strictly increasing positive integers, got {tv}")
    data, _ = read_csv(args.data)
    probe, _ = read_csv(args.probe)
    level = _resolve_extension(args.extension, data.shape[1])
    series = convergence_curve(data, probe, tv, args.psi, level, args.seed)
    write_convergence_csv(args.out, series)
    return 0


def _cmd_bench(args) -> int:
    forest = load_forest(args.model)
    label_column = args.label_column
    if label_column.removeprefix("-").isdecimal():
        label_column = int(label_column)
    data, labels = read_csv(args.data, label_column=label_column)
    scores = score_batch(data, forest)
    print(f"auroc={auroc(scores, labels):.9g} auprc={auprc(scores, labels):.9g}")
    return 0


def run(argv=None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (EifError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's names the allocation; Python's own has no message
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
