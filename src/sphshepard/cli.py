"""Command-line interface: generate point sets, interpolate files, benchmark.

Subcommands
-----------
generate     write a node/evaluation CSV: `random` (--n, --seed, --function),
             `spiral` (--n, --function) or `geomagnetic-synth` (--n, --seed,
             --noise), each with --out; the flags follow the kind
interpolate  fit a model to a node file and evaluate it on an evaluation file;
             --no-strict keeps a local fit that misses the residual tolerance
benchmark    run an accuracy grid over (function, n, L, seed), write a table
             CSV, a shape-parameter sweep CSV, and a median summary; with
             --nodes, cross-validate a file instead (--holdout, --geo)

Each mode accepts only the flags it reads; any other is a usage error.

Exit codes: 0 success, also where stdout closes early (a command prints
after writing its files; so does --help), 2 usage error (ConfigError), 3
data error, 4 numerical failure.  Parameter precedence: command-line flags >
config file (key=value lines, each key once) > the defaults of ShepardConfig;
a config key the command does not read is a usage error.  ShepardConfig and
InverseMultiquadric check the parameter ranges.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets, metrics, shepard
from .errors import ConfigError, DataError, SolveError
from .kernels import InverseMultiquadric

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GAMMA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95


def _read_config(path) -> dict:
    """Parse a simple UTF-8 key=value config file (blank lines and # comments ok)."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    except UnicodeDecodeError as exc:
        raise datasets.decode_error(path, exc) from None
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"expected key=value, got {raw!r}", lineno, path)
        key, value = (t.strip() for t in line.split("=", 1))
        if key in first_line:
            raise DataError(f"key {key!r} repeats line {first_line[key]}", lineno, path)
        first_line[key], out[key] = lineno, value
    return out


def _resolve_config(args) -> shepard.ShepardConfig:
    """The command's ShepardConfig: flags over config-file values over its defaults.

    A command reads the config keys it has flags for; any other key in the
    file raises ConfigError.
    """
    base = shepard.ShepardConfig()
    values = dict(gamma=base.kernel.gamma, degree=base.degree, nz=base.n_z, nw=base.n_w)
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, text in config.items():  # every value is parsed, even one a flag overrides
        if key not in values or not hasattr(args, key):
            hint = " (it takes L from --degrees)" if key == "degree" else ""
            raise ConfigError(f"config key {key!r} is not read by {args.command}{hint}")
        kind = type(values[key])
        try:
            values[key] = kind(text)
        except ValueError:
            raise ConfigError(f"config value {key} = {text!r} is not a valid {kind.__name__}") from None
    values.update((key, getattr(args, key)) for key in values if getattr(args, key, None) is not None)
    return replace(base, n_z=values["nz"], n_w=values["nw"],
                   kernel=InverseMultiquadric(values["gamma"]), degree=values["degree"],
                   strict=not getattr(args, "no_strict", False))  # only interpolate has the flag


def cmd_generate(args) -> int:
    if args.kind == "spiral":
        data = datasets.spiral_points(args.n)
    elif args.kind == "random":
        data = datasets.random_uniform_sphere(args.n, args.seed)
    else:  # geomagnetic-synth
        data = datasets.synthetic_geomagnetic(args.n, args.seed, noise=args.noise)
    function = getattr(args, "function", None)  # geomagnetic-synth has no --function
    if function is not None:
        data = datasets.PointSet(data.points, datasets.test_function(function, data.points))
    datasets.write_csv(args.out, data)
    print(f"wrote {len(data)} points to {args.out}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    config = _resolve_config(args)
    nodes = datasets.load_csv(args.nodes, geo=args.geo)
    if nodes.values is None:
        raise DataError(f"node file {args.nodes} carries no data values")
    eval_set = datasets.load_csv(args.eval, geo=args.geo)
    try:
        model = shepard.fit(nodes.points, nodes.values, config)
    except SolveError as exc:  # a strict miss; the library's message names its own route
        raise SolveError("no rung of the retry ladder met the residual tolerance; --no-strict "
                         "keeps the lowest-residual attempt", exc.node_index) from None
    predicted = shepard.evaluate(model, eval_set.points)
    # Scored first, so an undefined RRMSE leaves no output file.
    rep = None if eval_set.values is None else metrics.error_report(predicted, eval_set.values)
    datasets.write_csv(args.out, datasets.PointSet(eval_set.points, predicted), value_header="F")
    print(f"wrote {len(eval_set)} interpolated values to {args.out}")
    if rep is not None:
        print(f"rrmse={rep.rrmse:.6e} rmse={rep.rmse:.6e} "
              f"max_abs_error={rep.max_abs_error:.6e} count={rep.count}")
    return EXIT_OK


def _int_list(text: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse list {text!r}")


def _seed(text: str) -> int:
    """The type of --seed: numpy's generators take integers >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {seed}")
    return seed


def _bench_cases(args, n_z, seeds):
    """Yield the benchmark's input sets as (label, seed, s, nodes, values, eval_pts, truth).

    With --nodes, one cross-validation split of the file per seed, holding
    out --holdout rows.  Otherwise one random node set per function x n x
    seed, scored at --s spiral points.  A repeated --n or --function value
    adds no case.
    """
    file_mode = args.nodes is not None
    for name in ("function", "n", "s", "no_gamma_sweep") if file_mode else ("holdout", "geo"):
        if getattr(args, name) is not None:  # argparse cannot see the mode
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} is {'not read' if file_mode else 'read only'} with --nodes")
    if file_mode:
        holdout = 200 if args.holdout is None else args.holdout
        data = datasets.load_csv(args.nodes, geo=args.geo)
        if data.values is None:
            raise DataError(f"node file {args.nodes} carries no data values")
        if not 1 <= holdout < len(data):
            raise ConfigError(f"file benchmarks need 1 <= --holdout < {len(data)} "
                              f"(the rows of {args.nodes}), got {holdout}")
        for seed in seeds:
            train, test = datasets.split_cross_validation(data, holdout, seed)
            yield (Path(args.nodes).stem, seed, holdout,
                   train.points, train.values, test.points, test.values)
        return
    s = 600 if args.s is None else args.s
    n_text = "1000,4000" if args.n is None else args.n
    eval_pts = datasets.spiral_points(s).points
    ns = list(dict.fromkeys(_int_list(n_text)))
    if not ns or min(ns) < n_z:
        raise ConfigError(f"every --n must be >= n_z={n_z}, got {n_text!r}")
    for fid in dict.fromkeys(args.function or ["f1"]):
        truth = datasets.test_function(fid, eval_pts)
        for n in ns:
            for seed in seeds:
                nodes = datasets.random_uniform_sphere(n, seed).points
                yield fid, seed, s, nodes, datasets.test_function(fid, nodes), eval_pts, truth


def _bench_row(case, config) -> dict:
    """One benchmark.csv row: fit the case's nodes, evaluate at its points, score."""
    label, seed, s, nodes, values, eval_pts, truth = case
    t0 = time.perf_counter()
    model = shepard.fit(nodes, values, config)
    t1 = time.perf_counter()
    predicted = shepard.evaluate(model, eval_pts)
    t2 = time.perf_counter()
    rep = metrics.error_report(predicted, truth)
    return dict(function=label, n=len(nodes), L=config.degree, seed=seed,
                gamma=config.kernel.gamma, n_z=config.n_z, n_w=config.n_w,
                s=s, rrmse=rep.rrmse, rmse=rep.rmse, max_abs_error=rep.max_abs_error,
                fit_seconds=t1 - t0, eval_seconds=t2 - t1)


def _summary(rows) -> str:
    """One median-RRMSE table per function: a line per L, a column per n, in row order."""
    lines = []
    for label in dict.fromkeys(r["function"] for r in rows):
        mine = [r for r in rows if r["function"] == label]
        ns = list(dict.fromkeys(r["n"] for r in mine))
        first = mine[0]
        lines.append(f"{label}  (gamma={first['gamma']}, n_z={first['n_z']}, n_w={first['n_w']}, "
                     f"s={first['s']}, seeds={len({r['seed'] for r in mine})}; median RRMSE)")
        lines.append("L \\ n " + "".join(f"{n:>14d}" for n in ns))
        for L in dict.fromkeys(r["L"] for r in mine):
            medians = (statistics.median(r["rrmse"] for r in mine if r["n"] == n and r["L"] == L)
                       for n in ns)
            lines.append(f"{L:>5d} " + "".join(f"{m:>14.4e}" for m in medians))
        lines.append("")
    return "\n".join(lines) + "\n"


def cmd_benchmark(args) -> int:
    base = _resolve_config(args)
    configs = {L: replace(base, degree=L) for L in _int_list(args.degrees)}  # one per distinct L
    if not configs:
        raise ConfigError("--degrees must list at least one L")
    seeds = list(range(args.seed, args.seed + args.seeds))
    if not seeds:
        raise ConfigError("--seeds must be at least 1")
    cases = list(_bench_cases(args, base.n_z, seeds))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = [_bench_row(case, config) for case in cases for config in configs.values()]
    table_path = outdir / "benchmark.csv"
    datasets.write_table(table_path, list(rows[0]), [list(r.values()) for r in rows])
    report = _summary(rows)
    (outdir / "summary.txt").write_text(report, newline="\n")

    if not args.no_gamma_sweep and args.nodes is None:
        sweep_path = outdir / "gamma_sweep.csv"
        case = min(cases, key=lambda c: len(c[3]))  # the first case with the smallest n
        # The extreme shape-parameter corners are too ill-conditioned for the
        # strict residual contract; the sweep reports their best-effort accuracy.
        sweep = [_bench_row(case, replace(config, kernel=InverseMultiquadric(gamma), strict=False))
                 for config in configs.values() for gamma in GAMMA_GRID]
        cols = ["function", "n", "L", "seed", "gamma", "rrmse"]
        datasets.write_table(sweep_path, cols, [[r[c] for c in cols] for r in sweep])
        report += f"wrote shape-parameter sweep to {sweep_path}\n"

    print(f"{report}wrote {len(rows)} benchmark rows to {table_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphshepard",
        description="Local partition-of-unity interpolation of scattered data on the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a point-set CSV")
    p_gen.set_defaults(func=cmd_generate)
    kinds = p_gen.add_subparsers(dest="kind", required=True)
    n_out, seed, function = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    n_out.add_argument("--n", type=int, required=True, help="number of points")
    n_out.add_argument("--out", required=True)
    seed.add_argument("--seed", type=_seed, default=0)
    function.add_argument("--function", choices=["f1", "f2"], default=None,
                          help="attach test-function values to the points")
    kinds.add_parser("random", parents=[n_out, seed, function], help="uniform random points")
    kinds.add_parser("spiral", parents=[n_out, function], help="generalized spiral points")
    p_synth = kinds.add_parser("geomagnetic-synth", parents=[n_out, seed],
                               help="synthetic geomagnetic-style data")
    p_synth.add_argument("--noise", type=float, default=0.0, help="additive noise sigma")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gamma", type=float, default=None, help="kernel shape parameter in (0,1)")
    common.add_argument("--nz", type=int, default=None, help="local fit neighborhood size")
    common.add_argument("--nw", type=int, default=None, help="weight neighborhood size")
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--geo", action="store_true", default=None,
                        help="input files are lat,lon[,value] in degrees")

    p_int = sub.add_parser("interpolate", parents=[common],
                           help="fit a node file and evaluate on a point file")
    p_int.add_argument("--degree", type=int, default=None,
                       help="spherical-harmonic augmentation degree L, -1..2")
    p_int.add_argument("--nodes", required=True, help="node CSV with values")
    p_int.add_argument("--eval", required=True, help="evaluation-point CSV")
    p_int.add_argument("--out", required=True, help="output CSV (x,y,z,F)")
    p_int.add_argument("--no-strict", action="store_true",
                       help="keep the lowest-residual attempt of a local fit that misses the "
                            "residual tolerance, and warn, instead of exiting with code 4")
    p_int.set_defaults(func=cmd_interpolate)

    p_bench = sub.add_parser("benchmark", parents=[common],
                             help="run the accuracy grid and write reports")
    p_bench.add_argument("--function", action="append", choices=["f1", "f2"],
                         help="test function (repeatable; default f1)")
    p_bench.add_argument("--nodes", default=None,
                         help="benchmark a node file via cross-validation instead")
    # The mode-specific flags default to None, so _bench_cases can tell a given one.
    p_bench.add_argument("--holdout", type=int, default=None,
                         help="held-out point count for file benchmarks (default 200)")
    p_bench.add_argument("--n", default=None, help="comma list of node counts (default 1000,4000)")
    p_bench.add_argument("--degrees", default="-1,0,1,2", help="comma list of L values")
    p_bench.add_argument("--s", type=int, default=None,
                         help="spiral evaluation-point count (default 600)")
    p_bench.add_argument("--seed", type=_seed, default=0, help="first seed")
    p_bench.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p_bench.add_argument("--no-gamma-sweep", action="store_true", default=None)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # argparse: 0 after --help, 2 for a usage error
            code = int(exc.code or 0)
        sys.stdout.flush()  # a closed stdout then raises here, not at exit
        return code
    except BrokenPipeError:  # every file is written; stdout's flush at exit then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())
