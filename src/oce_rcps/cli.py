"""Command-line front end.

Subcommands: generate, calibrate, evaluate, trials, sweep. Every flag has
a config-file equivalent (JSON, keys = flag names with dashes replaced by
underscores); explicit flags override the file, unknown config keys and
values the flag itself would reject are usage errors. Exit codes: 0
success, 1 infeasible under --strict, 2 usage error, 3 data error.
Diagnostics go to stderr under OCE_RCPS_LOG (error|info|debug); data
outputs go to files or stdout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BOUND_METHODS
from .calibrate import LambdaGrid
from .datagen import (
    GeneratorParams,
    SplitSpec,
    generate_dataset,
    read_dataset_path,
    split_dataset,
    write_dataset,
    write_dataset_path,
)
from .harness import (
    METHODS,
    PER_LAMBDA,
    TrialConfig,
    kde_density,
    kde_to_csv,
    parse_t_mode,
    records_to_csv,
    run_trials,
    select,
    write_csv,
)
from .risk import LOSS_VARIANTS, LossKind, OceCost, empirical_oce, losses_at, relative_set_sizes, spelled_float

log = logging.getLogger("oce_rcps")


class UsageError(Exception):
    pass


# hard defaults, applied after the config file overlay; most are the library's
DEFAULTS = {
    **dataclasses.asdict(GeneratorParams()),
    "grid": LambdaGrid.resolution,
    "bound": TrialConfig.bound_method,
    "t_mode": PER_LAMBDA,
    "opt_size": TrialConfig.split.opt_size,
    "cal_size": TrialConfig.split.cal_size,
    "test_size": TrialConfig.split.test_size,
    "pool_size": TrialConfig.split.total,
    "pool_seed": 20240501,
    "jobs": 1,
    "strict": False,
    "no_timestamp": False,
    "seed": 0,
}


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("OCE_RCPS_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _config_value(action: argparse.Action, value):
    """A config-file value or a --values entry, checked as argparse checks
    the flag's text."""
    if action.nargs == 0:  # store_true flag
        if not isinstance(value, bool):
            raise UsageError(f"{action.dest}: expected true or false, got {value!r}")
        return value
    try:
        value = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise UsageError(f"{action.dest}: invalid {action.type.__name__} value {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"{action.dest}: {value!r} is not one of {', '.join(action.choices)}"
        )
    return value


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Config file fills flags left unset, each value checked by its flag's
    type and choices; unknown keys fail closed; then hard defaults fill
    anything still unset."""
    keys = {k for k in vars(args) if k not in ("func", "command", "config", "parser")}
    if args.config is not None:
        try:
            with open(args.config) as fp:
                conf = json.load(fp)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config {args.config}: {e}")
        if not isinstance(conf, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(conf) - keys
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        actions = {a.dest: a for a in args.parser._actions}
        for key, value in conf.items():
            if getattr(args, key) is None and value is not None:
                setattr(args, key, _config_value(actions[key], value))
    for key in keys:
        if getattr(args, key) is None and key in DEFAULTS:
            setattr(args, key, DEFAULTS[key])
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _generate(args, count: int, seed: int):
    """The dataset the generator flags describe; flags GeneratorParams
    rejects, or whose Beta shapes give no variate, are usage errors."""
    try:
        params = GeneratorParams(
            m=args.m, rho=args.rho,
            difficulty_a=args.difficulty_a, difficulty_b=args.difficulty_b,
            sharpness=args.sharpness,
        )
        return generate_dataset(params, count, seed)
    except ValueError as e:
        raise UsageError(str(e))


def _cmd_generate(args):
    _require(args, "count", "output")
    data = _generate(args, args.count, args.seed)
    if args.output == "-":
        write_dataset(data, sys.stdout)
    else:
        write_dataset_path(data, args.output)
        log.info("wrote %d examples to %s", len(data), args.output)
    return 0


def _cmd_calibrate(args):
    config = _trial_config(args, test_size=None)
    _require(args, "data", "output_dir")
    data = read_dataset_path(args.data)
    opt, cal, _ = split_dataset(data, config.split, args.seed)
    outcome = select(cal, opt, config)
    lams, passed, ts = (outcome.trace[name].tolist() for name in ("lam", "passed", "t"))
    os.makedirs(args.output_dir, exist_ok=True)
    outdir = Path(args.output_dir)
    echo = config.echo()
    payload = {
        "lambda_hat": outcome.lambda_hat,
        "feasible": outcome.feasible,
        "t_by_lambda": dict(zip(map(repr, lams), ts)),
        **{key: echo[key] for key in ("method", "risk", "loss", "alpha", "delta", "grid")},
        "toolkit_version": __version__,
    }
    (outdir / "calibration.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(outdir / "trace.csv", "w") as fp:
        write_csv(fp, ("lambda", "bound", "passed"), sorted(zip(lams, outcome.bounds(), passed)))
    if not outcome.feasible:
        log.info("infeasible at alpha=%g; lambda_hat pinned to 1", args.alpha)
        if args.strict:
            return 1
    return 0


def _cmd_evaluate(args):
    _require(args, "data", "risk", "loss", "lambda")
    lam = getattr(args, "lambda")  # a Python keyword, so not an attribute name
    if not 0.0 <= lam <= 1.0:  # NaN fails too
        raise UsageError("--lambda must lie in [0, 1]")
    if args.alpha is not None and not 0.0 <= args.alpha < math.inf:
        raise UsageError("--alpha must be a finite number >= 0")
    try:
        cost = OceCost.parse(args.risk)
        loss = LossKind(args.loss)
    except ValueError as e:
        raise UsageError(str(e))
    data = read_dataset_path(args.data)
    losses = losses_at(data, loss, [lam])[:, 0]
    value, t_star = empirical_oce(losses, cost)
    rel = relative_set_sizes(data, lam)
    payload = {
        "lambda": lam,
        "risk": cost.spelled(),
        "loss": loss.variant,
        "n": len(data),
        "test_oce_risk": value,
        "t_star": t_star,
        "mean_rel_size": float(rel.mean()),
        "median_rel_size": float(np.median(rel)),
    }
    if args.alpha is not None:
        payload["alpha"] = args.alpha
        payload["satisfied"] = bool(value <= args.alpha)
    text = json.dumps(payload, indent=2) + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fp:
            fp.write(text)
    return 0


def _load_pool(args):
    if args.pool is not None:
        return read_dataset_path(args.pool)
    if args.pool_size < 1:
        raise UsageError("--pool-size must be >= 1")
    log.info("generating pool of %d examples (seed %d)", args.pool_size, args.pool_seed)
    return _generate(args, args.pool_size, args.pool_seed)


def _trial_config(args, test_size: int | None) -> TrialConfig:
    """The run flags as a TrialConfig; calibrate, which has no test split,
    passes test_size None."""
    _require(args, "method", "risk", "loss", "alpha", "delta")
    try:
        config = TrialConfig(
            method=args.method, cost=OceCost.parse(args.risk), loss=LossKind(args.loss),
            alpha=args.alpha, delta=args.delta, grid=LambdaGrid(args.grid),
            split=SplitSpec(args.opt_size, args.cal_size, test_size or 0),
            bound_method=args.bound, fixed_t=parse_t_mode(args.t_mode),
        )
    except ValueError as e:
        raise UsageError(str(e))
    # an empty split that the run reads would fail only inside the first trial
    if config.split.cal_size == 0:
        raise UsageError("--cal-size must be >= 1")
    if test_size == 0:
        raise UsageError("--test-size must be >= 1")
    if config.split.opt_size == 0 and config.fixed_t is None and args.method != "rcps":
        raise UsageError("--opt-size must be >= 1 unless --method is rcps or --t-mode is fixed")
    return config


def _emit_trials(outdir, records, summary, no_timestamp: bool):
    os.makedirs(outdir, exist_ok=True)
    outdir = Path(outdir)
    with open(outdir / "trials.csv", "w") as fp:
        records_to_csv(records, fp)
    payload = dataclasses.asdict(summary)
    payload["toolkit_version"] = __version__
    if not no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    (outdir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    for name, values in (
        ("risk", [r.test_oce_risk for r in records]),
        ("rel_size", [r.median_rel_size for r in records]),
    ):
        try:
            series = kde_density(values)
        except ValueError as e:
            log.info("kde for %s unavailable (%s); emitting raw values", name, e)
            with open(outdir / f"raw_{name}.csv", "w") as fp:
                write_csv(fp, ("value",), zip(values))
            continue
        with open(outdir / f"kde_{name}.csv", "w") as fp:
            kde_to_csv(series, fp)


def _require_trials(args):
    _require(args, "trials", "output_dir")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")


def _cmd_trials(args):
    _require_trials(args)
    config = _trial_config(args, args.test_size)
    pool = _load_pool(args)
    os.makedirs(args.output_dir, exist_ok=True)
    records, summary = run_trials(pool, config, args.trials, args.seed, jobs=args.jobs)
    _emit_trials(args.output_dir, records, summary, args.no_timestamp)
    log.info("satisfaction_rate=%.4f", summary.satisfaction_rate)
    return 0


def _cmd_sweep(args):
    _require(args, "vary", "values")
    _require_trials(args)
    action = next(a for a in args.parser._actions if a.dest == args.vary)
    values = [_config_value(action, v) for v in str(args.values).split(",") if v.strip()]
    if not values:
        raise UsageError("--values must list at least one number")
    if len(set(values)) < len(values):  # by value, so -0 and 0 are one number
        raise UsageError("--values must not list one number twice")
    configs = []
    for value in values:  # validate every grid point before the long run
        setattr(args, args.vary, value)
        configs.append(_trial_config(args, args.test_size))
    pool = _load_pool(args)
    os.makedirs(args.output_dir, exist_ok=True)
    outdir = Path(args.output_dir)
    columns = (args.vary, "satisfaction_rate", "mean_test_oce_risk",
               "median_test_oce_risk", "median_rel_size", "trials")
    rows = []
    for value, config in zip(values, configs):
        records, summary = run_trials(pool, config, args.trials, args.seed, jobs=args.jobs)
        _emit_trials(outdir / f"{args.vary}_{spelled_float(value)}", records, summary,
                     args.no_timestamp)
        rows.append([value] + [getattr(summary, c) for c in columns[1:]])
    with open(outdir / "sweep_summary.csv", "w") as fp:
        write_csv(fp, columns, rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oce-rcps",
        description="Prediction-set threshold calibration with OCE risk control.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every flag defaults to None, so the config file and then DEFAULTS fill
    # what the command line leaves unset; a flag that several subcommands
    # share is declared once, on a parent parser
    common, scored, run, data, output, gen = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    common.add_argument("--config", help="JSON config file; flags override it")
    scored.add_argument("--risk", help="average | entropic:B | cvar:B")
    scored.add_argument("--loss", choices=LOSS_VARIANTS)
    scored.add_argument("--alpha", type=float, help="risk tolerance: a finite number >= 0")
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--delta", type=float, help="failure probability, in (0, 1)")
    run.add_argument("--grid", type=int,
                     help=f"grid resolution G (default {LambdaGrid.resolution})")
    run.add_argument("--bound", choices=BOUND_METHODS)
    run.add_argument("--t-mode", help=f"{PER_LAMBDA} | fixed:VALUE")
    run.add_argument("--opt-size", type=int)
    run.add_argument("--cal-size", type=int)
    run.add_argument("--output-dir")
    data.add_argument("--data", help="dataset JSONL")
    output.add_argument("--output", help="path or - for stdout")
    gen.add_argument("--m", type=int)
    gen.add_argument("--rho", type=float)
    gen.add_argument("--difficulty-a", type=float)
    gen.add_argument("--difficulty-b", type=float)
    gen.add_argument("--sharpness", type=float)

    p = sub.add_parser("generate", parents=[common, gen, output],
                       help="emit a synthetic dataset as JSONL")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, help="generation seed (default 0)")
    p.set_defaults(func=_cmd_generate, parser=p)

    p = sub.add_parser("calibrate", parents=[common, scored, run, data],
                       help="select a threshold on one dataset")
    p.add_argument("--seed", type=int, help="split seed (default 0)")
    p.add_argument("--strict", action="store_true", default=None, help="exit 1 when infeasible")
    p.set_defaults(func=_cmd_calibrate, parser=p)

    p = sub.add_parser("evaluate", parents=[common, scored, data, output],
                       help="test metrics for a given threshold")
    p.add_argument("--lambda", type=float)
    p.set_defaults(func=_cmd_evaluate, parser=p)

    for name, fn in (("trials", _cmd_trials), ("sweep", _cmd_sweep)):
        p = sub.add_parser(name, parents=[common, scored, run, gen], help=f"Monte Carlo {name}")
        p.add_argument("--pool", help="dataset JSONL; generated when absent")
        p.add_argument("--pool-size", type=int)
        p.add_argument("--pool-seed", type=int)
        p.add_argument("--test-size", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--jobs", type=int)
        p.add_argument("--no-timestamp", action="store_true", default=None)
        if name == "sweep":
            p.add_argument("--vary", choices=("delta", "alpha"))
            p.add_argument("--values", help="comma-separated grid")
        p.set_defaults(func=fn, parser=p)
    return parser


def run_cli(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError, MemoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
