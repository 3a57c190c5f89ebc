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
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import LambdaGrid
from .datagen import (
    DatasetParseError,
    GeneratorParams,
    SplitSpec,
    generate_dataset,
    read_dataset_path,
    split_dataset,
    write_dataset,
    write_dataset_path,
)
from .harness import (
    TrialConfig,
    kde_density,
    kde_to_csv,
    records_to_csv,
    run_trials,
    select,
    summary_to_dict,
)
from .risk import LossKind, OceCost, empirical_oce, losses_at, relative_set_sizes

log = logging.getLogger("oce_rcps")


class UsageError(Exception):
    pass


# hard defaults, applied after the config file overlay
DEFAULTS = {
    "m": 100,
    "rho": 0.3,
    "difficulty_a": 2.0,
    "difficulty_b": 2.0,
    "sharpness": 8.0,
    "grid": 1000,
    "bound": "wsr",
    "t_mode": "per-lambda",
    "opt_size": 200,
    "cal_size": 800,
    "test_size": 781,
    "pool_size": 1781,
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


def _parse_t_mode(text: str):
    """-> fixed_t (None means per-lambda optimization)."""
    if text in ("per-lambda", "closed-form"):
        return None
    if text.startswith("fixed:"):
        try:
            t = float(text.split(":", 1)[1])
        except ValueError:
            t = math.nan
        if not 0.0 <= t <= 1.0:  # NaN fails too
            raise UsageError(f"bad t-mode: {text!r} (fixed:VALUE needs a number in [0, 1])")
        return t
    raise UsageError(f"bad t-mode: {text!r} (per-lambda | closed-form | fixed:VALUE)")


def _config_value(action: argparse.Action, value):
    """A config-file value, checked as argparse checks the flag's text."""
    if action.nargs == 0:  # store_true flag
        if not isinstance(value, bool):
            raise UsageError(f"config {action.dest}: expected true or false, got {value!r}")
        return value
    try:
        value = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise UsageError(f"config {action.dest}: invalid {action.type.__name__} value {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config {action.dest}: {value!r} is not one of {', '.join(action.choices)}"
        )
    return value


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Config file fills flags left unset, each value checked by its flag's
    type and choices; unknown keys fail closed; then hard defaults fill
    anything still unset."""
    keys = {k for k in vars(args) if k not in ("func", "command", "config", "parser")}
    if getattr(args, "config", None):
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


def _gen_params(args) -> GeneratorParams:
    return GeneratorParams(
        m=args.m, rho=args.rho,
        difficulty_a=args.difficulty_a, difficulty_b=args.difficulty_b,
        sharpness=args.sharpness,
    )


def _add_gen_flags(p):
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--difficulty-a", type=float, default=None)
    p.add_argument("--difficulty-b", type=float, default=None)
    p.add_argument("--sharpness", type=float, default=None)


def _add_run_flags(p):
    p.add_argument("--method", choices=("oce-crc", "rcps", "oce-rcps"), default=None)
    p.add_argument("--risk", default=None, help="average | entropic:B | cvar:B")
    p.add_argument("--loss", choices=("fnr", "miscoverage"), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", type=int, default=None, help="grid resolution G (default 1000)")
    p.add_argument("--bound", choices=("wsr", "hoeffding"), default=None)
    p.add_argument("--t-mode", default=None, help="per-lambda | closed-form | fixed:VALUE")


def _cmd_generate(args):
    _require(args, "count", "seed", "output")
    data = generate_dataset(_gen_params(args), args.count, args.seed)
    if args.output == "-":
        write_dataset(data, sys.stdout)
    else:
        write_dataset_path(data, args.output)
        log.info("wrote %d examples to %s", len(data), args.output)
    return 0


def _cmd_calibrate(args):
    config = _trial_config(args, test_size=0)
    _require(args, "data", "output_dir")
    data = read_dataset_path(args.data)
    opt, cal, _ = split_dataset(data, config.split, args.seed)
    outcome = select(cal, opt, config)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "lambda_hat": outcome.lambda_hat,
        "feasible": outcome.feasible,
        "t_by_lambda": {repr(k): v for k, v in outcome.t_by_lambda.items()},
        "method": config.method,
        "risk": config.cost.spelled(),
        "loss": config.loss.variant,
        "alpha": config.alpha,
        "delta": config.delta,
        "grid": config.grid.resolution,
        "toolkit_version": __version__,
    }
    (outdir / "calibration.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(outdir / "trace.csv", "w") as fp:
        fp.write("lambda,bound,passed\n")
        for e in outcome.trace:
            fp.write(f"{e.lam!r},{e.bound!r},{'true' if e.passed else 'false'}\n")
    if not outcome.feasible:
        log.info("infeasible at alpha=%g; lambda_hat pinned to 1", args.alpha)
        if args.strict:
            return 1
    return 0


def _cmd_evaluate(args):
    _require(args, "data", "risk", "loss", "lam")
    if not 0.0 <= args.lam <= 1.0:  # NaN fails too
        raise UsageError("--lambda must lie in [0, 1]")
    if args.alpha is not None and not 0.0 <= args.alpha < math.inf:
        raise UsageError("--alpha must be a finite number >= 0")
    try:
        cost = OceCost.parse(args.risk)
        loss = LossKind(args.loss)
    except ValueError as e:
        raise UsageError(str(e))
    data = read_dataset_path(args.data)
    losses = losses_at(data.examples, loss, [args.lam])[:, 0]
    value, t_star = empirical_oce(losses, cost)
    rel = relative_set_sizes(data.examples, args.lam)
    payload = {
        "lambda": args.lam,
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
    if args.output and args.output != "-":
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_pool(args):
    if args.pool:
        return read_dataset_path(args.pool)
    log.info("generating pool of %d examples (seed %d)", args.pool_size, args.pool_seed)
    return generate_dataset(_gen_params(args), args.pool_size, args.pool_seed)


def _trial_config(args, test_size: int) -> TrialConfig:
    """The run flags as a TrialConfig; calibrate passes test_size 0."""
    _require(args, "method", "risk", "loss", "alpha", "delta")
    try:
        cost = OceCost.parse(args.risk)
        loss = LossKind(args.loss)
        grid = LambdaGrid(args.grid)
    except ValueError as e:
        raise UsageError(str(e))
    fixed_t = _parse_t_mode(args.t_mode)
    return TrialConfig(
        method=args.method, cost=cost, loss=loss,
        alpha=args.alpha, delta=args.delta, grid=grid,
        split=SplitSpec(args.opt_size, args.cal_size, test_size),
        bound_method=args.bound, fixed_t=fixed_t,
    )


def _emit_trials(outdir: Path, records, summary, no_timestamp: bool):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "trials.csv", "w") as fp:
        records_to_csv(records, fp)
    payload = summary_to_dict(summary)
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
                fp.write("value\n")
                fp.writelines(f"{v!r}\n" for v in values)
            continue
        with open(outdir / f"kde_{name}.csv", "w") as fp:
            kde_to_csv(series, fp)


def _require_trials(args):
    _require(args, "trials", "seed", "output_dir")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")


def _cmd_trials(args):
    _require_trials(args)
    config = _trial_config(args, args.test_size)
    pool = _load_pool(args)
    records, summary = run_trials(pool, config, args.trials, args.seed, jobs=args.jobs)
    _emit_trials(Path(args.output_dir), records, summary, args.no_timestamp)
    log.info("satisfaction_rate=%.4f", summary.satisfaction_rate)
    return 0


def _cmd_sweep(args):
    _require(args, "vary", "values")
    _require_trials(args)
    values = [float(v) for v in str(args.values).split(",") if v.strip()]
    if not values:
        raise UsageError("--values must list at least one number")
    if args.vary == "delta":
        args.delta = values[0]
    else:
        args.alpha = values[0]
    _trial_config(args, args.test_size)  # validate the shared part before the long run
    pool = _load_pool(args)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        if args.vary == "delta":
            args.delta = value
        else:
            args.alpha = value
        config = _trial_config(args, args.test_size)
        records, summary = run_trials(pool, config, args.trials, args.seed, jobs=args.jobs)
        sub = outdir / f"{args.vary}_{value:g}"
        _emit_trials(sub, records, summary, args.no_timestamp)
        rows.append((value, summary))
    with open(outdir / "sweep_summary.csv", "w") as fp:
        fp.write(f"{args.vary},satisfaction_rate,mean_test_oce_risk,"
                 "median_test_oce_risk,median_rel_size,trials\n")
        for value, s in rows:
            fp.write(f"{value!r},{s.satisfaction_rate!r},{s.mean_test_oce_risk!r},"
                     f"{s.median_test_oce_risk!r},{s.median_rel_size!r},{s.trials}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oce-rcps",
        description="Prediction-set threshold calibration with OCE risk control.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic dataset as JSONL")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    _add_gen_flags(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="path or - for stdout")
    p.set_defaults(func=_cmd_generate, parser=p)

    p = sub.add_parser("calibrate", help="select a threshold on one dataset")
    p.add_argument("--config", default=None)
    _add_run_flags(p)
    p.add_argument("--data", default=None, help="dataset JSONL")
    p.add_argument("--opt-size", type=int, default=None)
    p.add_argument("--cal-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="split seed (default 0)")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--strict", action="store_true", default=None,
                   help="exit 1 when infeasible")
    p.set_defaults(func=_cmd_calibrate, parser=p)

    p = sub.add_parser("evaluate", help="test metrics for a given threshold")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--risk", default=None)
    p.add_argument("--loss", choices=("fnr", "miscoverage"), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--output", default=None, help="path or - for stdout")
    p.set_defaults(func=_cmd_evaluate, parser=p)

    for name, fn in (("trials", _cmd_trials), ("sweep", _cmd_sweep)):
        p = sub.add_parser(name, help=f"Monte Carlo {name}")
        p.add_argument("--config", default=None)
        _add_run_flags(p)
        _add_gen_flags(p)
        p.add_argument("--pool", default=None, help="dataset JSONL; generated when absent")
        p.add_argument("--pool-size", type=int, default=None)
        p.add_argument("--pool-seed", type=int, default=None)
        p.add_argument("--opt-size", type=int, default=None)
        p.add_argument("--cal-size", type=int, default=None)
        p.add_argument("--test-size", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--no-timestamp", action="store_true", default=None)
        p.add_argument("--output-dir", default=None)
        if name == "sweep":
            p.add_argument("--vary", choices=("delta", "alpha"), default=None)
            p.add_argument("--values", default=None, help="comma-separated grid")
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
    except (DatasetParseError, FileNotFoundError, ValueError, OverflowError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
