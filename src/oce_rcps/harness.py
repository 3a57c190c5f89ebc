"""Monte Carlo trial runner and metrics.

Each trial re-splits a fixed example pool into held-out / calibration /
test parts, runs the configured selector, and scores the selected
threshold on the test part: the empirical OCE risk, the satisfaction
indicator (risk <= alpha), and relative prediction set sizes. Per-trial
seeds derive from (master_seed, trial_index) with the documented mixing
function, so trials parallelize without changing any output.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .bounds import BOUND_METHODS
from .calibrate import (
    CalibrationOutcome,
    LambdaGrid,
    ReliabilitySpec,
    select_oce_crc,
    select_oce_rcps,
    select_rcps,
)
from .datagen import Dataset, SplitSpec, count_pool, split_dataset
from .risk import LOSS_MAX, LossKind, OceCost, empirical_oce, losses_at, relative_set_sizes, spelled_float
from .rng import mix64

METHODS = ("oce-crc", "rcps", "oce-rcps")
PER_LAMBDA = "per-lambda"  # the t-mode of t chosen per lambda; a fixed t is fixed:VALUE


@dataclass(frozen=True)
class TrialConfig:
    method: str
    cost: OceCost
    loss: LossKind
    alpha: float
    delta: float
    grid: LambdaGrid = LambdaGrid()
    split: SplitSpec = SplitSpec(200, 800, 781)
    bound_method: str = "wsr"
    fixed_t: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")
        if self.bound_method not in BOUND_METHODS:
            raise ValueError(f"unknown bound method: {self.bound_method!r}")
        if self.fixed_t is not None and not 0.0 <= self.fixed_t <= LOSS_MAX:  # NaN fails too
            raise ValueError(f"fixed t must lie in [0, {LOSS_MAX:g}]")
        if self.fixed_t is not None and self.method == "rcps":  # its t is always 0
            raise ValueError("method rcps takes no fixed t")
        if self.method == "oce-crc" and self.bound_method != TrialConfig.bound_method:  # it bounds nothing
            raise ValueError(f"method oce-crc takes no bound method {self.bound_method!r}")

    def spec(self) -> ReliabilitySpec:
        return ReliabilitySpec(self.alpha, self.delta)

    def echo(self) -> dict:
        return {
            "method": self.method,
            "risk": self.cost.spelled(),
            "loss": self.loss.variant,
            "alpha": self.alpha,
            "delta": self.delta,
            "grid": self.grid.resolution,
            "split": [self.split.opt_size, self.split.cal_size, self.split.test_size],
            "bound": self.bound_method,
            "t_mode": PER_LAMBDA if self.fixed_t is None else f"fixed:{spelled_float(self.fixed_t)}",
        }


def parse_t_mode(text: str) -> float | None:
    """The fixed t that a t-mode, spelled as `TrialConfig.echo()` writes it, names; None per lambda."""
    if text == PER_LAMBDA:
        return None
    if text.startswith("fixed:"):
        return float(text.removeprefix("fixed:"))
    raise ValueError(f"bad t-mode: {text!r} ({PER_LAMBDA} | fixed:VALUE)")


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    method: str
    lambda_hat: float
    feasible: bool
    test_oce_risk: float
    satisfied: bool
    mean_rel_size: float
    median_rel_size: float


@dataclass
class ExperimentSummary:
    satisfaction_rate: float
    trials: int
    method: str
    mean_test_oce_risk: float
    median_test_oce_risk: float
    median_rel_size: float
    quantiles_test_oce_risk: dict
    quantiles_rel_size: dict
    config: dict | None = None


def select(cal, opt, config: TrialConfig) -> CalibrationOutcome:
    """Run the selector that `config.method` names on one split."""
    spec = config.spec()
    if config.method == "oce-crc":
        return select_oce_crc(
            cal, opt, spec, config.grid, config.cost, config.loss, fixed_t=config.fixed_t
        )
    if config.method == "rcps":
        return select_rcps(cal, spec, config.grid, config.loss, bound_method=config.bound_method)
    return select_oce_rcps(
        cal, opt, spec, config.grid, config.cost, config.loss,
        fixed_t=config.fixed_t, bound_method=config.bound_method,
    )


def run_trial(
    pool: Dataset, config: TrialConfig, trial_index: int, master_seed: int
) -> TrialRecord:
    seed = mix64(master_seed, trial_index)
    opt, cal, test = split_dataset(pool, config.split, seed)
    outcome = select(cal, opt, config)
    losses = losses_at(test, config.loss, [outcome.lambda_hat])[:, 0]
    risk, _ = empirical_oce(losses, config.cost)
    rel = relative_set_sizes(test, outcome.lambda_hat)
    return TrialRecord(
        trial_index=trial_index,
        seed=seed,
        method=config.method,
        lambda_hat=outcome.lambda_hat,
        feasible=outcome.feasible,
        test_oce_risk=float(risk),
        satisfied=bool(risk <= config.alpha),
        mean_rel_size=float(np.mean(rel)),
        median_rel_size=float(np.median(rel)),
    )


_WORKER: dict = {}


def _init_worker(pool, config, master_seed):
    _WORKER.update(pool=pool, config=config, master_seed=master_seed)


def _run_index(i: int) -> TrialRecord:
    return run_trial(_WORKER["pool"], _WORKER["config"], i, _WORKER["master_seed"])


def run_trials(pool: Dataset, config: TrialConfig, trials: int, master_seed: int, jobs: int = 1):
    """Run `trials` independent trials; returns (records, summary).

    jobs > 1 fans trials out to at most one worker process per trial and per
    CPU; results equal the sequential run's because each trial derives its
    own seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    count_pool(pool, config.grid.values)  # before the workers fork, so they inherit the counts
    if jobs <= 1:
        records = [run_trial(pool, config, i, master_seed) for i in range(trials)]
    else:
        # concurrent.futures loads its process module on this first access
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, trials, os.cpu_count() or 1),
            initializer=_init_worker,
            initargs=(pool, config, master_seed),
        ) as ex:
            records = list(ex.map(_run_index, range(trials), chunksize=8))
    return records, summarize(records, config.alpha, config_echo=config.echo())


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def summarize(records, alpha: float, config_echo: dict | None = None) -> ExperimentSummary:
    if not records:
        raise ValueError("records must be nonempty")
    methods = {r.method for r in records}
    if len(methods) > 1:
        raise ValueError(f"mixed methods in records: {sorted(methods)}")
    risks = np.array([r.test_oce_risk for r in records])
    sizes = np.array([r.median_rel_size for r in records])
    satisfied = np.array([r.test_oce_risk <= alpha for r in records])
    quant = lambda v: {f"{q:g}": float(np.quantile(v, q)) for q in _QUANTILES}
    return ExperimentSummary(
        satisfaction_rate=float(np.mean(satisfied)),
        trials=len(records),
        method=records[0].method,
        mean_test_oce_risk=float(np.mean(risks)),
        median_test_oce_risk=float(np.median(risks)),
        median_rel_size=float(np.median(sizes)),
        quantiles_test_oce_risk=quant(risks),
        quantiles_rel_size=quant(sizes),
        config=config_echo,
    )


KDE_GRID_POINTS = 256


def kde_density(values) -> np.ndarray:
    """Gaussian kernel density estimate on an automatic grid of
    KDE_GRID_POINTS points.

    Bandwidth h = 0.9 * min(std, IQR/1.34) * n^(-1/5), with std alone when
    IQR is 0 (R's bw.nrd0), floored at 1e-6 * spread; the grid spans
    [min - 3h, max + 3h]. Returns an array of (x, density) rows whose
    trapezoid integral is 1 within 1%.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise ValueError("kde needs at least 2 values")
    spread = float(values.max() - values.min())
    if spread <= 0.0:
        raise ValueError("kde needs nonzero sample spread")
    sigma = float(np.std(values, ddof=1))
    iqr = float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
    h = 0.9 * (min(sigma, iqr / 1.34) or sigma) * n ** (-0.2)
    h = max(h, 1e-6 * spread)
    xs = np.linspace(values.min() - 3.0 * h, values.max() + 3.0 * h, KDE_GRID_POINTS)
    dev = (xs[:, None] - values[None, :]) / h
    dens = np.exp(-0.5 * dev**2).sum(axis=1) / (n * h * math.sqrt(2.0 * math.pi))
    return np.column_stack([xs, dens])


# ---------------------------------------------------------------------------
# file emission

TRIAL_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))


def _cell(v) -> str:
    if isinstance(v, np.generic):  # np.float64 is a float whose repr names numpy
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(fp, columns, rows) -> None:
    """The CSV format of every file the toolkit writes: a header line of
    `columns`, then one line per row of cells, each spelled by `_cell`."""
    fp.write(",".join(columns) + "\n")
    fp.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def records_to_csv(records, fp) -> None:
    write_csv(fp, TRIAL_CSV_COLUMNS, map(attrgetter(*TRIAL_CSV_COLUMNS), records))


def kde_to_csv(series: np.ndarray, fp) -> None:
    write_csv(fp, ("x", "density"), series)
