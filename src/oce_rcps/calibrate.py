"""Threshold selection: OCE-CRC, RCPS, and OCE-RCPS over a finite grid.

OCE-CRC picks the smallest grid threshold where
(n/(n+1)) * empirical objective + B/(n+1) <= alpha, with the objective's
t parameter optimized on a held-out split so it stays independent of the
calibration data. RCPS-style rules instead demand that an upper confidence
bound stays below alpha at the threshold and every larger one; the grid is
scanned descending from 1 with early stop at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import oce_risk_ucb
from .risk import LossKind, OceCost, bound_B, empirical_objective, empirical_oce, losses_at


@dataclass(frozen=True)
class ReliabilitySpec:
    """Target risk tolerance alpha and failure probability delta.

    delta is ignored by OCE-CRC, which only controls the risk on average.
    """

    alpha: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < np.inf:  # NaN fails too
            raise ValueError("alpha must be a finite number >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class LambdaGrid:
    """Thresholds {k/G : k = 0..G}, always including 0 and 1."""

    resolution: int = 1000

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    @property
    def values(self) -> np.ndarray:
        return np.arange(self.resolution + 1) / self.resolution


@dataclass(frozen=True)
class TraceEntry:
    lam: float
    bound: float
    passed: bool


@dataclass
class CalibrationOutcome:
    lambda_hat: float
    t_by_lambda: dict
    feasible: bool
    trace: list


def optimize_t(opt_losses: np.ndarray, cost: OceCost) -> float:
    """Minimizer of t + mean phi(loss - t) over the held-out losses.

    Closed forms: average -> 0; entropic -> log-mean-exp; cvar -> the
    ceil(beta*n)-th order statistic (lowest minimizer).
    """
    opt_losses = np.asarray(opt_losses, dtype=np.float64)
    if opt_losses.size == 0:
        raise ValueError("opt losses must be nonempty")
    if cost.variant == "average":
        return 0.0
    return empirical_oce(opt_losses, cost)[1]


def _t_for_column(opt_col, cost: OceCost, fixed_t: float | None) -> float:
    if fixed_t is not None:
        return fixed_t
    if opt_col is None:
        raise ValueError("opt split required unless t is fixed")
    return optimize_t(opt_col, cost)


def select_oce_crc(
    cal: list,
    opt: list,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    cost: OceCost,
    loss: LossKind,
    fixed_t: float | None = None,
) -> CalibrationOutcome:
    """Smallest grid threshold passing the conformal average-risk test
    (n/(n+1)) R_hat + B/(n+1) <= alpha. Ignores spec.delta."""
    if len(cal) == 0:
        raise ValueError("calibration set must be nonempty")
    lams = grid.values
    cal_losses = losses_at(cal, loss, lams)
    opt_losses = losses_at(opt, loss, lams) if fixed_t is None else None
    n = len(cal)
    trace, t_by_lambda = [], {}
    for j, lam in enumerate(lams):
        t = _t_for_column(None if opt_losses is None else opt_losses[:, j], cost, fixed_t)
        risk = empirical_objective(cal_losses[:, j], cost, t)
        value = (n / (n + 1.0)) * risk + bound_B(cost, t) / (n + 1.0)
        passed = value <= spec.alpha
        t_by_lambda[float(lam)] = t
        trace.append(TraceEntry(float(lam), float(value), passed))
        if passed:
            return CalibrationOutcome(float(lam), t_by_lambda, True, trace)
    return CalibrationOutcome(1.0, t_by_lambda, False, trace)


def select_oce_rcps(
    cal: list,
    opt: list,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    cost: OceCost,
    loss: LossKind,
    fixed_t: float | None = None,
    bound_method: str = "wsr",
) -> CalibrationOutcome:
    """Smallest grid threshold such that the OCE-risk UCB stays <= alpha
    there and at every larger grid threshold (descending scan, early stop)."""
    if len(cal) == 0:
        raise ValueError("calibration set must be nonempty")
    lams = grid.values
    cal_losses = losses_at(cal, loss, lams)
    opt_losses = losses_at(opt, loss, lams) if fixed_t is None else None
    trace, t_by_lambda = [], {}
    last_passing = None
    for j in range(lams.size - 1, -1, -1):
        lam = float(lams[j])
        t = _t_for_column(None if opt_losses is None else opt_losses[:, j], cost, fixed_t)
        ucb = oce_risk_ucb(cal_losses[:, j], cost, t, spec.delta, method=bound_method)
        passed = ucb <= spec.alpha
        t_by_lambda[lam] = t
        trace.append(TraceEntry(lam, float(ucb), passed))
        if not passed:
            break
        last_passing = lam
    trace.reverse()
    if last_passing is None:
        return CalibrationOutcome(1.0, t_by_lambda, False, trace)
    return CalibrationOutcome(last_passing, t_by_lambda, True, trace)


def select_rcps(
    cal: list,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    loss: LossKind,
    bound_method: str = "wsr",
) -> CalibrationOutcome:
    """RCPS on the plain average risk: OCE-RCPS with identity cost, t = 0,
    and no held-out split."""
    return select_oce_rcps(
        cal, [], spec, grid, OceCost.average(), loss, fixed_t=0.0, bound_method=bound_method
    )
