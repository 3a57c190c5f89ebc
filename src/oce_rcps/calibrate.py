"""Threshold selection: OCE-CRC, RCPS, and OCE-RCPS over a finite grid.

OCE-CRC picks the smallest grid threshold where
(n/(n+1)) * empirical objective + B/(n+1) <= alpha, with the objective's
t parameter optimized on a held-out split so it stays independent of the
calibration data: it scans upward to the first pass. RCPS-style rules
demand that an upper confidence bound stays below alpha at the threshold
and every larger one: they scan downward from 1 to the first failure. One
block scan serves both, one decision call per block of grid columns: the
first block holds _FIRST_BLOCK columns and each later one twice as many
as the one before, up to _MAX_BLOCK, so a short scan stops in a narrow
block and a long one makes few calls.
RCPS-style scans decide each column with a one-pass test that is exactly
"UCB <= alpha" and never compute the UCB itself; the test reads each
block's calibration losses from the kept counts one row chunk at a time,
only up to the row where the column is decided. Scans only decide: each
selector hands the outcome its bound, which `bounds()` computes for the
tested columns when they are written out.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bounds import _ucb_at_most, oce_risk_ucb
from .datagen import Dataset, count_pool, loss_reader
from .risk import LossKind, OceCost, bound_B, empirical_objective, losses_at, optimize_t

# grid columns in a scan's first block and in its widest, and the trace
# record of each tested column
_FIRST_BLOCK, _MAX_BLOCK = 16, 64
_TRACE = np.dtype([("lam", "f8"), ("passed", "?"), ("t", "f8")])


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
        # bool is a subclass of int, but true is not a resolution; nor is 2.5
        if type(self.resolution) is not int or self.resolution < 1:
            raise ValueError("resolution must be an integer >= 1")

    @property
    def values(self) -> np.ndarray:
        return np.arange(self.resolution + 1) / self.resolution


@dataclass
class CalibrationOutcome:
    """The selected threshold and the trace behind it: one record per tested
    grid column, in scan order, with fields lam, passed and t. `bounds()`
    gives each column's bound."""

    lambda_hat: float
    feasible: bool
    trace: np.ndarray
    _bound: Callable = field(repr=False)  # the selector's bound at (lams, ts)

    def bounds(self) -> np.ndarray:
        """Each trace row's bound, in trace order, from one call of the
        selector's bound that reads the trace, a run of the grid, in
        ascending order."""
        order = self.trace["lam"].argsort()
        return self._bound(self.trace["lam"][order], self.trace["t"][order])[order.argsort()]


def _blocks(m: int, upward: bool):
    """The (lo, hi) column blocks of a scan over m grid columns, in scan
    order: counted from column 0 upward or from column m - 1 downward, the
    first _FIRST_BLOCK wide and each later one twice as wide as the one
    before, up to _MAX_BLOCK. Width only batches columns: each column's t,
    decision and objective are the same at any width."""
    done, width = 0, _FIRST_BLOCK
    while done < m:
        k = min(width, m - done)
        yield (done, done + k) if upward else (m - done - k, m - done)
        done, width = done + k, min(2 * width, _MAX_BLOCK)


def _scan(cal, opt, grid, cost, loss, fixed_t, decide, upward, bound) -> CalibrationOutcome:
    """Test grid columns in the blocks of `_blocks`, upward to the
    first pass or downward to the first failure, reading each block's losses
    as it is tested; `decide(lams, ts)` maps a block's k grid values and
    their k values of t to the k pass flags, reading the calibration losses
    it needs. The outcome keeps `bound`, which maps the same arguments to
    the k bounds, for its `bounds()`."""
    if len(cal) == 0:
        raise ValueError("calibration set must be nonempty")
    if fixed_t is None and opt is None:
        raise ValueError("opt split required unless t is fixed")
    lams = grid.values
    for split in (cal,) if fixed_t is not None else (cal, opt):
        count_pool(split, lams)  # a no-op for a pool counted on this grid
    tested = []

    def test(lo, hi):
        """Test columns lo..hi-1; True when the scan stops among them."""
        block = np.empty(hi - lo, _TRACE)
        block["lam"] = cols = lams[lo:hi]
        block["t"] = fixed_t if fixed_t is not None else optimize_t(losses_at(opt, loss, cols), cost)
        block["passed"] = decide(cols, block["t"])
        block = block if upward else block[::-1]
        stops = np.flatnonzero(block["passed"] == upward)
        tested.append(block[: stops[0] + 1] if stops.size else block)
        return stops.size > 0

    for lo, hi in _blocks(lams.size, upward):
        try:
            stopped = test(lo, hi)
        except OverflowError:
            # an entropic column out of exp range fails the scan only once
            # the scan reaches it, so retest the block column by column
            cols = range(lo, hi) if upward else range(hi - 1, lo - 1, -1)
            stopped = any(test(j, j + 1) for j in cols)
        if stopped:
            break
    trace = np.concatenate(tested)
    passing = trace["lam"][trace["passed"]]
    return CalibrationOutcome(float(passing.min(initial=1.0)), passing.size > 0, trace, bound)


def select_oce_crc(
    cal: Dataset,
    opt: Dataset | None,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    cost: OceCost,
    loss: LossKind,
    fixed_t: float | None = None,
) -> CalibrationOutcome:
    """Smallest grid threshold passing the conformal average-risk test
    (n/(n+1)) R_hat + B/(n+1) <= alpha: upward scan, stop at the first
    pass. Ignores spec.delta."""
    n = len(cal)

    def objective(lams, ts):
        block = losses_at(cal, loss, lams)
        B = bound_B(cost, ts)  # checks t before the objective can overflow
        return (n / (n + 1.0)) * empirical_objective(block, cost, ts) + B / (n + 1.0)

    at_most_alpha = lambda lams, ts: objective(lams, ts) <= spec.alpha
    return _scan(cal, opt, grid, cost, loss, fixed_t, at_most_alpha, upward=True, bound=objective)


def select_oce_rcps(
    cal: Dataset,
    opt: Dataset | None,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    cost: OceCost,
    loss: LossKind,
    fixed_t: float | None = None,
    bound_method: str = "wsr",
) -> CalibrationOutcome:
    """Smallest grid threshold such that the OCE-risk UCB stays <= alpha
    there and at every larger grid threshold: downward scan, stop at the
    first failure."""

    def ucb_at_most_alpha(lams, ts):
        read = loss_reader(cal, loss, lams)
        return _ucb_at_most(read, len(cal), cost, ts, spec.delta, spec.alpha, bound_method)

    def ucb(lams, ts):
        return oce_risk_ucb(losses_at(cal, loss, lams), cost, ts, spec.delta, method=bound_method)

    return _scan(cal, opt, grid, cost, loss, fixed_t, ucb_at_most_alpha, upward=False, bound=ucb)


def select_rcps(
    cal: Dataset,
    spec: ReliabilitySpec,
    grid: LambdaGrid,
    loss: LossKind,
    bound_method: str = "wsr",
) -> CalibrationOutcome:
    """RCPS on the plain average risk: OCE-RCPS with identity cost, t = 0,
    and no held-out split."""
    return select_oce_rcps(
        cal, None, spec, grid, OceCost.average(), loss, fixed_t=0.0, bound_method=bound_method
    )

