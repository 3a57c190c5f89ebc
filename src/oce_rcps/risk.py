"""Loss matrices and set sizes over a dataset, and the OCE risk family.

A prediction set at threshold parameter ``lam`` keeps every element whose
score is at least ``1 - lam``. Losses (miscoverage, FNR) are nonincreasing
in ``lam``; `datagen.loss_reader` defines both from the kept counts of
missed truth elements, and `losses_at` reads them as a matrix. The OCE
risk of a loss distribution is ``inf_t { t + E[phi(loss - t)] }`` for a
nondecreasing convex cost ``phi`` with ``phi(0) = 0``; the average,
entropic, and CVaR risks are the shipped instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import loss_reader, member_counts

LOSS_MAX = 1.0

# exp(x) overflows float64 just above x = 709.78
_EXP_LIMIT = 709.0

# entropic beta below which the empirical OCE uses log1p/expm1: above it
# the plain log-mean-exp is within ~1e-12 and keeps its established bits
_SMALL_BETA = 1e-4

# every entropic beta is raised to this floor so beta * u cannot underflow;
# phi grows with beta, so a risk or bound can only rise, by < 1e-100 on [0, 1]
_BETA_FLOOR = 1e-100


# the loss variants, in the order the CLI lists them
LOSS_VARIANTS = ("fnr", "miscoverage")


@dataclass(frozen=True)
class LossKind:
    """Loss variant; both shipped losses are bounded by LOSS_MAX = 1."""

    variant: str  # "miscoverage" | "fnr"

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant: {self.variant!r}")


@dataclass(frozen=True)
class OceCost:
    """Cost function phi of the OCE family, with its parameter beta.

    variant "average":  phi(u) = u
    variant "entropic": phi(u) = (exp(beta*u) - 1)/beta,  finite beta > 0
    variant "cvar":     phi(u) = max(u, 0)/(1 - beta),    beta in [0, 1)
    """

    variant: str
    beta: float | None = None

    def __post_init__(self):
        if self.variant == "average":
            if self.beta is not None:
                raise ValueError("average cost takes no beta")
        elif self.variant == "entropic":
            if self.beta is None or not 0.0 < self.beta < math.inf:  # NaN fails too
                raise ValueError("entropic cost requires a finite beta > 0")
        elif self.variant == "cvar":
            if self.beta is None or not (0.0 <= self.beta < 1.0):
                raise ValueError("cvar cost requires beta in [0, 1)")
        else:
            raise ValueError(f"unknown cost variant: {self.variant!r}")

    @staticmethod
    def average() -> "OceCost":
        return OceCost("average")

    @staticmethod
    def entropic(beta: float) -> "OceCost":
        return OceCost("entropic", beta)

    @staticmethod
    def cvar(beta: float) -> "OceCost":
        return OceCost("cvar", beta)

    @staticmethod
    def parse(text: str) -> "OceCost":
        """Parse 'average', 'entropic:B', or 'cvar:B'."""
        name, sep, param = text.partition(":")
        if name == "average":
            if sep:
                raise ValueError("average takes no parameter")
            return OceCost.average()
        if name in ("entropic", "cvar"):
            if not sep:
                raise ValueError(f"{name} requires a parameter, e.g. {name}:0.9")
            return OceCost(name, float(param))
        raise ValueError(f"unknown risk spec: {text!r}")

    def spelled(self) -> str:
        if self.variant == "average":
            return "average"
        return f"{self.variant}:{spelled_float(self.beta)}"


def spelled_float(x: float) -> str:
    """x as the run files spell a beta, a fixed t or a swept value: its
    shortest round-trip repr without a trailing ".0", so 3.0 is "3" and
    0.9999999 stays so."""
    return repr(float(x)).removesuffix(".0")


def phi(cost: OceCost, u) -> np.ndarray:
    """phi elementwise over an array u, in numpy's kernels; the entropic cost
    raises OverflowError when an entry is past the exp range."""
    u = np.asarray(u, dtype=np.float64)
    if cost.variant == "average":
        return u
    if cost.variant == "cvar":
        return np.maximum(u, 0.0) / (1.0 - cost.beta)
    beta = max(cost.beta, _BETA_FLOOR)
    bu = beta * u
    if np.any(bu > _EXP_LIMIT):
        raise OverflowError(
            f"entropic cost overflow: beta*u = {bu.max():.3g} exceeds exp limit"
        )
    return np.expm1(bu) / beta


def transformed_losses(cost: OceCost, t: float, losses: np.ndarray) -> np.ndarray:
    """t + phi(loss - t) per loss; nondecreasing in loss for fixed t. The
    average cost returns a copy of the losses, exact whatever t is."""
    losses = np.asarray(losses, dtype=np.float64)
    if cost.variant == "average":
        return losses.copy()
    return t + phi(cost, losses - t)


def bound_B(cost: OceCost, t):
    """t + phi(LOSS_MAX - t), elementwise in t: dominates the transformed
    loss on [0, LOSS_MAX]. Every t a selector tests is checked here."""
    t = np.asarray(t, dtype=np.float64)
    if not ((t >= 0.0) & (t <= LOSS_MAX)).all():  # NaN fails too
        raise ValueError("t must lie in [0, LOSS_MAX]")
    return t + phi(cost, LOSS_MAX - t)


def _loss_rows(losses) -> np.ndarray:
    """A public (n,) vector or (n, k) block of losses as (k, n) float64
    rows, one contiguous row per column; a vector is the block with k = 1."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("losses must be nonempty")
    return np.ascontiguousarray(np.atleast_2d(losses.T))


def _loss_rows_and_ts(losses, t) -> tuple[np.ndarray, np.ndarray]:
    """`_loss_rows(losses)` and t as k float64 values, one per row: a scalar
    t for a vector, one t per column for a block; the losses are checked
    first."""
    rows = _loss_rows(losses)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if ts.shape != rows.shape[:1]:
        raise ValueError("need one t per loss column")
    return rows, ts


def empirical_objective(losses: np.ndarray, cost: OceCost, t) -> float | np.ndarray:
    """t + mean phi(loss_i - t), convex in t: a float for an (n,) vector and
    a scalar t, k values for an (n, k) block with one t per column. A vector
    is the block with k = 1; block means run along contiguous rows, bit-equal
    to each column's own mean."""
    rows, ts = _loss_rows_and_ts(losses, t)
    out = transformed_losses(cost, ts[:, None], rows).mean(axis=1)
    return out if np.ndim(losses) == 2 else float(out[0])


def optimize_t(opt_losses: np.ndarray, cost: OceCost) -> float | np.ndarray:
    """Minimizer of t + mean phi(loss - t) over the held-out losses, in closed
    form: average -> 0; entropic -> log-mean-exp; cvar -> the ceil(beta*n)-th
    order statistic (lowest minimizer). A float for an (n,) vector, k values
    for an (n, k) block, each bit-equal to the call on its column alone:
    the block is laid out as contiguous (k, n) rows, so each row's
    partition, max, mean and log run as for the column alone."""
    rows = _loss_rows(opt_losses)
    k, n = rows.shape
    if cost.variant == "average":
        ts = np.zeros(k)
    elif cost.variant == "cvar":
        r = max(1, math.ceil(cost.beta * n))
        ts = np.partition(rows, r - 1, axis=1)[:, r - 1]
    else:
        # max-shifted log-mean-exp keeps exp in range, row by row
        hi = rows.max(axis=1)
        beta = max(cost.beta, _BETA_FLOOR)
        if beta >= _SMALL_BETA:
            log, mean = np.log, np.exp(beta * (rows - hi[:, None])).mean(axis=1)
        else:
            # the mean of exp rounds toward 1 here, losing ~1e-16/beta;
            # log1p and expm1 keep those digits. The value lies between the
            # mean and the mean + beta * (max - min)^2 / 8 (Hoeffding's lemma).
            log, mean = np.log1p, np.expm1(beta * (rows - hi[:, None])).mean(axis=1)
        ts = hi + log(mean) / beta
    return ts if np.ndim(opt_losses) == 2 else float(ts[0])


def empirical_oce(losses: np.ndarray, cost: OceCost) -> tuple[float, float]:
    """Empirical OCE risk and its minimizing t from `optimize_t`.

    average:  (mean, 0)
    entropic: the log-mean-exp, which is both the value and the minimizer
    cvar:     t + mean(max(loss - t, 0)) / (1 - beta)
    """
    losses = np.asarray(losses, dtype=np.float64)
    t = optimize_t(losses, cost)
    if cost.variant == "average":
        return float(np.mean(losses)), t
    if cost.variant == "entropic":
        return t, t
    return t + float(np.mean(np.maximum(losses - t, 0.0))) / (1.0 - cost.beta), t


# ---------------------------------------------------------------------------
# Loss evaluation over threshold grids (the per-example reference these are
# tested against lives in the test oracles).

def losses_at(dataset, kind: LossKind, lams) -> np.ndarray:
    """Loss matrix of shape (len(dataset), len(lams)): the transpose of
    every row and column that `datagen.loss_reader` reads, so each column
    is contiguous."""
    return loss_reader(dataset, kind, lams)().T


def relative_set_sizes(dataset, lam: float) -> np.ndarray:
    """|prediction set| / max(|truth|, 1) per example at a single threshold,
    from `datagen.member_counts`; an empty truth set counts as 1, so its
    relative size is the set size."""
    return member_counts(dataset, lam) / np.maximum(dataset.truth_sizes, 1)
