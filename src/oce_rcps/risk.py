"""Prediction sets, monotone losses, and the OCE risk family.

A prediction set at threshold parameter ``lam`` keeps every element whose
score is at least ``1 - lam``. Losses (miscoverage, FNR) are nonincreasing
in ``lam``. The OCE risk of a loss distribution is
``inf_t { t + E[phi(loss - t)] }`` for a nondecreasing convex cost ``phi``
with ``phi(0) = 0``; the average, entropic, and CVaR risks are the shipped
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_MAX = 1.0

# exp(x) overflows float64 just above x = 709.78
_EXP_LIMIT = 709.0


class InvalidExampleError(ValueError):
    pass


@dataclass(frozen=True)
class ScoredExample:
    """Per-element scores in [0, 1] plus the ground-truth positive set."""

    scores: np.ndarray
    truth: frozenset

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truth", frozenset(self.truth))
        if scores.ndim != 1 or scores.size < 1:
            raise InvalidExampleError("scores must be a nonempty 1-d vector")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails too
            raise InvalidExampleError("scores must lie in [0, 1]")
        m = scores.size
        if any((i < 0 or i >= m) for i in self.truth):
            raise InvalidExampleError("truth index out of range")

    @property
    def m(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class PredictionSet:
    members: frozenset
    lam: float


@dataclass(frozen=True)
class LossKind:
    """Loss variant; both shipped losses are bounded by LOSS_MAX = 1."""

    variant: str  # "miscoverage" | "fnr"

    def __post_init__(self):
        if self.variant not in ("miscoverage", "fnr"):
            raise ValueError(f"unknown loss variant: {self.variant!r}")


@dataclass(frozen=True)
class OceCost:
    """Cost function phi of the OCE family, with its parameter beta.

    variant "average":  phi(u) = u
    variant "entropic": phi(u) = (exp(beta*u) - 1)/beta,  beta > 0
    variant "cvar":     phi(u) = max(u, 0)/(1 - beta),    beta in [0, 1)
    """

    variant: str
    beta: float | None = None

    def __post_init__(self):
        if self.variant == "average":
            if self.beta is not None:
                raise ValueError("average cost takes no beta")
        elif self.variant == "entropic":
            if self.beta is None or not self.beta > 0:
                raise ValueError("entropic cost requires beta > 0")
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
        return f"{self.variant}:{self.beta:g}"


def build_prediction_set(example: ScoredExample, lam: float) -> PredictionSet:
    """All element indices whose score is >= 1 - lam (closed threshold)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    members = frozenset(np.flatnonzero(example.scores >= 1.0 - lam).tolist())
    return PredictionSet(members, lam)


def compute_loss(kind: LossKind, example: ScoredExample, pset: PredictionSet) -> float:
    """Miscoverage: 1 if truth not fully contained. FNR: missed fraction."""
    if kind.variant == "fnr":
        if not example.truth:
            raise InvalidExampleError("FNR loss needs a nonempty truth set")
        return len(example.truth - pset.members) / len(example.truth)
    return 0.0 if example.truth <= pset.members else 1.0


def phi_eval(cost: OceCost, u: float) -> float:
    if cost.variant == "average":
        return u
    if cost.variant == "cvar":
        return max(u, 0.0) / (1.0 - cost.beta)
    bu = cost.beta * u
    if bu > _EXP_LIMIT:
        raise OverflowError(
            f"entropic cost overflow: beta*u = {bu:.3g} exceeds exp limit"
        )
    return math.expm1(bu) / cost.beta


def transformed_losses(cost: OceCost, t: float, losses: np.ndarray) -> np.ndarray:
    """t + phi(loss - t) per loss; nondecreasing in loss for fixed t."""
    losses = np.asarray(losses, dtype=np.float64)
    if cost.variant == "average":
        return losses.copy()
    if cost.variant == "cvar":
        return t + np.maximum(losses - t, 0.0) / (1.0 - cost.beta)
    bu = cost.beta * (losses - t)
    if np.any(bu > _EXP_LIMIT):
        raise OverflowError("entropic cost overflow in transformed_losses")
    return t + np.expm1(bu) / cost.beta


def bound_B(cost: OceCost, t: float) -> float:
    """t + phi(LOSS_MAX - t): dominates the transformed loss on [0, LOSS_MAX]."""
    return t + phi_eval(cost, LOSS_MAX - t)


def empirical_objective(losses: np.ndarray, cost: OceCost, t: float) -> float:
    """t + mean phi(loss_i - t); convex in t."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("losses must be nonempty")
    return float(np.mean(transformed_losses(cost, t, losses)))


def empirical_oce(losses: np.ndarray, cost: OceCost) -> tuple[float, float]:
    """Empirical OCE risk and its minimizing t.

    average:  (mean, 0)
    entropic: the log-mean-exp value, which is also the minimizer
    cvar:     t* is the ceil(beta*n)-th order statistic (lowest minimizer)
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    if n == 0:
        raise ValueError("losses must be nonempty")
    if cost.variant == "average":
        return float(np.mean(losses)), 0.0
    if cost.variant == "entropic":
        # max-shifted log-mean-exp keeps exp in range
        hi = float(np.max(losses))
        value = hi + math.log(np.mean(np.exp(cost.beta * (losses - hi)))) / cost.beta
        return value, value
    k = max(1, math.ceil(cost.beta * n))
    t_star = float(np.partition(losses, k - 1)[k - 1])
    value = t_star + float(np.mean(np.maximum(losses - t_star, 0.0))) / (1.0 - cost.beta)
    return value, t_star


# ---------------------------------------------------------------------------
# Fast loss evaluation over threshold grids (the per-example objects above are
# the reference semantics; these paths are used by calibrators and the
# harness and are tested for agreement).

def losses_at(dataset, kind: LossKind, lams) -> np.ndarray:
    """Loss matrix of shape (len(dataset), len(lams)).

    Both losses come from one count: how many truth scores of each example
    lie below the threshold 1 - lam. FNR is that count over |truth|,
    miscoverage is min(count, 1). The count is built by walking the
    thresholds in increasing order over all truth scores sorted at once.
    """
    thresholds = 1.0 - np.atleast_1d(np.asarray(lams, dtype=np.float64))
    n = len(dataset)
    truth = [ex.scores[np.fromiter(ex.truth, np.intp, len(ex.truth))] for ex in dataset]
    sizes = np.fromiter(map(len, truth), np.intp, n)
    if kind.variant == "fnr" and not sizes.all():
        raise InvalidExampleError("FNR loss needs a nonempty truth set")
    scores = np.concatenate(truth) if truth else np.empty(0)
    order = np.argsort(scores)
    rows = np.repeat(np.arange(n), sizes)[order]
    columns = np.argsort(thresholds)
    stops = np.searchsorted(scores[order], thresholds[columns], side="left")
    # column-major, so each column written here (and read by the selectors) is contiguous
    out = np.empty((thresholds.size, n)).T
    missed = np.zeros(n)
    start = 0
    for j, stop in zip(columns, stops):
        missed += np.bincount(rows[start:stop], minlength=n)
        out[:, j] = missed
        start = stop
    if kind.variant == "fnr":
        out /= sizes[:, None]
    else:
        np.minimum(out, 1.0, out=out)
    return out


def relative_set_sizes(dataset, lam: float) -> np.ndarray:
    """|prediction set| / max(|truth|, 1) per example at a single threshold;
    an empty truth set counts as 1, so its relative size is the set size."""
    thr = 1.0 - lam
    return np.array(
        [np.count_nonzero(ex.scores >= thr) / max(len(ex.truth), 1) for ex in dataset]
    )
