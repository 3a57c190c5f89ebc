"""Slow reference implementations that the library is checked against.

The per-example classes here (a scored example, its prediction set and
its loss) are the reference semantics of the columnar losses in
``oce_rcps.risk``."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from oce_rcps.datagen import GeneratorParams
from oce_rcps.risk import (
    LossKind,
    bound_B,
    phi,
    transformed_losses,
)
from oce_rcps.rng import _GAMMA, _MASK64, _finalize, beta_inverse_cdf


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
            raise ValueError("scores must be a nonempty 1-d vector")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails too
            raise ValueError("scores must lie in [0, 1]")
        if any((i < 0 or i >= scores.size) for i in self.truth):
            raise ValueError("truth index out of range")


@dataclass(frozen=True)
class PredictionSet:
    members: frozenset
    lam: float


def as_examples(data) -> list:
    """The rows of a Dataset as ScoredExamples."""
    return [
        ScoredExample(s, frozenset(np.flatnonzero(t).tolist()))
        for s, t in zip(data.scores, data.truth)
    ]


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
            raise ValueError("FNR loss needs a nonempty truth set")
        return len(example.truth - pset.members) / len(example.truth)
    return 0.0 if example.truth <= pset.members else 1.0


def closed_form_oce(losses, cost) -> tuple[float, float]:
    """Empirical OCE risk of one loss vector and its minimizing t, each in
    closed form: the mean and 0 for the average cost; the max-shifted
    log-mean-exp for the entropic cost, both the value and the minimizer
    (below beta = 1e-4 with log1p/expm1, and beta raised to 1e-100); for
    CVaR the ceil(beta*n)-th order statistic t and t + mean(max(loss - t,
    0)) / (1 - beta)."""
    losses = np.asarray(losses, dtype=np.float64)
    if cost.variant == "average":
        return float(np.mean(losses)), 0.0
    if cost.variant == "entropic":
        hi = float(np.max(losses))
        beta = cost.beta
        if beta >= 1e-4:
            value = hi + float(np.log(np.mean(np.exp(beta * (losses - hi))))) / beta
        else:
            beta = max(beta, 1e-100)
            value = hi + float(np.log1p(np.mean(np.expm1(beta * (losses - hi))))) / beta
        return value, value
    k = max(1, math.ceil(cost.beta * losses.size))
    t_star = float(np.partition(losses, k - 1)[k - 1])
    value = t_star + float(np.mean(np.maximum(losses - t_star, 0.0))) / (1.0 - cost.beta)
    return value, t_star


def column_objective(losses, cost, t: float) -> float:
    """t + mean phi(loss_i - t) of one loss vector at one t."""
    return float(np.mean(transformed_losses(cost, t, losses)))


def golden_section_minimize(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Minimize a unimodal f on [lo, hi] to bracket width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_section_t(opt_losses, cost) -> float:
    """Numerical minimizer of t + mean phi(loss - t) over t in [0, 1]."""
    return golden_section_minimize(lambda t: column_objective(opt_losses, cost, t), 0.0, 1.0)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _finalize(self._state)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def next_floats(self, count: int) -> np.ndarray:
        return np.array([self.next_float() for _ in range(count)])

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using next_uint64 modulo rejection."""
        n = len(items)
        for i in range(n - 1, 0, -1):
            # rejection sampling keeps the index distribution exactly uniform
            bound = i + 1
            limit = (2**64 // bound) * bound
            while True:
                u = self.next_uint64()
                if u < limit:
                    break
            j = u % bound
            items[i], items[j] = items[j], items[i]


def generate_example(params: GeneratorParams, sub_seed: int) -> ScoredExample:
    """One generated example, drawing from the sequential stream in order."""
    stream = SplitMix64(sub_seed)
    d = float(beta_inverse_cdf(stream.next_float(), params.difficulty_a, params.difficulty_b))
    for _ in range(10_000):
        positive = np.array([stream.next_float() < params.rho for _ in range(params.m)])
        if positive.any():
            break
    else:
        raise RuntimeError("membership resampling did not terminate")
    u = stream.next_floats(params.m)
    k = params.sharpness
    a = np.where(positive, 1.0 + k * (1.0 - d), 1.5)
    b = np.where(positive, 1.0 + k * d, 1.0 + k * (1.0 - d))
    scores = np.clip(beta_inverse_cdf(u, a, b), 0.0, 1.0)
    return ScoredExample(scores, frozenset(np.flatnonzero(positive).tolist()))


def betting_fractions(z: np.ndarray, delta: float) -> np.ndarray:
    """Predictable plug-in betting fractions of one sample vector."""
    n = z.size
    idx = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(z)) / (idx + 1.0)
    sig2 = (0.25 + np.cumsum((z - mu) ** 2)) / (idx + 1.0)
    sig2_prev = np.concatenate(([0.25], sig2[:-1]))
    etas = np.sqrt(2.0 * math.log(1.0 / delta) / (n * sig2_prev))
    return np.minimum(etas, 1.0)


def capital_process(z: np.ndarray, R: float, etas: np.ndarray) -> float:
    """Max over prefixes, the empty one included, of the capital at R."""
    capital = np.cumprod(1.0 + etas * (R - z))
    return max(1.0, float(capital.max())) if capital.size else 1.0


def wsr_ucb(z: np.ndarray, delta: float) -> float:
    """Scalar bisection for the betting-martingale UCB of one sample
    vector: 20 halvings, rounded up to the grid k/2^20."""
    threshold = 1.0 / delta
    etas = betting_fractions(z, delta)

    def rejected(R: float) -> bool:
        return capital_process(z, R, etas) > threshold

    if not rejected(1.0):
        return 1.0
    if rejected(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if rejected(mid):
            hi = mid
        else:
            lo = mid
    return hi


def hoeffding_ucb(z: np.ndarray, delta: float) -> float:
    ucb = float(np.mean(z)) + math.sqrt(math.log(1.0 / delta) / (2.0 * z.size))
    return min(ucb, 1.0)


def oce_risk_ucb(losses, cost, t: float, delta: float, method: str = "wsr") -> float:
    """UCB on the OCE objective of one loss column at one t."""
    lo = t + float(phi(cost, -t))
    hi = bound_B(cost, t)
    if hi <= lo:
        return lo
    tl = transformed_losses(cost, t, losses)
    z = np.clip((tl - lo) / (hi - lo), 0.0, 1.0)
    ucb = {"wsr": wsr_ucb, "hoeffding": hoeffding_ucb}[method]
    return lo + (hi - lo) * ucb(z, delta)


class Tested(NamedTuple):
    """One tested grid column of a scan, as the fields of a selector's trace."""

    lam: float
    bound: float
    passed: bool
    t: float


def oce_crc_scan(cal_losses, opt_losses, alpha, lams, cost, fixed_t=None):
    """Ascending OCE-CRC scan, one column at a time, stopping at the first
    pass; returns (lambda_hat, feasible, trace in scan order)."""
    n = cal_losses.shape[0]
    trace = []
    for j, lam in enumerate(lams):
        t = closed_form_oce(opt_losses[:, j], cost)[1] if fixed_t is None else fixed_t
        risk = column_objective(cal_losses[:, j], cost, t)
        value = (n / (n + 1.0)) * risk + bound_B(cost, t) / (n + 1.0)
        passed = value <= alpha
        trace.append(Tested(float(lam), float(value), passed, t))
        if passed:
            return float(lam), True, trace
    return 1.0, False, trace


def oce_rcps_scan(cal_losses, opt_losses, alpha, delta, lams, cost, fixed_t=None, method="wsr"):
    """Descending OCE-RCPS scan, one column at a time, stopping at the first
    failure; returns (lambda_hat, feasible, trace in scan order)."""
    trace = []
    last_passing = None
    for j in range(len(lams) - 1, -1, -1):
        lam = float(lams[j])
        t = closed_form_oce(opt_losses[:, j], cost)[1] if fixed_t is None else fixed_t
        ucb = oce_risk_ucb(cal_losses[:, j], cost, t, delta, method)
        passed = ucb <= alpha
        trace.append(Tested(lam, float(ucb), passed, t))
        if not passed:
            break
        last_passing = lam
    if last_passing is None:
        return 1.0, False, trace
    return last_passing, True, trace
