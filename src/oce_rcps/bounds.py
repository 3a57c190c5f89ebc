"""Upper confidence bounds on a bounded mean from i.i.d. samples.

The workhorse is the betting-martingale (WSR) bound: for a candidate mean
R, the capital process K_i(R) = prod_{j<=i} (1 + eta_j (R - z_j)) is a
nonnegative martingale when R is the true mean, so by Ville's inequality
the set {R : max_i K_i(R) > 1/delta} is rejected at level delta and its
infimum is a valid UCB. The betting fractions eta_j are predictable: each
depends only on z_1..z_{j-1}, delta, and n.

A Hoeffding bound ships as an independent cross-check, and oce_risk_ucb
lifts either bound to the OCE objective t + phi(loss - t) by affinely
normalizing the transformed losses to [0, 1] using their analytic range.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import LOSS_MAX, OceCost, bound_B, phi_eval, transformed_losses


def betting_fractions(z: np.ndarray, delta: float) -> np.ndarray:
    """Predictable plug-in betting fractions; entry j uses only z[:j].

        mu_j    = (1/2 + sum_{i<=j} z_i) / (j + 1)
        sig2_j  = (1/4 + sum_{i<=j} (z_i - mu_i)^2) / (j + 1)
        eta_j   = min(1, sqrt(2 ln(1/delta) / (n sig2_{j-1})))
    """
    n = z.size
    idx = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(z)) / (idx + 1.0)
    sig2 = (0.25 + np.cumsum((z - mu) ** 2)) / (idx + 1.0)
    # shift: eta_j uses sig2_{j-1}; sig2_0 = 1/4 (prior only)
    sig2_prev = np.concatenate(([0.25], sig2[:-1]))
    etas = np.sqrt(2.0 * math.log(1.0 / delta) / (n * sig2_prev))
    return np.minimum(etas, 1.0)


def capital_process(z: np.ndarray, R: float, etas: np.ndarray) -> float:
    """Max over prefixes (including the empty prefix, capital 1) of
    prod_{j<=i} (1 + eta_j (R - z_j)). Nondecreasing in R."""
    z = np.asarray(z, dtype=np.float64)
    factors = 1.0 + etas * (R - z)
    capital = np.cumprod(factors)
    return max(1.0, float(capital.max())) if capital.size else 1.0


def _wsr_ucb(z: np.ndarray, delta: float) -> float:
    """Betting-martingale UCB: inf{R in [0,1] : max_i K_i(R) > 1/delta},
    located by 20 bisection halvings and rounded up to the grid k/2^20 to
    be conservative; 1 if nothing in [0, 1] is rejected."""
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


def _hoeffding_ucb(z: np.ndarray, delta: float) -> float:
    """mean + sqrt(ln(1/delta) / (2n)), capped at 1."""
    ucb = float(np.mean(z)) + math.sqrt(math.log(1.0 / delta) / (2.0 * z.size))
    return min(ucb, 1.0)


def oce_risk_ucb(
    losses: np.ndarray,
    cost: OceCost,
    t: float,
    delta: float,
    method: str = "wsr",
) -> float:
    """UCB on the OCE objective t + E[phi(loss - t)].

    Transformed losses are mapped affinely to [0, 1] using their analytic
    range [t + phi(-t), t + phi(LOSS_MAX - t)], bounded there, and mapped
    back. Requires t in [0, LOSS_MAX] so the range is well ordered.
    """
    if not 0.0 <= t <= LOSS_MAX:
        raise ValueError("t must lie in [0, LOSS_MAX]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("losses must be nonempty")
    lo = t + phi_eval(cost, -t)
    hi = bound_B(cost, t)
    if hi <= lo:
        return lo  # transformed loss is the constant lo = hi
    tl = transformed_losses(cost, t, losses)
    z = np.clip((tl - lo) / (hi - lo), 0.0, 1.0)
    ucb = {"wsr": _wsr_ucb, "hoeffding": _hoeffding_ucb}.get(method)
    if ucb is None:
        raise ValueError(f"unknown bound method: {method!r}")
    return lo + (hi - lo) * ucb(z, delta)
