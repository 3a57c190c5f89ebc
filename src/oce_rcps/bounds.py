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

Bounds are computed for a block of k sample columns at once, one t per
column. Inside, the samples are laid out as a (k, n) array, one
contiguous row per column, so the betting fractions, the capital process
and each bisection halving are one cumulative pass along the sample axis
for all k columns. A single sample vector is the block with k = 1. The
arithmetic of each column is the same as for that column alone:
cumulative sums and products along an axis are sequential.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import LOSS_MAX, OceCost, bound_B, phi_eval, transformed_losses


def betting_fractions(z: np.ndarray, delta: float) -> np.ndarray:
    """Predictable plug-in betting fractions along the last axis of z;
    entry j uses only z[..., :j].

        mu_j    = (1/2 + sum_{i<=j} z_i) / (j + 1)
        sig2_j  = (1/4 + sum_{i<=j} (z_i - mu_i)^2) / (j + 1)
        eta_j   = min(1, sqrt(2 ln(1/delta) / (n sig2_{j-1})))
    """
    n = z.shape[-1]
    idx = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(z, axis=-1)) / (idx + 1.0)
    sig2 = (0.25 + np.cumsum((z - mu) ** 2, axis=-1)) / (idx + 1.0)
    # shift: eta_j uses sig2_{j-1}; sig2_0 = 1/4 (prior only)
    sig2_prev = np.concatenate((np.full(z.shape[:-1] + (1,), 0.25), sig2[..., :-1]), axis=-1)
    etas = np.sqrt(2.0 * math.log(1.0 / delta) / (n * sig2_prev))
    return np.minimum(etas, 1.0)


def capital_process(z: np.ndarray, R: float | np.ndarray, etas: np.ndarray):
    """Max over prefixes (including the empty prefix, capital 1) of
    prod_{j<=i} (1 + eta_j (R - z_j)), along the last axis of z, with one
    R per row of a (k, n) block. Nondecreasing in R."""
    factors = np.subtract(np.asarray(R, dtype=np.float64)[..., None], z)
    factors *= etas
    factors += 1.0
    np.cumprod(factors, axis=-1, out=factors)
    return factors.max(axis=-1, initial=1.0)


def _wsr_ucb(z: np.ndarray, delta: float) -> np.ndarray:
    """Betting-martingale UCB of each row of a (k, n) block:
    inf{R in [0,1] : max_i K_i(R) > 1/delta}, located by 20 bisection
    halvings and rounded up to the grid k/2^20 to be conservative; 1 for a
    row where nothing in [0, 1] is rejected, 0 where R = 0 already is."""
    threshold = 1.0 / delta
    etas = betting_fractions(z, delta)

    def rejected(R: np.ndarray) -> np.ndarray:
        return capital_process(z, R, etas) > threshold

    k = z.shape[0]
    at_one = rejected(np.ones(k))
    at_zero = rejected(np.zeros(k))
    lo, hi = np.zeros(k), np.ones(k)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        r = rejected(mid)
        hi = np.where(r, mid, hi)
        lo = np.where(r, lo, mid)
    return np.where(at_one, np.where(at_zero, 0.0, hi), 1.0)


def _hoeffding_ucb(z: np.ndarray, delta: float) -> np.ndarray:
    """mean + sqrt(ln(1/delta) / (2n)) of each row of a (k, n) block,
    capped at 1."""
    return np.minimum(z.mean(axis=1) + math.sqrt(math.log(1.0 / delta) / (2.0 * z.shape[1])), 1.0)


_UCB = {"wsr": _wsr_ucb, "hoeffding": _hoeffding_ucb}


def oce_risk_ucb(
    losses: np.ndarray,
    cost: OceCost,
    t: float | np.ndarray,
    delta: float,
    method: str = "wsr",
) -> float | np.ndarray:
    """UCB on the OCE objective t + E[phi(loss - t)].

    `losses` is an (n,) sample vector with a scalar t, which returns a
    float, or an (n, k) block with k values of t, one per column, which
    returns the k bounds.

    Transformed losses are mapped affinely to [0, 1] using their analytic
    range [t + phi(-t), t + phi(LOSS_MAX - t)], bounded there, and mapped
    back. Requires t in [0, LOSS_MAX] so the range is well ordered.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all((ts >= 0.0) & (ts <= LOSS_MAX)):  # NaN fails too
        raise ValueError("t must lie in [0, LOSS_MAX]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    ucb = _UCB.get(method)
    if ucb is None:
        raise ValueError(f"unknown bound method: {method!r}")
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("losses must be nonempty")
    block = np.atleast_2d(losses.T)  # (k, n)
    if ts.shape != block.shape[:1]:
        raise ValueError("need one t per loss column")
    lo = np.array([tj + phi_eval(cost, -tj) for tj in ts.tolist()])
    hi = np.array([bound_B(cost, tj) for tj in ts.tolist()])
    # where hi <= lo the transformed loss is the constant lo = hi
    live = hi > lo
    out = lo.copy()
    if live.any():
        lo, hi = lo[live], hi[live]
        tl = transformed_losses(cost, ts[live, None], block[live])
        z = np.clip((tl - lo[:, None]) / (hi - lo)[:, None], 0.0, 1.0)
        out[live] = lo + (hi - lo) * ucb(z, delta)
    return out if losses.ndim == 2 else float(out[0])
