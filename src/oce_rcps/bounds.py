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

The WSR bound is the smallest rejected point u of the dyadic grid
k/2^20 (or 1), found by bisection in 21 capital passes. The selectors
decide whether a bound is <= alpha by calling _ucb_at_most on a loss
reader, the one place a bound becomes a decision (oce_risk_ucb_at_most
is its public wrapper around a checked array): a Hoeffding decision
compares its own bound, and a WSR decision tests the one grid point g
that decides it, by the rule stated in that function's docstring. The
bisection runs only for bounds that are written out.

Whether g is rejected is known at the first row where the capital at g
exceeds 1/delta, so the decision walks the rows in chunks, 32 rows and
then twice as many each time, and a column leaves the walk at the chunk
where its capital crosses; a column that never crosses runs to the last
row. Each chunk carries the running sums, the last sig2 and the capital
product over from the one before it. The losses come from a reader,
`read(cols, rows)`, so only the rows walked are read (from the kept
counts, for a scan), transformed and mapped to [0, 1]; the public
functions read a checked array the same way.

Bounds are computed for a block of k sample columns at once, one t per
column. Every reader returns the (k, n) layout, one contiguous row per
column, so the betting fractions, the capital process and each bisection
halving are one cumulative pass along the sample axis for all k columns.
A single sample vector is the block with k = 1. The arithmetic of each
column is the same as for that column alone, and the same in a chunked
walk as in one pass: cumulative sums and products along an axis are
sequential, and a chunk's accumulation started from its carry repeats
the whole pass's operations in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import LOSS_MAX, OceCost, _loss_rows_and_ts, bound_B, phi, transformed_losses


def _accumulate(op, first, x: np.ndarray) -> np.ndarray:
    """op accumulated in place along the last axis of x, from `first` (one
    per row): x_1 becomes first op x_1 and each later x_j becomes x_{j-1}
    op x_j, the operations of op.accumulate over [first, x_1, x_2, ...] in
    the same order."""
    x[..., :1] = op(np.asarray(first)[..., None], x[..., :1])
    op.accumulate(x, axis=-1, out=x)
    return x


# the carry before any sample: no sum of z, no sum of squares, sig2_0 = 1/4
_EMPTY = (0.0, 0.0, 0.25)


def _fractions(z: np.ndarray, delta: float, n: int, start: int, carry):
    """Betting fractions of the samples after the first `start` of a sample
    of n, given as the (..., c) chunk z, and the carry after the chunk. The
    carry after a prefix holds the running sums of z and of (z - mu)^2 over
    it, and its last sig2 (1/4 for the empty prefix). Counting samples
    from j = 1,

        mu_j    = (1/2 + sum_{i<=j} z_i) / (j + 1)
        sig2_j  = (1/4 + sum_{i<=j} (z_i - mu_i)^2) / (j + 1)
        eta_j   = min(1, sqrt(2 ln(1/delta) / (n sig2_{j-1})))
    """
    sum_z, sum_sq, sig2_last = carry
    count = np.arange(start + 2.0, start + z.shape[-1] + 2.0)  # j + 1
    # in place where a temporary would be a whole (k, n) block: at n = 800
    # a fresh one can be a new mapping whose page faults cost more than the
    # arithmetic on it
    mu = _accumulate(np.add, sum_z, z.copy())
    sum_z = mu[..., -1].copy()
    mu += 0.5
    mu /= count
    sig2 = _accumulate(np.add, sum_sq, (z - mu) ** 2)
    sum_sq = sig2[..., -1].copy()
    sig2 += 0.25
    sig2 /= count
    # shift: eta_j uses sig2_{j-1}
    etas = np.empty_like(sig2)
    etas[..., :1] = np.asarray(sig2_last)[..., None]
    etas[..., 1:] = sig2[..., :-1]
    etas *= n
    np.divide(2.0 * math.log(1.0 / delta), etas, out=etas)
    np.sqrt(etas, out=etas)
    np.minimum(etas, 1.0, out=etas)
    return etas, (sum_z, sum_sq, sig2[..., -1])


def betting_fractions(z: np.ndarray, delta: float) -> np.ndarray:
    """Predictable plug-in betting fractions along the last axis of z;
    entry j uses only z[..., :j]. The whole sample is one chunk from the
    empty carry."""
    return _fractions(z, delta, z.shape[-1], 0, _EMPTY)[0]


def _capital(z: np.ndarray, R, etas: np.ndarray, first=1.0) -> np.ndarray:
    """Running capital first * prod_{j<=i} (1 + eta_j (R - z_j)) along the
    last axis of z, with one R and one `first` per row."""
    factors = np.subtract(np.asarray(R, dtype=np.float64)[..., None], z)
    factors *= etas
    factors += 1.0
    return _accumulate(np.multiply, first, factors)


def capital_process(z: np.ndarray, R: float | np.ndarray, etas: np.ndarray):
    """Max over prefixes (including the empty prefix, capital 1) of
    prod_{j<=i} (1 + eta_j (R - z_j)), along the last axis of z, with one
    R per row of a (k, n) block. Nondecreasing in R."""
    return _capital(z, R, etas).max(axis=-1, initial=1.0)


# rows of the decision walk's first chunk; each later chunk is twice as long
_FIRST_CHUNK = 32


def _crossed(unit, cols: np.ndarray, n: int, R: np.ndarray, delta: float) -> np.ndarray:
    """Exactly capital_process(z, R, betting_fractions(z, delta)) > 1/delta
    for the (k, n) block z = unit(cols), one R per column, reading only the
    rows it needs: `unit(cols, rows)` reads, transforms and maps those rows
    of some columns, one chunk of rows per call. A column leaves the walk
    at the chunk where its capital first exceeds 1/delta."""
    out = np.zeros(cols.size, dtype=bool)
    left = np.arange(cols.size)  # the columns still walking
    carry = tuple(np.full(cols.size, x) for x in _EMPTY)
    capital = np.ones(cols.size)
    start, size = 0, _FIRST_CHUNK
    while start < n and left.size:
        z = unit(cols[left], slice(start, start + size))
        etas, carry = _fractions(z, delta, n, start, carry)
        path = _capital(z, R[left], etas, capital)
        up = (path > 1.0 / delta).any(axis=-1)
        out[left[up]] = True
        stay = ~up
        left, capital, carry = left[stay], path[stay, -1], tuple(x[stay] for x in carry)
        start, size = start + size, 2 * size
    return out


# the WSR bound is located on the dyadic grid k / _STEPS
_STEPS = 2.0**20


def _bisect(holds) -> np.ndarray:
    """Last grid index in 0.._STEPS where the monotone test `holds` is true,
    per entry, or -1 where it holds nowhere."""
    below, above = -1.0, _STEPS + 1.0
    while np.any(above - below > 1.0):
        mid = np.floor(0.5 * (below + above))
        fit = holds(mid)
        below = np.where(fit, mid, below)
        above = np.where(fit, above, mid)
    return below


def _wsr_ucb(z: np.ndarray, delta: float) -> np.ndarray:
    """Betting-martingale UCB of each row of a (k, n) block:
    inf{R in [0,1] : max_i K_i(R) > 1/delta}, rounded up to the grid
    k/2^20 to be conservative: the smallest rejected grid point, or 1 for
    a row where nothing in [0, 1] is rejected. Rejection is monotone in R,
    so one bisection over the grid index finds it."""
    etas = betting_fractions(z, delta)

    def kept(k):
        return capital_process(z, k / _STEPS, etas) <= 1.0 / delta

    return np.minimum(_bisect(kept) + 1.0, _STEPS) / _STEPS


def _last_grid_point_at_most(lo: np.ndarray, span: np.ndarray, alpha: float) -> np.ndarray:
    """Largest k in 0.._STEPS with lo + span * (k / _STEPS) <= alpha, per
    entry, in that exact floating-point expression; -1 where none is.

    The expression is nondecreasing in k, so the rounded real solution
    `guess` is checked against it: the candidates guess - 1 .. guess + 2
    are tested at once, a k below 0 counting as fitting and one above
    _STEPS as not, and where the first fits and the last does not, the
    answer is the last that fits. Where rounding moved the answer further,
    the whole grid is bisected."""
    # alpha clipped to just outside [lo, lo + span] keeps the quotient finite
    near = np.clip(alpha, lo - span, lo + 2.0 * span)
    guess = np.clip(np.floor(_STEPS * ((near - lo) / span)), -1.0, _STEPS)
    ks = guess[:, None] + np.arange(-1.0, 3.0)
    fit = (ks < 0.0) | ((ks <= _STEPS) & (lo[:, None] + span[:, None] * (ks / _STEPS) <= alpha))
    out = guess - 2.0 + np.count_nonzero(fit, axis=1)
    missed = np.flatnonzero(~fit[:, 0] | fit[:, -1])
    if missed.size:
        lo, span = lo[missed], span[missed]
        out[missed] = _bisect(lambda k: lo + span * (k / _STEPS) <= alpha)
    return out


def _hoeffding_ucb(z: np.ndarray, delta: float) -> np.ndarray:
    """mean + sqrt(ln(1/delta) / (2n)) of each row of a (k, n) block,
    capped at 1."""
    return np.minimum(z.mean(axis=1) + math.sqrt(math.log(1.0 / delta) / (2.0 * z.shape[1])), 1.0)


_UCB = {"wsr": _wsr_ucb, "hoeffding": _hoeffding_ucb}
BOUND_METHODS = tuple(_UCB)


def _normalized(read, cost: OceCost, ts: np.ndarray, delta: float, method: str):
    """The settings of a bound checked, and its losses mapped: the analytic
    range [lo, lo + span] of each column's transformed loss, the indices of
    the live columns, where span > 0, and `unit(cols, rows=all)`, those
    columns' rows of transformed losses mapped to [0, 1]. `read(cols,
    rows)` gives the (len(cols), len(rows)) rows of a loss block in [0,
    LOSS_MAX], one column per t in ts, and only the cells read are
    transformed.

    `bound_B` checks t. With every loss in [0, LOSS_MAX], it raises any
    entropic OverflowError here, before a loss is read, so a walk that
    reads only some rows cannot skip one."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if method not in _UCB:
        raise ValueError(f"unknown bound method: {method!r}")
    B = bound_B(cost, ts)  # checks t before phi(cost, -t) can overflow
    lo = ts + phi(cost, -ts)
    span = B - lo

    def unit(cols, rows=slice(None)):
        tl = transformed_losses(cost, ts[cols, None], read(cols, rows))
        return np.clip((tl - lo[cols, None]) / span[cols, None], 0.0, 1.0)

    # where span <= 0 the transformed loss is the constant lo
    return lo, span, np.flatnonzero(span > 0.0), unit


def _ucb(read, cost: OceCost, ts: np.ndarray, delta: float, method: str) -> np.ndarray:
    """The k bounds of the loss block that `read` reads (see `_normalized`)."""
    lo, span, live, unit = _normalized(read, cost, ts, delta, method)
    out = lo.copy()
    out[live] = lo[live] + span[live] * _UCB[method](unit(live), delta)
    return out


def _ucb_at_most(read, n: int, cost: OceCost, ts: np.ndarray, delta: float, alpha: float,
                 method: str) -> np.ndarray:
    """Exactly `_ucb(read, cost, ts, delta, method) <= alpha` for the (n, k)
    loss block that `read` reads (see `_normalized`). A Hoeffding decision
    compares that bound, which reads every row. The losses' range is not
    checked here: the public functions check their array, and a loss a
    scan reads from the kept counts lies in [0, 1] by construction.

    The WSR decision needs no bisection. With g the largest grid point
    whose mapped value lo + span * g is <= alpha, the bound is <= alpha
    exactly when the smallest rejected grid point is <= g: when g = 1, or
    when g itself is rejected. This is exact in floating point, since both
    the mapping and rejection are monotone in the grid point. No such g
    means the bound, at least lo, exceeds alpha. Whether g is rejected is
    decided by walking each column's capital at g up to the row where it
    crosses 1/delta, reading only the rows walked."""
    if method != "wsr":
        return _ucb(read, cost, ts, delta, method) <= alpha
    lo, span, live, unit = _normalized(read, cost, ts, delta, method)
    out = lo <= alpha
    k = _last_grid_point_at_most(lo[live], span[live], alpha)
    test = (k >= 0.0) & (k < _STEPS)
    out[live] = k == _STEPS
    out[live[test]] = _crossed(unit, live[test], n, k[test] / _STEPS, delta)
    return out


def _array_reader(losses, t):
    """The array input of the public bounds, checked: a reader of its
    `_loss_rows_and_ts` rows (see `_normalized`), n, and the k values of t."""
    block, ts = _loss_rows_and_ts(losses, t)
    if not (block.min() >= 0.0 and block.max() <= LOSS_MAX):  # NaN fails too
        raise ValueError("losses must lie in [0, LOSS_MAX]")
    return (lambda cols, rows: block[cols, rows]), block.shape[1], ts


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
    read, _, ts = _array_reader(losses, t)
    out = _ucb(read, cost, ts, delta, method)
    return out if np.ndim(losses) == 2 else float(out[0])


def oce_risk_ucb_at_most(
    losses: np.ndarray,
    cost: OceCost,
    t: float | np.ndarray,
    delta: float,
    alpha: float,
    method: str = "wsr",
) -> bool | np.ndarray:
    """Exactly `oce_risk_ucb(losses, cost, t, delta, method) <= alpha`, for
    the same shapes and with the same input checks; the decision is
    `_ucb_at_most`'s, on a reader of the checked array."""
    read, n, ts = _array_reader(losses, t)
    out = _ucb_at_most(read, n, cost, ts, delta, alpha, method)
    return out if np.ndim(losses) == 2 else bool(out[0])
