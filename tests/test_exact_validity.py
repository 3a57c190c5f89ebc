"""Exact validity of the bounds by enumeration.

The WSR bound and its OCE lift are valid for every n: a UCB at level delta
falls below the true mean or OCE objective with probability at most delta.
At small n that probability is computed exactly, not sampled: every sample
sequence is enumerated once, as one block of columns, and each sequence
whose bound misses is weighted by its probability. Every assertion bounds
a miss probability by delta itself.
"""

import itertools

import numpy as np
import pytest

from oce_rcps.bounds import oce_risk_ucb
from oce_rcps.risk import OceCost, phi

PS = np.arange(1, 100) / 100


def sequences(values, n):
    """Every length-n sequence over `values`: (n, len(values)**n) sample
    columns and the (len(values)**n, n) value indices behind them."""
    index = np.array(list(itertools.product(range(len(values)), repeat=n)))
    return np.asarray(values, dtype=np.float64)[index].T, index


@pytest.mark.parametrize("n", [8, 12])
def test_wsr_bound_misses_a_bernoulli_mean_at_most_delta(n):
    samples, _ = sequences((0.0, 1.0), n)
    ones = samples.sum(axis=0)
    # P(sequence) = p^k (1 - p)^(n - k) for a sequence with k ones, per p
    weights = PS[:, None] ** ones * (1.0 - PS[:, None]) ** (n - ones)
    for delta in (0.1, 0.2, 0.5):
        ucb = oce_risk_ucb(samples, OceCost.average(), np.zeros(samples.shape[1]), delta)
        miss = (weights * (ucb < PS[:, None])).sum(axis=1)
        assert miss.max() <= delta, (delta, PS[miss.argmax()], miss.max())


MIXTURES = ((0.6, 0.3, 0.1), (0.3, 0.4, 0.3), (0.1, 0.3, 0.6), (0.8, 0.1, 0.1))


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_oce_lift_misses_the_objective_at_most_delta(t):
    values, cost, n = (0.0, 0.5, 1.0), OceCost.cvar(0.8), 9
    samples, index = sequences(values, n)
    ts = np.full(samples.shape[1], t)
    for delta in (0.1, 0.2):
        ucb = oce_risk_ucb(samples, cost, ts, delta)
        for w in MIXTURES:
            objective = t + np.dot(w, phi(cost, np.subtract(values, t)))
            miss = np.prod(np.asarray(w)[index], axis=1)[ucb < objective].sum()
            assert miss <= delta, (delta, w, miss)
