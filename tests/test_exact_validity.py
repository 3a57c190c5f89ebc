"""Exact validity of the bounds and the RCPS scan by enumeration.

The WSR bound and its OCE lift are valid for every n: a UCB at level delta
falls below the true mean or OCE objective with probability at most delta.
So is the downward RCPS scan built on them: the objective at the selected
threshold exceeds alpha with probability at most delta. At small n that
probability is computed exactly, not sampled: every sample sequence is
enumerated once, as one block of columns, and each sequence whose bound
or selection misses is weighted by its probability. Every assertion
bounds a miss probability by delta itself.
"""

import itertools

import numpy as np
import pytest

from oce_rcps.bounds import oce_risk_ucb, oce_risk_ucb_at_most
from oce_rcps.calibrate import LambdaGrid, ReliabilitySpec, select_oce_rcps, select_rcps
from oce_rcps.datagen import Dataset
from oce_rcps.risk import LossKind, OceCost, losses_at, optimize_t, phi

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


# Three example types over m = 4 elements: two truth elements with these
# scores and two others scored 0. On the grid G = 20 each type's FNR steps
# from 1 through 0.5 to 0 as its truth scores clear 1 - lam.
TRUTH_SCORES = np.array([(0.93, 0.81), (0.62, 0.27), (0.22, 0.04)])
GRID, FNR, N_CAL = LambdaGrid(20), LossKind("fnr"), 9
# every type mixture on the simplex grid of step 1/18
WEIGHTS = np.array([(i, j, 18 - i - j) for i in range(19) for j in range(19 - i)]) / 18


def typed(types):
    """The dataset whose rows are examples of the given types."""
    scores = np.zeros((len(types), 4))
    scores[:, :2] = TRUTH_SCORES[list(types)]
    return Dataset(scores, scores > 0)


TYPE_LOSSES = losses_at(typed(range(3)), FNR, GRID.values)  # (3, G + 1)


@pytest.fixture(scope="module")
def cal_sequences():
    """Every calibration sequence of N_CAL types, (3^9, 9), and the index of
    each one's type counts in the (55, 3) table of count vectors."""
    sequences = np.array(list(itertools.product(range(3), repeat=N_CAL)))
    counts = np.stack([(sequences == k).sum(axis=1) for k in range(3)], axis=1)
    vectors, which = np.unique(counts, axis=0, return_inverse=True)
    return sequences, vectors, which.reshape(-1)


def scan_lam_hat(sequences, cost, ts, delta, alpha):
    """The grid index of the downward scan's lambda_hat on every sequence,
    with ts the t of each grid column. Scanning down from lam = 1, the scan
    stops at the first failure and lambda_hat is the grid point above it: 1
    when lam = 1 fails, 0 when nothing fails. A column's decision depends
    only on the types' losses and t there, so each distinct pair is
    decided once, for all sequences in one block."""
    keys, column = np.unique(np.vstack([TYPE_LOSSES, ts]).T, axis=0, return_inverse=True)
    passed = np.array([
        oce_risk_ucb_at_most(key[:3][sequences.T], cost, np.full(len(sequences), key[3]),
                             delta, alpha)
        for key in keys
    ])[column.reshape(-1)]  # (G + 1, 3^9)
    top = GRID.resolution
    first_failure = np.where(passed.all(axis=0), -1, top - np.argmax(~passed[::-1], axis=0))
    return np.minimum(first_failure + 1, top)


def scan_miss(cal_sequences, cost, ts, delta, alpha, select):
    """The exact P(t + E[phi(loss - t)] > alpha at lambda_hat), per mixture,
    after checking the enumerated lambda_hat against `select(cal)` on 30
    sampled sequences. The objective bounds the OCE risk from above."""
    sequences, vectors, which = cal_sequences
    hat = scan_lam_hat(sequences, cost, ts, delta, alpha)
    for s in np.random.default_rng(0).choice(len(sequences), 30, replace=False):
        assert select(typed(sequences[s])).lambda_hat == GRID.values[hat[s]]
    # sequences by count vector and lambda_hat; a sequence's probability
    # depends only on its count vector
    table = np.zeros((len(vectors), GRID.resolution + 1))
    np.add.at(table, (which, hat), 1.0)
    probs = np.prod(WEIGHTS[:, None, :] ** vectors, axis=2)  # (mixtures, 55)
    over = ts + WEIGHTS @ phi(cost, TYPE_LOSSES - ts) > alpha  # (mixtures, G + 1)
    return np.einsum("wc,cj,wj->w", probs, table, over)


@pytest.mark.parametrize("delta", [0.2, 0.5])
@pytest.mark.parametrize("cost, t, alpha", [
    pytest.param(OceCost.average(), 0.0, 0.3, id="rcps"),
    pytest.param(OceCost.entropic(1.0), 0.2, 0.4, id="entropic-fixed-t"),
])
def test_rcps_scan_misses_the_risk_at_most_delta(cal_sequences, cost, t, alpha, delta):
    spec = ReliabilitySpec(alpha, delta)
    if cost == OceCost.average():
        select = lambda cal: select_rcps(cal, spec, GRID, FNR)
    else:
        select = lambda cal: select_oce_rcps(cal, None, spec, GRID, cost, FNR, fixed_t=t)
    miss = scan_miss(cal_sequences, cost, np.full(GRID.resolution + 1, t), delta, alpha, select)
    assert miss.max() <= delta, (delta, WEIGHTS[miss.argmax()], miss.max())


@pytest.mark.parametrize("delta", [0.2, 0.5])
def test_per_lambda_t_misses_the_objective_at_most_delta_per_held_out_split(
    cal_sequences, delta
):
    # t per lam is the closed form on a held-out split of 3, which depends
    # only on that split's type counts; given the split, the calibration
    # draw is independent of t, so the guarantee holds for each split
    cost, spec = OceCost.entropic(1.0), ReliabilitySpec(0.4, delta)
    for opt_types in itertools.combinations_with_replacement(range(3), 3):
        opt = typed(opt_types)
        ts = optimize_t(TYPE_LOSSES[list(opt_types)], cost)
        select = lambda cal: select_oce_rcps(cal, opt, spec, GRID, cost, FNR)
        miss = scan_miss(cal_sequences, cost, ts, delta, spec.alpha, select)
        assert miss.max() <= delta, (delta, opt_types, WEIGHTS[miss.argmax()], miss.max())
