import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oce_rcps.bounds import (
    _STEPS,
    _hoeffding_ucb,
    _last_grid_point_at_most,
    _wsr_ucb,
    betting_fractions,
    capital_process,
    oce_risk_ucb,
    oce_risk_ucb_at_most,
)
from oce_rcps.risk import OceCost, bound_B


def wsr(z, delta):
    """The block WSR bound of one sample vector (a block of one column)."""
    return float(_wsr_ucb(z[None], delta)[0])


def hoeffding(z, delta):
    return float(_hoeffding_ucb(z[None], delta)[0])


def test_capital_single_zero_sample():
    z = np.array([0.0])
    assert capital_process(z, 0.0, betting_fractions(z, 0.1)) == 1.0


def test_capital_single_sample_full_bet():
    assert capital_process(np.array([0.0]), 1.0, np.ones(1)) == 2.0


def test_capital_running_max_includes_initial_capital():
    # product goes to zero but the empty prefix keeps the max at 1
    assert capital_process(np.array([1.0, 1.0]), 0.0, np.ones(2)) == 1.0


def test_capital_monotone_in_R():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(size=rng.integers(1, 100))
        etas = betting_fractions(z, 0.1)
        rs = np.sort(rng.uniform(size=8))
        caps = [capital_process(z, r, etas) for r in rs]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))


def test_schedule_is_predictable():
    rng = np.random.default_rng(1)
    z = rng.uniform(size=50)
    etas = betting_fractions(z, 0.1)
    for j in (1, 10, 25, 49):
        permuted = z.copy()
        permuted[j:] = permuted[j:][::-1]
        etas_p = betting_fractions(permuted, 0.1)
        assert np.array_equal(etas[: j + 1], etas_p[: j + 1])


def test_schedule_caps_eta():
    # all-zero samples drive the variance estimate down, so the cap of 1 binds
    etas = betting_fractions(np.zeros(100), 0.01)
    assert np.all(etas > 0) and np.all(etas <= 1.0)
    assert np.any(etas == 1.0)


def test_wsr_ucb_on_zeros():
    ucb = wsr(np.zeros(100), 0.1)
    assert 0.0 < ucb <= 0.05


def test_wsr_ucb_single_sample_never_rejects():
    # capital 1 + R <= 2 never strictly exceeds 1/delta = 2
    assert wsr(np.zeros(1), 0.5) == 1.0


def test_wsr_ucb_range_and_dominates_mean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.uniform(size=rng.integers(1, 200))
        ucb = wsr(z, 0.1)
        assert 0.0 <= ucb <= 1.0
        mean = z.mean()
        if capital_process(z, mean, betting_fractions(z, 0.1)) <= 10.0:
            assert ucb >= mean - 2**-20


def test_wsr_ucb_monotone_in_delta():
    rng = np.random.default_rng(3)
    z = (rng.uniform(size=300) < 0.4).astype(float)
    ucbs = [wsr(z, d) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-9 for a, b in zip(ucbs, ucbs[1:]))


def test_wsr_ucb_is_first_rejected_bisection_point():
    # the bisection returns the smallest rejected point k/2^20: u is
    # rejected and the grid point just below it is not
    rng = np.random.default_rng(4)
    for n in (20, 200, 800):
        for delta in (0.05, 0.2):
            z = rng.uniform(size=n) * rng.uniform()
            u = wsr(z, delta)
            assert 0.0 < u < 1.0
            assert u * 2**20 == int(u * 2**20)
            etas = betting_fractions(z, delta)
            assert capital_process(z, u, etas) > 1.0 / delta
            assert capital_process(z, u - 2**-20, etas) <= 1.0 / delta


def test_oce_risk_ucb_validation():
    with pytest.raises(ValueError):
        oce_risk_ucb(np.array([]), OceCost.average(), 0.0, 0.1)
    for delta in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            oce_risk_ucb(np.array([0.5]), OceCost.average(), 0.0, delta)
        # checked before the constant-range shortcut at t = LOSS_MAX too
        with pytest.raises(ValueError):
            oce_risk_ucb(np.array([0.5]), OceCost.cvar(0.5), 1.0, delta)


def test_hoeffding_examples():
    ucb = hoeffding(np.full(800, 0.3), 0.2)
    assert ucb == pytest.approx(0.3 + math.sqrt(math.log(5) / 1600))
    assert hoeffding(np.ones(10), 0.1) == 1.0
    ucb = hoeffding(np.zeros(4), 0.999)
    assert ucb == pytest.approx(math.sqrt(math.log(1 / 0.999) / 8))


def test_oce_risk_ucb_average_reduces_to_wsr():
    rng = np.random.default_rng(5)
    z = rng.uniform(size=150)
    direct = wsr(z, 0.1)
    lifted = oce_risk_ucb(z, OceCost.average(), 0.0, 0.1)
    assert lifted == direct


def test_oce_risk_ucb_constant_range_short_circuit():
    # cvar with t = LOSS_MAX: transformed loss is identically t
    ucb = oce_risk_ucb(np.full(50, 0.4), OceCost.cvar(0.5), 1.0, 0.1)
    assert ucb == 1.0
    ucb = oce_risk_ucb(np.full(50, 1.0), OceCost.average(), 1.0, 0.1)
    assert ucb == 1.0


def test_oce_risk_ucb_entropic_zero_losses():
    cost = OceCost.entropic(3)
    t = 0.5
    lo = t + (math.expm1(-3 * t)) / 3
    hi = t + (math.expm1(3 * (1 - t))) / 3
    ucb = oce_risk_ucb(np.zeros(100), cost, t, 0.1)
    # z is all zeros, so the normalized UCB matches the zeros bound above
    assert lo <= ucb <= lo + 0.05 * (hi - lo)


def test_oce_risk_ucb_rejects_bad_t():
    with pytest.raises(ValueError):
        oce_risk_ucb(np.zeros(10), OceCost.average(), 1.5, 0.1)


def test_oce_risk_ucb_checks_method_first():
    # checked before the constant-range shortcut (cvar at t = LOSS_MAX)
    with pytest.raises(ValueError):
        oce_risk_ucb(np.zeros(3), OceCost.cvar(0.5), 1.0, 0.1, method="bogus")


def test_oce_risk_ucb_block_needs_one_t_per_column():
    with pytest.raises(ValueError):
        oce_risk_ucb(np.zeros((5, 3)), OceCost.average(), np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        oce_risk_ucb(np.zeros((5, 3)), OceCost.average(), np.array([0.0, 0.5, 1.5]), 0.1)


COSTS = [OceCost.average(), OceCost.cvar(0.5), OceCost.cvar(0.9), OceCost.entropic(1),
         OceCost.entropic(3)]
# "top" keeps random samples but takes t = LOSS_MAX, where cvar's range is constant
KINDS = ("uniform", "grid", "zeros", "ones", "top")


def draw_block(data, rng, n, k, extra_ts=()):
    """An (n, k) loss block of the KINDS of column, and one t per column."""
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=k, max_size=k))
    ts = data.draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), *map(st.just, extra_ts), st.floats(0.0, 1.0)),
        min_size=k, max_size=k,
    ))
    columns = []
    for j, kind in enumerate(kinds):
        if kind == "zeros":
            columns.append(np.zeros(n))
        elif kind == "ones":
            columns.append(np.ones(n))
        elif kind == "grid":  # FNR-like values with ties
            columns.append(rng.integers(0, 11, size=n) / 10.0)
        else:
            columns.append(rng.uniform(size=n) * rng.uniform())
            if kind == "top":
                ts[j] = 1.0
    return np.column_stack(columns), ts


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 60),
    k=st.integers(1, 40),
    delta=st.floats(0.01, 0.99),
    cost=st.sampled_from(COSTS),
    method=st.sampled_from(("wsr", "hoeffding")),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_block_bound_matches_scalar_oracle(data, n, k, delta, cost, method, seed, fortran):
    rng = np.random.default_rng(seed)
    block, ts = draw_block(data, rng, n, k)
    if fortran:  # the column-major layout the selectors pass
        block = np.asfortranarray(block)
    got = oce_risk_ucb(block, cost, np.array(ts), delta, method=method)
    want = [oracles.oce_risk_ucb(block[:, j], cost, ts[j], delta, method) for j in range(k)]
    assert got.tolist() == want
    single = oce_risk_ucb(block[:, 0], cost, ts[0], delta, method=method)
    assert type(single) is float and single == want[0]


def test_block_bound_edge_columns_in_one_block():
    # all-zero, all-one and constant-range columns next to random ones
    rng = np.random.default_rng(7)
    block = np.column_stack([np.zeros(40), np.ones(40), rng.uniform(size=40), np.full(40, 0.4)])
    ts = np.array([0.3, 0.3, 0.3, 1.0])
    cost = OceCost.cvar(0.9)
    got = oce_risk_ucb(block, cost, ts, 0.1).tolist()
    assert got == [oracles.oce_risk_ucb(block[:, j], cost, ts[j], 0.1) for j in range(4)]
    assert got[1] == bound_B(cost, 0.3)  # all ones: nothing below 1 is rejected, the bound is hi
    assert got[3] == 1.0  # constant range at t = LOSS_MAX
    # one sample never rejects anything in [0, 1], so every column returns hi
    assert _wsr_ucb(block[:1].T, 0.2).tolist() == [1.0] * 4


def test_wsr_block_returns_zero_like_scalar():
    # oce_risk_ucb clips samples to [0, 1], where R = 0 is never rejected;
    # rows shifted below 0 reach the branch that returns 0
    rng = np.random.default_rng(8)
    z = np.stack([rng.uniform(size=50) - shift for shift in (0.0, 0.5, 1.0, 2.0)])
    got = _wsr_ucb(z, 0.1).tolist()
    assert got == [oracles.wsr_ucb(row, 0.1) for row in z]
    assert got[-1] == 0.0 and 0.0 < got[0] < 1.0


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.just(1), st.integers(1, 300)),
    k=st.integers(1, 8),
    delta=st.floats(0.01, 0.99),
    cost=st.sampled_from(COSTS),
    method=st.sampled_from(("wsr", "hoeffding")),
    seed=st.integers(0, 2**32 - 1),
)
def test_decision_is_bound_at_most_alpha(data, n, k, delta, cost, method, seed):
    # t just below LOSS_MAX leaves cvar a range of a few ulps, where the
    # rounded grid point is far from the right one
    block, ts = draw_block(data, np.random.default_rng(seed), n, k, extra_ts=(1.0 - 2**-52,))
    ts = np.array(ts)
    ucb = oce_risk_ucb(block, cost, ts, delta, method=method)
    j = data.draw(st.integers(0, k - 1))
    at = float(ucb[j])
    for alpha in (at, np.nextafter(at, -math.inf), np.nextafter(at, math.inf),
                  data.draw(st.floats(0.0, 2.0))):
        got = oce_risk_ucb_at_most(block, cost, ts, delta, alpha, method=method)
        assert got.tolist() == (ucb <= alpha).tolist()
        single = oce_risk_ucb_at_most(block[:, j], cost, ts[j], delta, alpha, method=method)
        assert type(single) is bool and single == (at <= alpha)


@pytest.mark.parametrize("lo, span", [(0.3, 0.7), (1.0, 1e-16), (0.5, 3e-17), (0.0, 5e-324)])
def test_last_grid_point_matches_exhaustive_search(lo, span):
    values = lo + span * (np.arange(_STEPS + 1) / _STEPS)
    rng = np.random.default_rng(9)
    alphas = [lo, lo + span, np.nextafter(lo, -1.0), *values[rng.integers(0, _STEPS + 1, 5)]]
    for alpha in alphas:
        fits = np.flatnonzero(values <= alpha)
        want = fits[-1] if fits.size else -1
        assert _last_grid_point_at_most(np.array([lo]), np.array([span]), alpha)[0] == want
