import math

import numpy as np
import pytest

from oce_rcps.bounds import _hoeffding_ucb, _wsr_ucb, betting_fractions, capital_process, oce_risk_ucb
from oce_rcps.risk import OceCost


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
    ucb = _wsr_ucb(np.zeros(100), 0.1)
    assert 0.0 < ucb <= 0.05


def test_wsr_ucb_single_sample_never_rejects():
    # capital 1 + R <= 2 never strictly exceeds 1/delta = 2
    assert _wsr_ucb(np.zeros(1), 0.5) == 1.0


def test_wsr_ucb_range_and_dominates_mean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.uniform(size=rng.integers(1, 200))
        ucb = _wsr_ucb(z, 0.1)
        assert 0.0 <= ucb <= 1.0
        mean = z.mean()
        if capital_process(z, mean, betting_fractions(z, 0.1)) <= 10.0:
            assert ucb >= mean - 2**-20


def test_wsr_ucb_monotone_in_delta():
    rng = np.random.default_rng(3)
    z = (rng.uniform(size=300) < 0.4).astype(float)
    ucbs = [_wsr_ucb(z, d) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-9 for a, b in zip(ucbs, ucbs[1:]))


def test_wsr_ucb_is_first_rejected_bisection_point():
    # the bisection returns the smallest rejected point k/2^20: u is
    # rejected and the grid point just below it is not
    rng = np.random.default_rng(4)
    for n in (20, 200, 800):
        for delta in (0.05, 0.2):
            z = rng.uniform(size=n) * rng.uniform()
            u = _wsr_ucb(z, delta)
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
    ucb = _hoeffding_ucb(np.full(800, 0.3), 0.2)
    assert ucb == pytest.approx(0.3 + math.sqrt(math.log(5) / 1600))
    assert _hoeffding_ucb(np.ones(10), 0.1) == 1.0
    ucb = _hoeffding_ucb(np.zeros(4), 0.999)
    assert ucb == pytest.approx(math.sqrt(math.log(1 / 0.999) / 8))


def test_oce_risk_ucb_average_reduces_to_wsr():
    rng = np.random.default_rng(5)
    z = rng.uniform(size=150)
    direct = _wsr_ucb(z, 0.1)
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
