import math

import numpy as np
import pytest

from oce_rcps.bounds import (
    BoundRequest,
    betting_fractions,
    capital_process,
    hoeffding_ucb,
    oce_risk_ucb,
    wsr_ucb,
)
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
    ucb = wsr_ucb(BoundRequest(np.zeros(100), 0.1))
    assert 0.0 < ucb <= 0.05


def test_wsr_ucb_single_sample_never_rejects():
    # capital 1 + R <= 2 never strictly exceeds 1/delta = 2
    assert wsr_ucb(BoundRequest(np.zeros(1), 0.5)) == 1.0


def test_wsr_ucb_range_and_dominates_mean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.uniform(size=rng.integers(1, 200))
        req = BoundRequest(z, 0.1)
        ucb = wsr_ucb(req)
        assert 0.0 <= ucb <= 1.0
        mean = z.mean()
        if capital_process(z, mean, betting_fractions(z, 0.1)) <= 10.0:
            assert ucb >= mean - req.tolerance


def test_wsr_ucb_monotone_in_delta():
    rng = np.random.default_rng(3)
    z = (rng.uniform(size=300) < 0.4).astype(float)
    ucbs = [wsr_ucb(BoundRequest(z, d)) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-9 for a, b in zip(ucbs, ucbs[1:]))


def test_wsr_ucb_conservative_rounding():
    rng = np.random.default_rng(4)
    z = rng.uniform(size=200)
    coarse = wsr_ucb(BoundRequest(z, 0.1, tolerance=1e-3))
    fine = wsr_ucb(BoundRequest(z, 0.1, tolerance=1e-7))
    assert fine <= coarse + 1e-12
    assert coarse - fine <= 1e-3


def test_bound_request_validation():
    with pytest.raises(ValueError):
        BoundRequest(np.array([]), 0.1)
    with pytest.raises(ValueError):
        BoundRequest(np.array([1.2]), 0.1)
    with pytest.raises(ValueError):
        BoundRequest(np.array([0.5]), 1.0)


def test_hoeffding_examples():
    ucb = hoeffding_ucb(BoundRequest(np.full(800, 0.3), 0.2))
    assert ucb == pytest.approx(0.3 + math.sqrt(math.log(5) / 1600))
    assert hoeffding_ucb(BoundRequest(np.ones(10), 0.1)) == 1.0
    ucb = hoeffding_ucb(BoundRequest(np.zeros(4), 0.999))
    assert ucb == pytest.approx(math.sqrt(math.log(1 / 0.999) / 8))


def test_oce_risk_ucb_average_reduces_to_wsr():
    rng = np.random.default_rng(5)
    z = rng.uniform(size=150)
    direct = wsr_ucb(BoundRequest(z, 0.1))
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
