import math

import numpy as np
import pytest

from oce_rcps.calibrate import (
    LambdaGrid,
    ReliabilitySpec,
    optimize_t,
    select_oce_crc,
    select_oce_rcps,
    select_rcps,
)
from oce_rcps.risk import LossKind, OceCost, ScoredExample, empirical_objective
from oracles import golden_section_minimize, golden_section_t

FNR = LossKind("fnr")
MISS = LossKind("miscoverage")


def singleton(score):
    """One-element example whose miscoverage loss is 1{lambda < 1 - score}."""
    return ScoredExample(np.array([score]), frozenset({0}))


def random_dataset(rng, n, m=8):
    out = []
    for _ in range(n):
        scores = rng.uniform(size=m)
        truth = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        out.append(ScoredExample(scores, frozenset(truth.tolist())))
    return out


# ---------------------------------------------------------------- optimize_t

def test_optimize_t_cvar_order_statistic():
    losses = np.array([0.1, 0.2, 0.3, 0.4])
    t = optimize_t(losses, OceCost.cvar(0.5))
    assert t == pytest.approx(0.2)
    assert empirical_objective(losses, OceCost.cvar(0.5), t) == pytest.approx(0.35)


def test_optimize_t_average_is_zero():
    assert optimize_t(np.array([0.3, 0.9]), OceCost.average()) == 0.0


def test_optimize_t_entropic_log_mean_exp():
    t = optimize_t(np.array([0.0, 1.0]), OceCost.entropic(3))
    assert t == pytest.approx(math.log((1 + math.e**3) / 2) / 3)


def test_optimize_t_empty_rejected():
    with pytest.raises(ValueError):
        optimize_t(np.array([]), OceCost.average())


@pytest.mark.parametrize(
    "cost", [OceCost.entropic(1), OceCost.cvar(0.5), OceCost.cvar(0.9)]
)
def test_golden_section_agrees_with_closed_form(cost):
    rng = np.random.default_rng(17)
    for _ in range(10):
        losses = rng.uniform(size=50)
        tc = optimize_t(losses, cost)
        tg = golden_section_t(losses, cost)
        fc = empirical_objective(losses, cost, tc)
        fg = empirical_objective(losses, cost, tg)
        assert abs(fc - fg) < 1e-5


def test_golden_section_minimizer_quadratic():
    t = golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert t == pytest.approx(0.3, abs=1e-5)


# ---------------------------------------------------------------- OCE-CRC

def test_crc_worked_instance():
    cal = [singleton(0.6), singleton(0.8)]
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.35, 0.2), LambdaGrid(1000),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    # at lambda=0.4 both losses vanish: (2/3)*0 + 1/3 = 0.3333 <= 0.35
    assert out.lambda_hat == pytest.approx(0.4)
    assert out.feasible
    assert out.trace[-1].bound == pytest.approx(1.0 / 3.0)


def test_crc_passes_at_zero_when_alpha_large():
    cal = [singleton(1.0)] * 4  # zero loss even at lambda = 0
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.5, 0.2), LambdaGrid(10),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    assert out.lambda_hat == 0.0


def test_crc_infeasible_at_alpha_zero():
    cal = [singleton(0.5)] * 3
    out = select_oce_crc(
        cal, cal, ReliabilitySpec(0.0, 0.2), LambdaGrid(10),
        OceCost.average(), MISS, fixed_t=0.0,
    )
    assert not out.feasible
    assert out.lambda_hat == 1.0
    assert all(not e.passed for e in out.trace)


def test_crc_ignores_delta_bit_identical():
    rng = np.random.default_rng(23)
    cal = random_dataset(rng, 30)
    opt = random_dataset(rng, 10)
    outs = [
        select_oce_crc(
            cal, opt, ReliabilitySpec(0.3, d), LambdaGrid(50), OceCost.cvar(0.8), FNR
        )
        for d in (0.05, 0.2, 0.9)
    ]
    for o in outs[1:]:
        assert o.lambda_hat == outs[0].lambda_hat
        assert o.t_by_lambda == outs[0].t_by_lambda
        assert [(e.lam, e.bound, e.passed) for e in o.trace] == [
            (e.lam, e.bound, e.passed) for e in outs[0].trace
        ]


# ---------------------------------------------------------------- RCPS family

def test_rcps_alpha_one_selects_zero():
    rng = np.random.default_rng(29)
    cal = random_dataset(rng, 20)
    out = select_rcps(cal, ReliabilitySpec(1.0, 0.2), LambdaGrid(10), FNR)
    assert out.feasible and out.lambda_hat == 0.0


def test_rcps_zero_losses_above_threshold():
    # all truth scores are 0.5, so FNR is 0 for every lambda >= 0.5
    cal = [ScoredExample(np.full(4, 0.5), frozenset({0, 1, 2, 3}))] * 800
    out = select_rcps(cal, ReliabilitySpec(0.1, 0.2), LambdaGrid(10), FNR)
    assert out.feasible
    assert out.lambda_hat <= 0.5


def test_rcps_single_example_infeasible():
    cal = [singleton(0.7)]
    out = select_rcps(cal, ReliabilitySpec(0.5, 0.5), LambdaGrid(10), MISS)
    assert not out.feasible and out.lambda_hat == 1.0


def test_oce_rcps_alpha_zero_infeasible():
    rng = np.random.default_rng(31)
    cal = random_dataset(rng, 50)
    out = select_oce_rcps(
        cal, random_dataset(rng, 20), ReliabilitySpec(0.0, 0.2), LambdaGrid(10),
        OceCost.average(), FNR,
    )
    assert not out.feasible and out.lambda_hat == 1.0


def test_oce_rcps_average_reduces_to_rcps():
    rng = np.random.default_rng(37)
    for _ in range(5):
        cal = random_dataset(rng, 40)
        spec = ReliabilitySpec(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.4))
        grid = LambdaGrid(20)
        a = select_oce_rcps(
            cal, [], spec, grid, OceCost.average(), FNR, fixed_t=0.0
        )
        b = select_rcps(cal, spec, grid, FNR)
        assert a.lambda_hat == b.lambda_hat
        assert a.feasible == b.feasible
        assert [(e.lam, e.bound, e.passed) for e in a.trace] == [
            (e.lam, e.bound, e.passed) for e in b.trace
        ]


def test_suffix_property():
    rng = np.random.default_rng(41)
    for _ in range(10):
        cal = random_dataset(rng, 60)
        spec = ReliabilitySpec(rng.uniform(0.2, 0.8), 0.2)
        out = select_oce_rcps(
            cal, random_dataset(rng, 20), spec, LambdaGrid(25), OceCost.cvar(0.8), FNR
        )
        if out.feasible:
            assert out.lambda_hat in set(LambdaGrid(25).values)
            for e in out.trace:
                if e.lam >= out.lambda_hat:
                    assert e.passed


def test_grid_refinement_monotonicity():
    rng = np.random.default_rng(43)
    cal = random_dataset(rng, 80)
    opt = random_dataset(rng, 30)
    spec = ReliabilitySpec(0.5, 0.2)
    coarse = select_oce_rcps(cal, opt, spec, LambdaGrid(20), OceCost.cvar(0.8), FNR)
    fine = select_oce_rcps(cal, opt, spec, LambdaGrid(40), OceCost.cvar(0.8), FNR)
    assert coarse.feasible and fine.feasible
    assert fine.lambda_hat <= coarse.lambda_hat + 1e-12
    assert coarse.lambda_hat - fine.lambda_hat <= 1.0 / 20 + 1e-12


def test_delta_monotonicity():
    rng = np.random.default_rng(47)
    cal = random_dataset(rng, 100)
    opt = random_dataset(rng, 30)
    lams = []
    for delta in (0.05, 0.1, 0.2, 0.4):
        out = select_oce_rcps(
            cal, opt, ReliabilitySpec(0.5, delta), LambdaGrid(40), OceCost.cvar(0.8), FNR
        )
        lams.append(out.lambda_hat)
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_empty_cal_rejected():
    with pytest.raises(ValueError):
        select_rcps([], ReliabilitySpec(0.5, 0.2), LambdaGrid(5), FNR)
    with pytest.raises(ValueError):
        select_oce_crc([], [], ReliabilitySpec(0.5, 0.2), LambdaGrid(5), OceCost.average(), FNR)


@pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
def test_reliability_spec_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        ReliabilitySpec(alpha, 0.2)


def test_grid_values_include_endpoints():
    grid = LambdaGrid(7)
    assert grid.values[0] == 0.0 and grid.values[-1] == 1.0
    assert np.all(np.diff(grid.values) > 0)
    with pytest.raises(ValueError):
        LambdaGrid(0)
