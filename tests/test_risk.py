import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oce_rcps.risk import (
    LOSS_MAX,
    InvalidExampleError,
    LossKind,
    OceCost,
    ScoredExample,
    bound_B,
    build_prediction_set,
    compute_loss,
    empirical_objective,
    empirical_oce,
    losses_at,
    phi_eval,
    relative_set_sizes,
    transformed_losses,
)

FNR = LossKind("fnr")
MISS = LossKind("miscoverage")


def example(scores, truth):
    return ScoredExample(np.asarray(scores, dtype=float), frozenset(truth))


# ---------------------------------------------------------------- sets

def test_build_prediction_set_threshold():
    ex = example([0.9, 0.5, 0.1], {0})
    assert build_prediction_set(ex, 0.5).members == {0, 1}
    assert build_prediction_set(ex, 1.0).members == {0, 1, 2}
    assert build_prediction_set(ex, 0.0).members == frozenset()


def test_build_prediction_set_closed_threshold():
    ex = example([1.0, 0.3], {0})
    # lambda=0 means threshold 1; scores equal to 1 are still included
    assert build_prediction_set(ex, 0.0).members == {0}


scores_strategy = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=20
)


@st.composite
def examples_strategy(draw, nonempty_truth=False):
    scores = draw(scores_strategy)
    m = len(scores)
    min_truth = 1 if nonempty_truth else 0
    truth = draw(st.sets(st.integers(0, m - 1), min_size=min_truth, max_size=m))
    return example(scores, truth)


@given(examples_strategy(), st.floats(0, 1), st.floats(0, 1))
def test_nesting(ex, l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    assert build_prediction_set(ex, lo).members <= build_prediction_set(ex, hi).members


@given(examples_strategy(nonempty_truth=True), st.floats(0, 1), st.floats(0, 1))
def test_loss_monotone_in_lambda(ex, l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    for kind in (FNR, MISS):
        loss_lo = compute_loss(kind, ex, build_prediction_set(ex, lo))
        loss_hi = compute_loss(kind, ex, build_prediction_set(ex, hi))
        assert loss_lo >= loss_hi
        assert 0.0 <= loss_hi <= loss_lo <= LOSS_MAX


# ---------------------------------------------------------------- losses

def test_fnr_values():
    ex = example([0.9] * 6, range(4))
    full = build_prediction_set(ex, 1.0)
    assert compute_loss(FNR, ex, full) == 0.0
    half = ex.__class__(np.array([0.9, 0.9, 0.1, 0.1, 0.9, 0.9]), frozenset(range(4)))
    pset = build_prediction_set(half, 0.5)  # members: scores >= 0.5 -> {0,1,4,5}
    assert compute_loss(FNR, half, pset) == 0.5


def test_miscoverage_excluded_element():
    ex = example([0.9, 0.8, 0.1], {2})
    pset = build_prediction_set(ex, 0.5)
    assert pset.members == {0, 1}
    assert compute_loss(MISS, ex, pset) == 1.0


def test_fnr_empty_truth_rejected():
    ex = example([0.5], set())
    with pytest.raises(InvalidExampleError):
        compute_loss(FNR, ex, build_prediction_set(ex, 1.0))


def reference_losses(kind, exs, lams):
    return np.array(
        [[compute_loss(kind, ex, build_prediction_set(ex, l)) for l in lams] for ex in exs]
    ).reshape(len(exs), len(lams))


def reference_rel_sizes(exs, lam):
    return [len(build_prediction_set(ex, lam).members) / max(len(ex.truth), 1) for ex in exs]


def test_fast_losses_match_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(1, 30)
        scores = rng.uniform(size=m)
        truth = set(rng.choice(m, size=rng.integers(1, m + 1), replace=False).tolist())
        ex = example(scores, truth)
        lams = rng.uniform(size=7)
        for kind in (FNR, MISS):
            assert np.array_equal(losses_at([ex], kind, lams), reference_losses(kind, [ex], lams))
        for l in lams:
            assert relative_set_sizes([ex], l).tolist() == reference_rel_sizes([ex], l)


@st.composite
def grid_cases(draw):
    """Examples of mixed m whose scores sit on the thresholds 1 - k/G (or
    at 0 and 1), with a shuffled grid that repeats some lambdas."""
    G = draw(st.integers(1, 12))
    grid = [k / G for k in range(G + 1)]
    levels = st.sampled_from(sorted({1.0 - lam for lam in grid} | {0.0, 1.0}))
    exs = []
    for _ in range(draw(st.integers(0, 6))):
        scores = draw(st.lists(levels, min_size=1, max_size=8))
        truth = draw(st.sets(st.integers(0, len(scores) - 1), max_size=len(scores)))
        exs.append(example(scores, truth))
    lams = draw(st.permutations(grid + draw(st.lists(st.sampled_from(grid), max_size=4))))
    return exs, lams


@settings(deadline=None)
@given(grid_cases())
def test_fast_path_matches_reference_on_grid(case):
    exs, lams = case
    for kind in (FNR, MISS):
        if kind == FNR and not all(ex.truth for ex in exs):
            with pytest.raises(InvalidExampleError):
                losses_at(exs, kind, lams)
            continue
        assert np.array_equal(losses_at(exs, kind, lams), reference_losses(kind, exs, lams))
    for l in lams:
        assert relative_set_sizes(exs, l).tolist() == reference_rel_sizes(exs, l)


def test_fast_path_empty_dataset():
    for kind in (FNR, MISS):
        assert losses_at([], kind, [0.2, 0.7]).shape == (0, 2)
    assert relative_set_sizes([], 0.5).shape == (0,)


def test_relative_size_of_empty_truth_is_set_size():
    exs = [example([0.9, 0.6, 0.1], set()), example([0.9, 0.6, 0.1], {0, 1})]
    assert relative_set_sizes(exs, 0.5).tolist() == [2.0, 1.0]
    assert losses_at(exs, MISS, [0.0, 0.5]).tolist() == [[0.0, 0.0], [1.0, 0.0]]


# ---------------------------------------------------------------- phi

def test_phi_eval_table():
    assert phi_eval(OceCost.average(), 0.7) == 0.7
    assert phi_eval(OceCost.entropic(3), 0.0) == 0.0
    assert phi_eval(OceCost.entropic(3), 1.0) == pytest.approx((math.e**3 - 1) / 3)
    assert phi_eval(OceCost.cvar(0.9), 0.05) == pytest.approx(0.5)


def test_phi_entropic_overflow_rejected():
    with pytest.raises(OverflowError):
        phi_eval(OceCost.entropic(1000.0), 1.0)


def test_cost_parameter_validation():
    with pytest.raises(ValueError):
        OceCost.entropic(0.0)
    with pytest.raises(ValueError):
        OceCost.cvar(1.0)
    with pytest.raises(ValueError):
        OceCost("average", 2.0)


def test_transformed_loss_examples():
    assert transformed_losses(OceCost.average(), 0.3, [0.8])[0] == pytest.approx(0.8)
    assert transformed_losses(OceCost.cvar(0.5), 0.2, [0.1])[0] == pytest.approx(0.2)
    assert transformed_losses(OceCost.entropic(1), 0.0, [0.0])[0] == 0.0


COSTS = [
    OceCost.average(),
    OceCost.entropic(0.5),
    OceCost.entropic(3),
    OceCost.cvar(0.5),
    OceCost.cvar(0.9),
]


@pytest.mark.parametrize("cost", COSTS)
def test_transformed_loss_dominated_by_bound(cost):
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = rng.uniform(0, 1)
        loss = rng.uniform(0, 1)
        assert transformed_losses(cost, t, [loss])[0] <= bound_B(cost, t) + 1e-12


def test_bound_B_examples():
    assert bound_B(OceCost.average(), 0.0) == 1.0
    assert bound_B(OceCost.cvar(0.9), 0.5) == pytest.approx(5.5)
    assert bound_B(OceCost.entropic(3), 1.0) == 1.0


# ---------------------------------------------------------------- empirical

def test_empirical_objective_examples():
    assert empirical_objective([0.1, 0.3], OceCost.average(), 0.77) == pytest.approx(0.2)
    assert empirical_objective([0.1, 0.2, 0.3, 0.4], OceCost.cvar(0.5), 0.2) == pytest.approx(0.35)
    assert empirical_objective([0.3, 0.3], OceCost.entropic(3), 0.3) == pytest.approx(0.3)


def test_empirical_objective_empty_rejected():
    with pytest.raises(ValueError):
        empirical_objective([], OceCost.average(), 0.0)
    with pytest.raises(ValueError):
        empirical_oce([], OceCost.average())


def test_empirical_oce_examples():
    value, t_star = empirical_oce([0.1, 0.2, 0.3, 0.4], OceCost.cvar(0.5))
    # sort-and-average tail oracle: mean of the top 2 losses
    assert value == pytest.approx(np.mean([0.3, 0.4]))
    assert t_star == pytest.approx(0.2)
    value, t_star = empirical_oce([0.0, 1.0], OceCost.entropic(1))
    assert value == pytest.approx(math.log((1 + math.e) / 2))
    assert value == t_star
    value, t_star = empirical_oce([0.2, 0.4, 0.6], OceCost.average())
    assert value == pytest.approx(0.4)
    assert t_star == 0.0


def brute_force_oce(losses, cost, grid=20001):
    ts = np.linspace(0.0, 1.0, grid)
    return min(empirical_objective(losses, cost, t) for t in ts)


@pytest.mark.parametrize("cost", COSTS)
def test_empirical_oce_matches_grid_minimum(cost):
    rng = np.random.default_rng(5)
    for _ in range(5):
        losses = rng.uniform(size=40)
        value, t_star = empirical_oce(losses, cost)
        brute = brute_force_oce(losses, cost, grid=4001)
        assert value == pytest.approx(brute, abs=2e-4)
        assert value <= empirical_objective(losses, cost, t_star) + 1e-12


@pytest.mark.parametrize("cost", COSTS)
def test_oce_never_exceeds_objective(cost):
    rng = np.random.default_rng(7)
    for _ in range(50):
        losses = rng.uniform(size=rng.integers(1, 60))
        value, _ = empirical_oce(losses, cost)
        for t in rng.uniform(0, 1, size=10):
            assert value <= empirical_objective(losses, cost, t) + 1e-12
        assert losses.min() - 1e-12 <= value <= losses.max() + 1e-12


def test_identity_cost_degeneracy():
    rng = np.random.default_rng(9)
    losses = rng.uniform(size=30)
    base = empirical_objective(losses, OceCost.average(), 0.0)
    for t in rng.uniform(0, 1, size=20):
        assert abs(empirical_objective(losses, OceCost.average(), t) - base) < 1e-12
    assert empirical_oce(losses, OceCost.average())[0] == np.mean(losses)


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
def test_oce_of_constant(cost, c):
    losses = np.full(25, c)
    value, _ = empirical_oce(losses, cost)
    assert value == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("cost", COSTS)
def test_objective_convex_in_t(cost):
    rng = np.random.default_rng(13)
    for _ in range(100):
        losses = rng.uniform(size=rng.integers(1, 40))
        t1, t2 = sorted(rng.uniform(0, 1, size=2))
        mid = empirical_objective(losses, cost, (t1 + t2) / 2)
        avg = (
            empirical_objective(losses, cost, t1)
            + empirical_objective(losses, cost, t2)
        ) / 2
        assert mid <= avg + 1e-9


def test_invalid_examples_rejected():
    with pytest.raises(InvalidExampleError):
        example([1.2], {0})
    with pytest.raises(InvalidExampleError):  # NaN compares false both ways
        example([0.2, math.nan, 0.9], {1, 2})
    with pytest.raises(InvalidExampleError):
        example([0.5], {3})
    with pytest.raises(InvalidExampleError):
        example([], set())
