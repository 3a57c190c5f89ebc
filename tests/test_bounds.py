import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oce_rcps import bounds
from oce_rcps.bounds import (
    _STEPS,
    _crossed,
    _hoeffding_ucb,
    _last_grid_point_at_most,
    _wsr_ucb,
    betting_fractions,
    capital_process,
    oce_risk_ucb,
    oce_risk_ucb_at_most,
)
from oce_rcps.risk import OceCost, bound_B, phi, transformed_losses


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
    # unchecked, a NaN gives the bound 0 while the decision disagrees with it
    for bad in (math.nan, -1e-300, 1.0 + 2**-52, math.inf):
        for cost in (OceCost.average(), OceCost.entropic(3), OceCost.cvar(0.5)):
            losses = np.zeros(201)
            losses[100] = bad
            with pytest.raises(ValueError, match=r"losses must lie in \[0, LOSS_MAX\]"):
                oce_risk_ucb(losses, cost, 0.0, 0.1)
            with pytest.raises(ValueError, match=r"losses must lie in \[0, LOSS_MAX\]"):
                oce_risk_ucb_at_most(losses[:, None], cost, np.zeros(1), 0.1, 0.3)
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


@pytest.mark.parametrize("method", ["wsr", "hoeffding"])
def test_block_with_no_live_column(method):
    # cvar at t = LOSS_MAX in every column: lo = hi = 1, nothing to bound
    rng = np.random.default_rng(10)
    block, cost, delta = rng.uniform(size=(60, 5)), OceCost.cvar(0.9), 0.1
    ucb = oce_risk_ucb(block, cost, np.ones(5), delta, method=method)
    assert ucb.tolist() == [1.0] * 5
    single = oce_risk_ucb(block[:, 0], cost, 1.0, delta, method=method)
    assert type(single) is float and single == 1.0
    for alpha in (1.0, np.nextafter(1.0, 0.0)):
        got = oce_risk_ucb_at_most(block, cost, np.ones(5), delta, alpha, method=method)
        assert got.tolist() == [1.0 <= alpha] * 5
        single = oce_risk_ucb_at_most(block[:, 0], cost, 1.0, delta, alpha, method=method)
        assert type(single) is bool and single == (1.0 <= alpha)


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


@pytest.mark.parametrize("bound", [
    lambda losses, t: oce_risk_ucb(losses, OceCost.cvar(0.5), t, 0.1),
    lambda losses, t: oce_risk_ucb_at_most(losses, OceCost.cvar(0.5), t, 0.1, 0.3),
], ids=["ucb", "ucb_at_most"])
def test_oce_risk_ucb_input_checks_run_in_order(bound):
    # empty losses, then one t per column, then the losses' range, then t's
    bad = np.full((5, 3), math.nan)
    for losses in (np.empty(0), np.empty((0, 3)), np.empty((5, 0))):
        with pytest.raises(ValueError, match="losses must be nonempty"):
            bound(losses, np.full(2, 1.5))
    with pytest.raises(ValueError, match="need one t per loss column"):
        bound(bad, np.full(2, 1.5))
    with pytest.raises(ValueError, match=r"losses must lie in \[0, LOSS_MAX\]"):
        bound(bad, np.full(3, 1.5))
    with pytest.raises(ValueError, match=r"t must lie in \[0, LOSS_MAX\]"):
        bound(np.zeros((5, 3)), np.full(3, 1.5))


COSTS = [OceCost.average(), OceCost.cvar(0.5), OceCost.cvar(0.9), OceCost.entropic(1),
         OceCost.entropic(3)]
# "top" keeps random samples but takes t = LOSS_MAX, where cvar's range is constant
KINDS = ("uniform", "grid", "zeros", "ones", "constant", "top")


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
        elif kind == "constant":
            columns.append(np.full(n, rng.uniform()))
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


def crossing_row(z, R, delta):
    """First row where the capital of the sample vector z at R exceeds
    1/delta, from the oracle's one-pass capital; None if it never does."""
    path = np.cumprod(1.0 + oracles.betting_fractions(z, delta) * (R - z))
    above = np.flatnonzero(path > 1.0 / delta)
    return int(above[0]) if above.size else None


def grid_point_crossing_at(z, delta, row):
    """The grid index g whose capital at g / 2^20 first exceeds 1/delta at
    `row`, or None. The crossing row is nonincreasing in R, so the smallest
    g crossing by `row` is the one, if any, that crosses there."""
    def by_row(g):
        at = crossing_row(z, g / _STEPS, delta)
        return at is not None and at <= row

    if not by_row(_STEPS):
        return None
    below, above = -1, int(_STEPS)
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if by_row(mid) else (mid, above)
    return above if crossing_row(z, above / _STEPS, delta) == row else None


# rows where a crossing is the last row of one chunk or the first of the next
EDGE_ROWS = (31, 32, 95, 96, 223, 224)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.sampled_from((1, 2, 33, 97, 225, 300)), st.integers(1, 300)),
    k=st.one_of(st.just(1), st.integers(1, 8)),
    delta=st.one_of(st.sampled_from((1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 2**-52)),
                    st.floats(0.01, 0.99)),
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
    alphas = [at, np.nextafter(at, -math.inf), np.nextafter(at, math.inf),
              data.draw(st.floats(0.0, 2.0))]
    lo, hi = float(ts[j] + phi(cost, -ts[j])), float(bound_B(cost, ts[j]))
    row = data.draw(st.sampled_from(EDGE_ROWS))
    if method == "wsr" and hi > lo and row < n:
        # an alpha whose decision point first crosses 1/delta at a chunk edge
        z = np.clip((transformed_losses(cost, ts[j], block[:, j]) - lo) / (hi - lo), 0.0, 1.0)
        g = grid_point_crossing_at(z, delta, row)
        if g is not None:
            alphas.append(lo + (hi - lo) * (g / _STEPS))
    for alpha in alphas:
        got = oce_risk_ucb_at_most(block, cost, ts, delta, alpha, method=method)
        assert got.tolist() == (ucb <= alpha).tolist()
        single = oce_risk_ucb_at_most(block[:, j], cost, ts[j], delta, alpha, method=method)
        assert type(single) is bool and single == (at <= alpha)


GRID_POINT_ENTRIES = [(0.3, 0.7), (1.0, 1e-16), (0.5, 3e-17), (0.0, 5e-324), (0.25, 0.5), (0.9, 0.05)]


@pytest.mark.parametrize("lo, span", GRID_POINT_ENTRIES[:4])
def test_last_grid_point_matches_exhaustive_search(lo, span):
    # every entry of the table at once, at alphas taken from this one: the
    # other entries then see alphas below their lo (-1), at or past their
    # lo + span (_STEPS) and in between
    los, spans = (np.array(col) for col in zip(*GRID_POINT_ENTRIES))
    values = [a + b * (np.arange(_STEPS + 1) / _STEPS) for a, b in GRID_POINT_ENTRIES]
    mine = values[GRID_POINT_ENTRIES.index((lo, span))]
    rng = np.random.default_rng(9)
    alphas = [lo, lo + span, np.nextafter(lo, -1.0), *mine[rng.integers(0, _STEPS + 1, 5)]]
    kinds = set()
    for alpha in alphas:
        got = _last_grid_point_at_most(los, spans, alpha)
        # the last k whose value fits, the values being nondecreasing in k
        want = np.array([np.searchsorted(v, alpha, side="right") - 1 for v in values])
        assert got.tolist() == want.tolist()
        # where rounding moves the answer more than a step from the real
        # solution, the grid is bisected
        near = np.clip(alpha, los - spans, los + 2.0 * spans)
        guess = np.clip(np.floor(_STEPS * ((near - los) / spans)), -1.0, _STEPS)
        kinds |= {"none" if k < 0 else "all" if k == _STEPS else "some" for k in want}
        kinds |= {"bracketed" if abs(k - g) <= 1 else "bisected" for k, g in zip(want, guess)}
    assert kinds == {"none", "all", "some", "bracketed", "bisected"}


# ---------------------------------------------------------------- the walk

def walk(z, R, delta):
    """The walk over the rows of a (k, n) block of [0, 1] samples, and the
    row ranges it mapped."""
    reads = []

    def unit(cols, rows):
        reads.append((rows.start, min(rows.stop, z.shape[1])))
        return z[cols, rows]

    return _crossed(unit, np.arange(z.shape[0]), z.shape[1], np.asarray(R), delta), reads


@pytest.mark.parametrize("first", [1, 3, 32])
def test_walk_matches_one_capital_pass(monkeypatch, first):
    monkeypatch.setattr(bounds, "_FIRST_CHUNK", first)
    rng = np.random.default_rng(first)
    for _ in range(300):
        n, k = int(rng.integers(1, 400)), int(rng.integers(1, 12))
        kind = rng.integers(0, 4)
        if kind == 0:
            z = rng.uniform(size=(k, n)) * rng.uniform(size=(k, 1))
        elif kind == 1:
            z = rng.integers(0, 11, size=(k, n)) / 10.0
        elif kind == 2:
            z = np.repeat(rng.uniform(size=(k, 1)), n, axis=1)
        else:
            z = np.zeros((k, n))
        R = rng.uniform(size=k)
        delta = float(rng.choice([1e-9, 0.05, 0.2, 0.9, 1.0 - 1e-9]))
        want = capital_process(z, R, betting_fractions(z, delta)) > 1.0 / delta
        assert walk(z, R, delta)[0].tolist() == want.tolist()


@pytest.mark.parametrize("row", EDGE_ROWS)
def test_walk_decides_a_crossing_at_a_chunk_edge(row):
    rng = np.random.default_rng(row)
    found = 0
    for _ in range(20):
        z = rng.uniform(size=300) * rng.uniform()
        delta = float(rng.uniform(0.05, 0.5))
        g = grid_point_crossing_at(z, delta, row)
        if g is None:
            continue
        found += 1
        R = np.array([g, g - 1]) / _STEPS  # crossing at `row`, and later or never
        zz = np.stack([z, z])
        got, _ = walk(zz, R, delta)
        assert got.tolist() == (capital_process(zz, R, betting_fractions(zz, delta))
                                > 1.0 / delta).tolist()
        assert got[0]
    assert found > 0


def test_walk_maps_only_the_rows_it_needs():
    # every column crosses in the first chunk, so no later row is mapped
    z = np.zeros((4, 800))
    got, reads = walk(z, np.full(4, 0.9), 0.2)
    assert got.all() and reads == [(0, 32)]
    # a column that never crosses runs to the last row, in doubling chunks
    got, reads = walk(z[:1], np.zeros(1), 0.2)
    assert not got[0] and reads == [(0, 32), (32, 96), (96, 224), (224, 480), (480, 800)]
